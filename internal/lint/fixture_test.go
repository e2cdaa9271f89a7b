package lint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// loadFixture parses and type-checks testdata/src/<name> the same way
// Load handles real packages: comments retained (waivers live there)
// and imports resolved from build-cache export data, so fixtures can
// use time, math/rand and friends offline.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatalf("fixture %s has no Go files", name)
	}

	fset := token.NewFileSet()
	files, err := parseFiles(fset, dir, names)
	if err != nil {
		t.Fatalf("parsing fixture %s: %v", name, err)
	}

	// Resolve the fixture's imports (stdlib only) to export data.
	var paths []string
	seen := map[string]bool{}
	for _, f := range files {
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if !seen[p] {
				seen[p] = true
				paths = append(paths, p)
			}
		}
	}
	exports := map[string]string{}
	if len(paths) > 0 {
		sort.Strings(paths)
		exports, err = exportData(".", paths)
		if err != nil {
			t.Fatalf("export data for fixture %s: %v", name, err)
		}
	}

	info := newInfo()
	tpkg, err := checkFiles(name, fset, files, exportImporter(fset, exports), info)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", name, err)
	}
	return &Package{Path: name, Fset: fset, Files: files, Types: tpkg, Info: info}
}

// wantRx extracts the expectation regexes from a trailing
// `// want "rx"` (or `// want "rx" "rx2"`) comment.
var wantRx = regexp.MustCompile(`"([^"]*)"`)

// expectation is one // want entry awaiting a matching finding.
type expectation struct {
	file string
	line int
	rx   *regexp.Regexp
	hit  bool
}

// collectWants scans fixture comments for analysistest-style
// expectations keyed to the comment's own line.
func collectWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRx.FindAllStringSubmatch(rest, -1) {
					rx, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, rx: rx})
				}
			}
		}
	}
	return out
}

// runFixture checks the fixture package under the given class and
// diffs the findings against its // want comments: every finding
// must be expected on its line, every expectation must fire.
func runFixture(t *testing.T, name string, class Class) {
	t.Helper()
	pkg := loadFixture(t, name)
	wants := collectWants(t, pkg)
	findings := CheckPackage(pkg, class)

	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.rx.MatchString(f.Msg) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.rx)
		}
	}
}

func TestMapIterFixture(t *testing.T) {
	runFixture(t, "mapiter", Class{MapIter: true})
}

func TestWallClockFixture(t *testing.T) {
	runFixture(t, "wallclock", Class{WallClock: true})
}

func TestGoroutineFixture(t *testing.T) {
	runFixture(t, "goroutine", Class{Goroutine: true})
}

// TestSchedFixture is the acceptance case from the issue: a package
// literally named sched, checked under the full sim-core class, where
// an unsorted map range and a hand-built Event both must be flagged.
func TestSchedFixture(t *testing.T) {
	runFixture(t, "sched", simCore)
}

// TestWaiverHygiene pins the waiver lifecycle with direct assertions
// (want comments cannot share a line with the waivers under test): a
// waiver with no reason is a finding AND suppresses nothing, and a
// waiver matching no finding is reported stale.
func TestWaiverHygiene(t *testing.T) {
	pkg := loadFixture(t, "waiver")
	findings := CheckPackage(pkg, Class{WallClock: true})

	var got []string
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%d:%s", f.Pos.Line, f.Rule))
	}
	wantSubstr := []struct {
		rule, msg string
	}{
		{"waiver", "suppresses nothing"},               // stale waiver
		{"waiver", "needs a justification"},            // empty reason
		{"wallclock", "time.Now reads the wall clock"}, // not suppressed by the empty-reason waiver
	}
	if len(findings) != len(wantSubstr) {
		t.Fatalf("got %d findings %v, want %d", len(findings), got, len(wantSubstr))
	}
	for i, w := range wantSubstr {
		if findings[i].Rule != w.rule || !strings.Contains(findings[i].Msg, w.msg) {
			t.Errorf("finding %d = %s, want rule %q containing %q", i, findings[i], w.rule, w.msg)
		}
	}
}

// TestWaiverSuppression confirms a reasoned waiver on the offending
// line or the line above silences the finding and is counted used.
func TestWaiverSuppression(t *testing.T) {
	pkg := loadFixture(t, "waived")
	findings := CheckPackage(pkg, Class{WallClock: true})
	for _, f := range findings {
		t.Errorf("waived fixture must be clean, got: %s", f)
	}
}
