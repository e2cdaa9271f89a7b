// Command gfslint is the determinism-contract checker: a multichecker
// over the internal/lint analyzer suite (mapiter, wallclock,
// goroutine, eventemit) plus //lint:ordered waiver hygiene.
//
// Usage:
//
//	gfslint [packages]      # default ./...
//	gfslint -rules          # print the rule catalogue
//
// Findings print as file:line:col: rule: message and exit status 1;
// a clean tree exits 0. The package-classification table in
// internal/lint/classify.go decides which rules cover which packages,
// so running it over ./... is always safe — unclassified packages are
// skipped.
//
// The analyzers mirror the golang.org/x/tools/go/analysis API so they
// can be lifted into a `go vet -vettool` multichecker where x/tools is
// available; this binary is the self-contained offline equivalent and
// what CI runs. See docs/static-analysis.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/sjtucitlab/gfs/internal/lint"
)

func main() {
	rules := flag.Bool("rules", false, "print the rule catalogue and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: gfslint [-rules] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *rules {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := lint.Check(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gfslint: %v\n", err)
		os.Exit(2)
	}
	cwd, _ := os.Getwd()
	for _, f := range findings {
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, f.Pos.Filename); err == nil {
				f.Pos.Filename = rel
			}
		}
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "gfslint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
