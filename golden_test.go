package gfs_test

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	gfs "github.com/sjtucitlab/gfs"
)

// The golden corpus pins the simulator's event stream byte-for-byte:
// each case below renders its full EventLog against a fixture under
// testdata/golden/. Any core change that shifts even one event —
// ordering, timing, numbering, or formatting — fails here before it
// can silently alter results. Regenerate intentionally with
//
//	go test -run TestGoldenCorpus . -update
//
// and review the fixture diff like any other code change.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden fixtures from the current engine")

// goldenTraceCfg is the shared small-scale workload: one day against
// 128 GPUs keeps each fixture a few thousand lines while still
// exercising queuing, preemption and quota dynamics.
func goldenTraceCfg(seed int64) gfs.TraceConfig {
	cfg := gfs.DefaultTraceConfig()
	cfg.Seed = seed
	cfg.Days = 1
	cfg.ClusterGPUs = 128
	cfg.Orgs = []string{"OrgA", "OrgB", "OrgC"}
	cfg.MaxDuration = 12 * gfs.Hour
	return cfg
}

// goldenStorm composes the scenario layers the corpus hardens:
// diurnal reclamation, a cascading rack failure with restore, and
// seeded random storms. Deterministic per call.
func goldenStorm(seed int64) *gfs.Scenario {
	return gfs.Compose(
		gfs.NewScenario().DiurnalReclamation(0, 24*gfs.Hour, gfs.Hour,
			gfs.DefaultDiurnalProfile("A100")),
		gfs.CascadingFailure(6*gfs.Hour, "zone-0/rack-0", 0.7, 10*gfs.Minute, seed).
			RestoreDomain(12*gfs.Hour, "zone-0"),
		gfs.RandomStorms(rand.New(rand.NewSource(seed)), gfs.StormProfile{
			Horizon:      24 * gfs.Hour,
			MeanInterval: 6 * gfs.Hour,
			Domains:      []string{"zone-1/rack-0", "zone-1/rack-2"},
			FailureProb:  0.5,
			CascadeP:     0.3,
			RestoreAfter: 2 * gfs.Hour,
		}),
	)
}

// engineCase runs one scheduler over a fresh 16-node cluster and
// returns the rendered event log.
func engineCase(sched gfs.Scheduler, seed int64) string {
	log := &gfs.EventLog{}
	opts := []gfs.Option{gfs.WithObserver(log)}
	if sched != nil {
		opts = append(opts, gfs.WithScheduler(sched), gfs.WithQuota(gfs.StaticQuota(0.5)))
	}
	eng := gfs.NewEngine(gfs.NewCluster("A100", 16, 8), opts...)
	eng.Run(gfs.GenerateTrace(goldenTraceCfg(seed)))
	return log.String()
}

// stormCase is engineCase over the full scenario stack on the
// standard 2-zone topology.
func stormCase(sched gfs.Scheduler, seed int64) string {
	log := &gfs.EventLog{}
	opts := []gfs.Option{gfs.WithObserver(log), gfs.WithScenario(goldenStorm(seed))}
	if sched != nil {
		opts = append(opts, gfs.WithScheduler(sched), gfs.WithQuota(gfs.StaticQuota(0.5)))
	}
	eng := gfs.NewEngine(gfs.NewClusterWithTopology("A100", 16, 8, 2, 4), opts...)
	eng.Run(gfs.GenerateTrace(goldenTraceCfg(seed)))
	return log.String()
}

// federationCase runs a two-member federation — a storm over the
// west member, spillover migration to the east — and returns the
// member-tagged federation log.
func federationCase(seed int64) string {
	log := &gfs.EventLog{}
	fed := gfs.NewFederation([]gfs.Member{
		{Name: "west", Engine: gfs.NewEngine(
			gfs.NewClusterWithTopology("A100", 8, 8, 2, 2),
			gfs.WithScenario(goldenStorm(seed)))},
		{Name: "east", Engine: gfs.NewEngine(
			gfs.NewClusterWithTopology("A100", 8, 8, 2, 2))},
	},
		gfs.WithRoute(gfs.RouteLeastLoaded()),
		gfs.WithSpillover(gfs.SpillToLeastLoaded()),
		gfs.WithMigrationDelay(10*gfs.Minute),
		gfs.WithFederationObserver(log),
	)
	fed.Run(gfs.GenerateTrace(goldenTraceCfg(seed)))
	return log.String()
}

// replayCSVCase round-trips the trace through the CSV codec and
// replays it as a stream, covering the parser and the constant-memory
// replay path in one fixture.
func replayCSVCase(sched gfs.Scheduler, seed int64) string {
	var buf bytes.Buffer
	if err := gfs.WriteTraceCSV(&buf, gfs.GenerateTrace(goldenTraceCfg(seed))); err != nil {
		panic(err)
	}
	src, err := gfs.OpenTraceReader(&buf, gfs.TraceFormatCSV)
	if err != nil {
		panic(err)
	}
	log := &gfs.EventLog{}
	eng := gfs.NewEngine(gfs.NewCluster("A100", 16, 8),
		gfs.WithScheduler(sched), gfs.WithQuota(gfs.StaticQuota(0.5)),
		gfs.WithObserver(log),
		gfs.WithTraceSource(src),
	)
	if _, err := eng.RunTrace(); err != nil {
		panic(err)
	}
	return log.String()
}

// replayStormCase streams the trace through a scenario run, covering
// the scenario × streamed-replay interplay.
func replayStormCase(sched gfs.Scheduler, seed int64) string {
	log := &gfs.EventLog{}
	eng := gfs.NewEngine(gfs.NewClusterWithTopology("A100", 16, 8, 2, 4),
		gfs.WithScheduler(sched), gfs.WithQuota(gfs.StaticQuota(0.5)),
		gfs.WithScenario(goldenStorm(seed)),
		gfs.WithObserver(log),
		gfs.WithTraceSource(gfs.TraceFromTasks(gfs.GenerateTrace(goldenTraceCfg(seed)))),
	)
	if _, err := eng.RunTrace(); err != nil {
		panic(err)
	}
	return log.String()
}

// autoscaleCase runs the full GFS stack with the built-in capacity
// policy over an under-provisioned cluster, so the workload forces
// mid-run provisions and idle retirements onto the event spine. A
// fresh policy is built per call — policies keep per-run state.
func autoscaleCase(mode gfs.AutoscaleMode, seed int64) string {
	log := &gfs.EventLog{}
	pol := &gfs.AutoscalePolicy{
		Mode:     mode,
		MaxNodes: 8,
		Step:     2,
		Curve:    &gfs.DiurnalCurve{PeakHour: 14, Width: 4},
	}
	eng := gfs.NewEngine(gfs.NewCluster("A100", 10, 8),
		gfs.WithAutoscaler(pol), gfs.WithObserver(log))
	eng.Run(gfs.GenerateTrace(goldenTraceCfg(seed)))
	return log.String()
}

// autoscaleStormCase layers the full storm stack over an autoscaled
// run: correlated failures, diurnal reclamation and capacity churn
// interleaved on one spine.
func autoscaleStormCase(seed int64) string {
	log := &gfs.EventLog{}
	pol := &gfs.AutoscalePolicy{
		Mode:     gfs.AutoscalePredictive,
		MaxNodes: 8,
		Step:     2,
		Curve:    &gfs.DiurnalCurve{PeakHour: 14, Width: 4},
	}
	eng := gfs.NewEngine(gfs.NewClusterWithTopology("A100", 12, 8, 2, 4),
		gfs.WithAutoscaler(pol),
		gfs.WithScenario(goldenStorm(seed)),
		gfs.WithObserver(log))
	eng.Run(gfs.GenerateTrace(goldenTraceCfg(seed)))
	return log.String()
}

// goldenCases is the scenario × scheduler × seed matrix. Names are
// fixture file names; keep them stable — renames orphan fixtures.
var goldenCases = []struct {
	name string
	run  func() string
}{
	{"engine_yarn_seed1", func() string { return engineCase(gfs.NewYARNCS(), 1) }},
	{"engine_gfs_seed2", func() string { return engineCase(nil, 2) }}, // full GFS stack (PTS + SQA)
	{"engine_fgd_seed3", func() string { return engineCase(gfs.NewFGD(), 3) }},
	{"engine_chronus_seed4", func() string { return engineCase(gfs.NewChronus(), 4) }},
	{"engine_lyra_seed5", func() string { return engineCase(gfs.NewLyra(), 5) }},
	{"engine_firstfit_seed6", func() string { return engineCase(gfs.NewStaticFirstFit(), 6) }},
	{"storm_yarn_seed7", func() string { return stormCase(gfs.NewYARNCS(), 7) }},
	{"storm_gfs_seed8", func() string { return stormCase(nil, 8) }},
	{"federation_seed9", func() string { return federationCase(9) }},
	{"replay_csv_yarn_seed1", func() string { return replayCSVCase(gfs.NewYARNCS(), 1) }},
	{"replay_storm_yarn_seed7", func() string { return replayStormCase(gfs.NewYARNCS(), 7) }},
	{"autoscale_predictive_seed12", func() string { return autoscaleCase(gfs.AutoscalePredictive, 12) }},
	{"autoscale_reactive_seed13", func() string { return autoscaleCase(gfs.AutoscaleReactive, 13) }},
	{"autoscale_storm_seed14", func() string { return autoscaleStormCase(14) }},
}

// TestGoldenCorpus fails on any byte drift between the current
// engine's event logs and the committed fixtures.
func TestGoldenCorpus(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run()
			path := filepath.Join("testdata", "golden", tc.name+".log")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture %s (run with -update to generate): %v", path, err)
			}
			if got == string(want) {
				return
			}
			t.Fatalf("event log drifted from %s:\n%s\nrun `go test -run TestGoldenCorpus . -update` only if the change is intentional, and review the fixture diff", path, firstDiff(string(want), got))
		})
	}
}

// firstDiff renders the first differing line with context, so a
// drift failure points at the event rather than dumping megabytes.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  fixture: %s\n  got:     %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: fixture %d lines, got %d lines", len(wl), len(gl))
}
