// Command gfsim runs one scheduling simulation and prints its
// metrics, optionally streaming simulator events as they happen.
//
// Usage:
//
//	gfsim -scheduler gfs -nodes 64 -days 2 -spotscale 2
//	gfsim -scheduler yarn -nodes 287 -days 3
//	gfsim -scheduler gfs -hours 4 -events 20
//	gfsim -scheduler gfs -scenario diurnal-storm
//	gfsim -trace trace.csv.gz -scheduler yarn
//	gfsim -federation -scenario zone-cascade -route forecast-aware
//	gfsim -scheduler gfs -report jsonl
//
// Schedulers: gfs, gfs-e, gfs-d, gfs-s, gfs-p, gfs-sp, yarn, chronus,
// lyra, fgd, firstfit. The spot guarantee window is set with -hours
// (so -h keeps its conventional meaning: print usage). -scenario
// injects a named storm profile (rack-failure, zone-cascade,
// diurnal-storm, random-storms); runs are deterministic, so repeated
// invocations print identical metrics.
//
// -trace replays a trace file instead of generating a workload: any
// format gfstrace can read (CSV/JSONL, gzipped or not, plus the
// Alibaba and Philly schemas), streamed through the engine's Inject
// core — the file is decoded as the simulated clock advances, never
// loaded whole. It composes with every scheduler, -scenario and
// -federation; -days and -spotscale describe generated workloads
// only, so they are rejected alongside it.
//
// -report attaches the full default collector set to the run and
// emits the collected gfs.Report after the usual metrics: "text" is
// the human snapshot, "jsonl" the streaming record-per-line export,
// "csv" the per-organization table, "prom" a Prometheus-style text
// snapshot. It composes with every scheduler, -trace, -scenario and
// -federation (which emits the merged per-member + aggregate
// report).
//
// -federation runs a two-member federation instead of one cluster:
// "west" (hit by -scenario, when given) and "east" (calm), each a
// -nodes cluster running the reactive GFS stack, with spillover
// migration between them. -route picks the admission policy:
// least-loaded, cheapest-spot, forecast-aware or round-robin.
//
// -autoscale attaches the built-in capacity autoscaler ("predictive"
// or "reactive"): it provisions and retires nodes mid-run across the
// spot → on-demand → reserved tier ladder, and its capacity churn
// shows up in -events output as NodeProvisioned / NodeRetired. It
// composes with every scheduler, -trace, -scenario and -report;
// federation members manage capacity per engine, so it is
// rejected alongside -federation.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/baselines"
	"github.com/sjtucitlab/gfs/internal/experiments"
	"github.com/sjtucitlab/gfs/internal/gde"
	"github.com/sjtucitlab/gfs/internal/sched"
)

func main() {
	scheduler := flag.String("scheduler", "gfs", "scheduler to run")
	nodes := flag.Int("nodes", 16, "8-GPU nodes in the cluster")
	days := flag.Int("days", 1, "trace span in days")
	spotScale := flag.Float64("spotscale", 1, "spot submission multiplier (1/2/4)")
	seed := flag.Int64("seed", 17, "trace seed")
	guarantee := flag.Int("hours", 1, "spot guarantee hours (GFS variants)")
	events := flag.Int("events", 0, "print the first N simulator events")
	scenario := flag.String("scenario", "", "named scenario profile (rack-failure, zone-cascade, diurnal-storm, random-storms)")
	federation := flag.Bool("federation", false, "run a two-member federation (west = -scenario, east calm)")
	route := flag.String("route", "least-loaded", "federation route policy (least-loaded, cheapest-spot, forecast-aware, round-robin)")
	tracePath := flag.String("trace", "", "replay this trace file (streamed; gzip and format auto-detected) instead of generating a workload")
	report := flag.String("report", "", "emit the collected run report in this format (text, jsonl, csv, prom)")
	autoscalePolicy := flag.String("autoscale", "", "capacity autoscaler policy (predictive, reactive); provisions/retires nodes mid-run")
	flag.Parse()

	if *report != "" {
		switch *report {
		case "text", "jsonl", "csv", "prom":
		default:
			fail(fmt.Errorf("unknown report format %q (valid: text, jsonl, csv, prom)", *report))
		}
	}

	scale := experiments.SmallScale()
	scale.Nodes = *nodes
	scale.Days = *days
	scale.Seed = *seed

	if *tracePath != "" {
		// Generation knobs have no meaning for a replayed file.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "days" || f.Name == "spotscale" {
				fail(fmt.Errorf("-%s does not apply to -trace (the file fixes the workload)", f.Name))
			}
		})
	}

	if *federation {
		// Federation members run the default reactive GFS stack;
		// reject flags that would otherwise be silently ignored.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "scheduler" || f.Name == "hours" {
				fail(fmt.Errorf("-%s does not apply to -federation (members run the reactive GFS stack)", f.Name))
			}
			if f.Name == "autoscale" {
				fail(fmt.Errorf("-autoscale does not apply to -federation (members manage capacity per engine)"))
			}
		})
		runFederation(scale, *spotScale, *scenario, *route, *events, *tracePath, *report)
		return
	}

	var tasks []*gfs.Task
	if *tracePath != "" {
		fmt.Printf("cluster: %d nodes × 8 GPUs; replaying %s (streamed)\n", *nodes, *tracePath)
	} else {
		tasks = scale.Trace(*spotScale)
		fmt.Printf("cluster: %d nodes × 8 GPUs; trace: %d tasks over %d day(s)\n",
			*nodes, len(tasks), *days)
	}

	var extra []gfs.Option
	if *autoscalePolicy != "" {
		pol, err := gfs.NamedAutoscaler(*autoscalePolicy)
		if err != nil {
			fail(err)
		}
		fmt.Printf("autoscale: %s policy\n", *autoscalePolicy)
		extra = append(extra, gfs.WithAutoscaler(pol))
	}
	var collectors []gfs.Collector
	if *report != "" {
		collectors = gfs.DefaultCollectors()
		extra = append(extra, gfs.WithCollectors(collectors...))
	}
	if *scenario != "" {
		sc, err := scale.NamedScenario(*scenario)
		if err != nil {
			fail(err)
		}
		fmt.Printf("scenario: %s (%d actions)\n", *scenario, sc.Len())
		extra = append(extra, gfs.WithScenario(sc))
	}
	if *events > 0 {
		remaining := *events
		extra = append(extra, gfs.WithObserver(gfs.ObserverFunc(func(e gfs.Event) {
			if remaining > 0 {
				fmt.Println(e)
				remaining--
			}
		})))
	}

	// openTrace opens the replay source fresh (sources are
	// single-use); nil without -trace.
	openTrace := func() gfs.TraceSource {
		src, err := gfs.OpenTrace(*tracePath)
		if err != nil {
			fail(err)
		}
		return src
	}

	var res *sched.Result
	var err error
	switch *scheduler {
	case "gfs", "gfs-e", "gfs-d", "gfs-s", "gfs-p", "gfs-sp":
		variant := map[string]experiments.GFSVariant{
			"gfs":    experiments.GFSFull,
			"gfs-e":  experiments.GFSNaiveForecast,
			"gfs-d":  experiments.GFSStaticEta,
			"gfs-s":  experiments.GFSSimpleScore,
			"gfs-p":  experiments.GFSRandomPreempt,
			"gfs-sp": experiments.GFSSimpleBoth,
		}[*scheduler]
		est, terr := trainFor(scale, variant)
		if terr != nil {
			fail(terr)
		}
		sys := scale.NewGFS(est, variant, *guarantee)
		if *tracePath != "" {
			res, err = scale.ReplayGFS(sys, openTrace(), extra...)
		} else {
			res = scale.RunGFS(sys, tasks, extra...)
		}
		if err == nil {
			fmt.Printf("final η: %.3f\n", sys.Quota.Allocator().Eta())
		}
	case "yarn":
		res, err = runSched(scale, baselines.NewYARNCS(), nil, tasks, *tracePath, openTrace, extra)
	case "chronus":
		res, err = runSched(scale, baselines.NewChronus(), nil, tasks, *tracePath, openTrace, extra)
	case "lyra":
		res, err = runSched(scale, baselines.NewLyra(), nil, tasks, *tracePath, openTrace, extra)
	case "fgd":
		res, err = runSched(scale, baselines.NewFGD(), nil, tasks, *tracePath, openTrace, extra)
	case "firstfit":
		res, err = runSched(scale, baselines.NewStaticFirstFit(),
			sched.StaticQuota{Fraction: 0.25}, tasks, *tracePath, openTrace, extra)
	default:
		fail(fmt.Errorf("unknown scheduler %q", *scheduler))
	}
	if err != nil {
		fail(err)
	}
	printResult(res)
	if len(collectors) > 0 {
		emitReport(gfs.AssembleReport(collectors...), *report)
	}
}

// reportWriter is what both gfs.Report and gfs.FederationReport
// export; emitReport drives either.
type reportWriter interface {
	WriteJSONL(io.Writer) error
	WriteCSV(io.Writer) error
	WritePrometheus(io.Writer) error
}

// emitReport writes a collected report (single or federation) to
// stdout in the chosen format.
func emitReport(rep reportWriter, format string) {
	var err error
	switch format {
	case "text":
		fmt.Print(rep)
	case "jsonl":
		err = rep.WriteJSONL(os.Stdout)
	case "csv":
		err = rep.WriteCSV(os.Stdout)
	case "prom":
		err = rep.WritePrometheus(os.Stdout)
	}
	if err != nil {
		fail(err)
	}
}

// runSched runs a baseline over the generated trace or, with a trace
// path, replays the streamed file.
func runSched(scale experiments.SimScale, sc sched.Scheduler, quota sched.QuotaPolicy,
	tasks []*gfs.Task, tracePath string, openTrace func() gfs.TraceSource, extra []gfs.Option) (*sched.Result, error) {
	if tracePath != "" {
		return scale.ReplayBaseline(sc, quota, openTrace(), extra...)
	}
	return scale.RunBaseline(sc, quota, tasks, extra...), nil
}

// runFederation drives the two-member federated simulation: both
// members run the reactive GFS stack over -nodes clusters; the storm
// scenario (when given) hits west only. With a trace path the
// federation replays the streamed file instead of a generated
// workload.
func runFederation(scale experiments.SimScale, spotScale float64, scenario, route string, events int, tracePath, report string) {
	policies := map[string]func() gfs.RoutePolicy{
		"least-loaded":   gfs.RouteLeastLoaded,
		"cheapest-spot":  gfs.RouteCheapestSpot,
		"forecast-aware": gfs.RouteForecastAware,
		"round-robin":    gfs.RouteRoundRobin,
	}
	mk, ok := policies[route]
	if !ok {
		fail(fmt.Errorf("unknown route policy %q (valid: least-loaded, cheapest-spot, forecast-aware, round-robin)", route))
	}
	var westOpts []gfs.Option
	if scenario != "" {
		sc, err := scale.NamedScenario(scenario)
		if err != nil {
			fail(err)
		}
		fmt.Printf("scenario on west: %s (%d actions)\n", scenario, sc.Len())
		westOpts = append(westOpts, gfs.WithScenario(sc))
	}
	profile := gfs.DefaultDiurnalProfile("A100")
	members := []gfs.Member{
		{Name: "west", Engine: gfs.NewEngine(scale.NewCluster(), westOpts...), Profile: &profile},
		{Name: "east", Engine: gfs.NewEngine(scale.NewCluster())},
	}
	fedOpts := []gfs.FederationOption{gfs.WithRoute(mk())}
	if report != "" {
		fedOpts = append(fedOpts, gfs.WithFederationCollectors(nil))
	}
	if events > 0 {
		remaining := events
		fedOpts = append(fedOpts, gfs.WithFederationObserver(gfs.ObserverFunc(func(e gfs.Event) {
			if remaining > 0 {
				fmt.Println(e)
				remaining--
			}
		})))
	}
	fed := gfs.NewFederation(members, fedOpts...)
	var res *gfs.FederationResult
	if tracePath != "" {
		src, err := gfs.OpenTrace(tracePath)
		if err != nil {
			fail(err)
		}
		fmt.Printf("federation: 2 × %d nodes × 8 GPUs; route %s; replaying %s (streamed)\n",
			scale.Nodes, route, tracePath)
		res, err = fed.RunTrace(src)
		if err != nil {
			fail(err)
		}
	} else {
		// Size the workload for the combined two-member capacity.
		tscale := scale
		tscale.Nodes *= 2
		tasks := tscale.Trace(spotScale)
		fmt.Printf("federation: 2 × %d nodes × 8 GPUs; route %s; trace: %d tasks over %d day(s)\n",
			scale.Nodes, route, len(tasks), scale.Days)
		res = fed.Run(tasks)
	}
	for _, m := range res.Members {
		fmt.Printf("\n-- member %s (routed %d, migrated in %d / out %d, goodput %.1f GPU-h) --\n",
			m.Name, m.Routed, m.MigratedIn, m.MigratedOut, m.GoodputGPUSeconds/3600)
		printResult(m.Result)
	}
	fmt.Printf("\nfederation total: goodput %.1f GPU-h, %d migrations, %d saturations, %d unfinished\n",
		res.GoodputGPUSeconds/3600, res.Migrations, res.Saturations, res.Unfinished)
	if report != "" {
		emitReport(fed.Report(), report)
	}
}

func trainFor(scale experiments.SimScale, variant experiments.GFSVariant) (*gde.Estimator, error) {
	if variant == experiments.GFSNaiveForecast {
		return scale.NaiveEstimator()
	}
	return scale.TrainEstimator()
}

func printResult(res *sched.Result) {
	fmt.Printf("scheduler: %s\n", res.SchedulerName)
	fmt.Printf("HP   tasks: %5d  JCT %9.1fs  p99 %9.1fs  JQT %7.1fs  unfinished %d\n",
		res.HP.Count, res.HP.JCT, res.HP.JCTP99, res.HP.JQT, res.UnfinishedHP)
	fmt.Printf("Spot tasks: %5d  JCT %9.1fs  JQT %7.1fs  evictions %d (e = %.2f%%)  unfinished %d\n",
		res.Spot.Count, res.Spot.JCT, res.Spot.JQT,
		res.Spot.Evictions, 100*res.Spot.EvictionRate, res.UnfinishedSpot)
	fmt.Printf("allocation rate: %.2f%%   wasted GPU-hours: %.1f\n",
		100*res.AllocationRate, res.WastedGPUSeconds/3600)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "gfsim: %v\n", err)
	os.Exit(1)
}
