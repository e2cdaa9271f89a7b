package service

import (
	"context"

	gfs "github.com/sjtucitlab/gfs"
)

// runOutcome is what a completed session produced: exactly one of
// Report (single-cluster run) and FedReport (federated run) is set.
type runOutcome struct {
	Report    *gfs.Report
	FedReport *gfs.FederationReport
}

// promReport returns the outcome's report for the merged /metrics
// snapshot; a federated run contributes its aggregate view.
func (o runOutcome) promReport() *gfs.Report {
	if o.FedReport != nil {
		return o.FedReport.Aggregate
	}
	return o.Report
}

// runSpec executes one session's simulation: it builds all run state
// (cluster, engine or federation, collectors) from scratch — the
// RunBatch determinism contract that lets sessions run concurrently —
// replays src when given (consuming and closing it) or generates the
// spec's workload otherwise, and assembles the collected report. The
// construction mirrors gfsim's exactly, so a session's report is
// byte-identical to the CLI's over the same spec. ctx cancellation is
// honoured at simulator-step granularity.
func runSpec(ctx context.Context, sp RunSpec, src gfs.TraceSource, obs gfs.Observer) (runOutcome, error) {
	if sp.Federation {
		return runFedSpec(ctx, sp, src, obs)
	}
	scale := sp.scale()
	collectors := gfs.DefaultCollectors()
	var opts []gfs.Option
	if sc, quota := schedulers[sp.Scheduler](); sc != nil {
		opts = append(opts, gfs.WithScheduler(sc), gfs.WithQuota(quota))
	}
	if src != nil {
		opts = append(opts, gfs.WithTraceSource(src))
	}
	if sp.Autoscale != nil {
		// A fresh policy per run: the policy keeps per-run state, and
		// runSpec may execute concurrently across sessions.
		opts = append(opts, gfs.WithAutoscaler(sp.Autoscale.policy()))
	}
	opts = append(opts, gfs.WithCollectors(collectors...))
	if sp.Scenario != "" {
		sc, err := scale.NamedScenario(sp.Scenario)
		if err != nil {
			return runOutcome{}, err
		}
		opts = append(opts, gfs.WithScenario(sc))
	}
	if obs != nil {
		opts = append(opts, gfs.WithObserver(obs))
	}
	eng := gfs.NewEngine(scale.NewCluster(), opts...)
	var err error
	if src != nil {
		_, err = eng.RunTraceContext(ctx)
	} else {
		_, err = eng.RunContext(ctx, scale.Trace(sp.SpotScale))
	}
	if err != nil {
		return runOutcome{}, err
	}
	return runOutcome{Report: gfs.AssembleReport(collectors...)}, nil
}

// runFedSpec is runSpec's federated arm, mirroring gfsim
// -federation: two members ("west", hit by the scenario, and "east",
// calm) running the reactive GFS stack, spillover between them, and
// the merged per-member + aggregate report collected.
func runFedSpec(ctx context.Context, sp RunSpec, src gfs.TraceSource, obs gfs.Observer) (runOutcome, error) {
	scale := sp.scale()
	var westOpts []gfs.Option
	if sp.Scenario != "" {
		sc, err := scale.NamedScenario(sp.Scenario)
		if err != nil {
			return runOutcome{}, err
		}
		westOpts = append(westOpts, gfs.WithScenario(sc))
	}
	profile := gfs.DefaultDiurnalProfile("A100")
	members := []gfs.Member{
		{Name: "west", Engine: gfs.NewEngine(scale.NewCluster(), westOpts...), Profile: &profile},
		{Name: "east", Engine: gfs.NewEngine(scale.NewCluster())},
	}
	fedOpts := []gfs.FederationOption{
		gfs.WithRoute(routePolicies[sp.Route]()),
		gfs.WithFederationCollectors(nil),
	}
	if obs != nil {
		fedOpts = append(fedOpts, gfs.WithFederationObserver(obs))
	}
	fed := gfs.NewFederation(members, fedOpts...)
	var err error
	if src != nil {
		_, err = fed.RunTraceContext(ctx, src)
	} else {
		// Size the workload for the combined two-member capacity,
		// exactly as gfsim does.
		tscale := scale
		tscale.Nodes *= 2
		_, err = fed.RunContext(ctx, tscale.Trace(sp.SpotScale))
	}
	if err != nil {
		return runOutcome{}, err
	}
	return runOutcome{FedReport: fed.Report()}, nil
}
