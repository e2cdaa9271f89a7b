package gfs_test

import (
	"fmt"
	"testing"

	gfs "github.com/sjtucitlab/gfs"
)

// chaosTrace generates a one-day 128-GPU workload with enough spot
// pressure to exercise preemption.
func chaosTrace(seed int64) []*gfs.Task {
	cfg := gfs.DefaultTraceConfig()
	cfg.Seed = seed
	cfg.Days = 1
	cfg.ClusterGPUs = 128
	cfg.HPLoad = 0.55
	cfg.SpotLoad = 0.25
	cfg.MaxDuration = 6 * gfs.Hour
	return gfs.GenerateTrace(cfg)
}

func chaosScenario() *gfs.Scenario {
	return gfs.NewScenario().
		KillNodes(6*gfs.Hour, 3, 4).
		RestoreNodes(12*gfs.Hour, 3, 4)
}

// runChaos executes the acceptance scenario (2 nodes down at hour 6,
// back at hour 12) and returns the result and event log.
func runChaos(seed int64, extra ...gfs.Option) (*gfs.Result, *gfs.EventLog) {
	log := &gfs.EventLog{}
	opts := append([]gfs.Option{
		gfs.WithScenario(chaosScenario()),
		gfs.WithObserver(log),
	}, extra...)
	res := gfs.NewEngine(gfs.NewCluster("A100", 16, 8), opts...).Run(chaosTrace(seed))
	return res, log
}

func TestEngineDefaultsRun(t *testing.T) {
	res := gfs.NewEngine(gfs.NewCluster("A100", 8, 8)).Run(chaosTrace(3))
	if res.HP.Count == 0 || res.Spot.Count == 0 {
		t.Fatal("missing task classes")
	}
	if res.SchedulerName == "" {
		t.Fatal("default engine should install the GFS scheduler")
	}
}

// TestEventLogDeterministic: the same seed and configuration must
// produce a byte-identical ordered event log.
func TestEventLogDeterministic(t *testing.T) {
	_, log1 := runChaos(17)
	_, log2 := runChaos(17)
	if len(log1.Events) == 0 {
		t.Fatal("no events recorded")
	}
	if log1.String() != log2.String() {
		t.Fatal("event logs differ between identical runs")
	}
}

// TestObserverNeutral: registering observers must not change any
// simulation metric.
func TestObserverNeutral(t *testing.T) {
	bare := gfs.NewEngine(gfs.NewCluster("A100", 16, 8),
		gfs.WithScenario(chaosScenario())).Run(chaosTrace(17))
	observed, log := runChaos(17)
	if len(log.Events) == 0 {
		t.Fatal("no events recorded")
	}
	type headline struct {
		HPJCT, HPJQT, SpotJCT, SpotJQT, Alloc, Waste, Quota float64
		HPEv, SpotEv, UnHP, UnSpot                          int
		End                                                 gfs.Time
	}
	of := func(r *gfs.Result) headline {
		return headline{
			HPJCT: r.HP.JCT, HPJQT: r.HP.JQT,
			SpotJCT: r.Spot.JCT, SpotJQT: r.Spot.JQT,
			Alloc: r.AllocationRate, Waste: r.WastedGPUSeconds,
			Quota: r.FinalQuota,
			HPEv:  r.HP.Evictions, SpotEv: r.Spot.Evictions,
			UnHP: r.UnfinishedHP, UnSpot: r.UnfinishedSpot,
			End: r.End,
		}
	}
	if of(bare) != of(observed) {
		t.Fatalf("observer changed metrics:\nbare     %+v\nobserved %+v", of(bare), of(observed))
	}
}

// TestEvictionEventsMatchResult: every spot eviction counted in the
// result must appear as a TaskEvicted event, task by task.
func TestEvictionEventsMatchResult(t *testing.T) {
	res, log := runChaos(17)
	perTask := map[int]int{}
	spotEvents := 0
	for _, e := range log.Filter(gfs.TaskEvicted) {
		if e.Task.Type == gfs.Spot {
			spotEvents++
			perTask[e.Task.ID]++
		}
	}
	if res.Spot.Evictions == 0 {
		t.Fatal("scenario should force spot evictions")
	}
	if spotEvents != res.Spot.Evictions {
		t.Fatalf("spot TaskEvicted events = %d, Result.Spot.Evictions = %d",
			spotEvents, res.Spot.Evictions)
	}
	for _, tk := range res.Tasks {
		if tk.Type == gfs.Spot && perTask[tk.ID] != tk.Evictions {
			t.Fatalf("task %d: %d eviction events, task counter %d",
				tk.ID, perTask[tk.ID], tk.Evictions)
		}
	}
}

// TestScenarioNodeFailure is the acceptance scenario: two nodes die
// at hour 6 and return at hour 12, emitting NodeDown/NodeUp and
// node-failure TaskEvicted events in order.
func TestScenarioNodeFailure(t *testing.T) {
	res, log := runChaos(17)

	var downs, ups []gfs.Event
	for _, e := range log.Events {
		switch e.Kind {
		case gfs.NodeDown:
			downs = append(downs, e)
		case gfs.NodeUp:
			ups = append(ups, e)
		}
	}
	if len(downs) != 2 || len(ups) != 2 {
		t.Fatalf("got %d NodeDown, %d NodeUp events, want 2 and 2", len(downs), len(ups))
	}
	for _, e := range downs {
		if e.At != gfs.Time(0).Add(6*gfs.Hour) {
			t.Fatalf("NodeDown at t=%d, want hour 6", e.At)
		}
	}
	for _, e := range ups {
		if e.At != gfs.Time(0).Add(12*gfs.Hour) {
			t.Fatalf("NodeUp at t=%d, want hour 12", e.At)
		}
	}
	if downs[0].Node.ID != 3 || downs[1].Node.ID != 4 {
		t.Fatalf("NodeDown order = %d,%d, want 3,4", downs[0].Node.ID, downs[1].Node.ID)
	}
	// Seq must order the whole stream: downs before ups, and any
	// node-failure evictions between the matching NodeDown and the
	// restores.
	if downs[1].Seq <= downs[0].Seq || ups[0].Seq <= downs[1].Seq || ups[1].Seq <= ups[0].Seq {
		t.Fatal("event sequence numbers out of order")
	}
	for _, e := range log.Filter(gfs.TaskEvicted) {
		if e.Cause == gfs.CauseNodeFailure {
			if e.Seq < downs[0].Seq || e.Seq > ups[0].Seq {
				t.Fatalf("node-failure eviction seq=%d outside [down,up] window", e.Seq)
			}
		}
	}
	// Capacity is whole again after the restore.
	if res.End <= gfs.Time(0).Add(12*gfs.Hour) {
		t.Fatalf("run ended at %d, before the restore", res.End)
	}
}

// TestScenarioDrainSparesHP: draining evicts spot pods but lets HP
// pods finish on the cordoned node.
func TestScenarioDrainSparesHP(t *testing.T) {
	cl := gfs.NewCluster("A100", 1, 8)
	tasks := []*gfs.Task{
		gfs.NewTask(1, gfs.HP, 1, 4, 2*gfs.Hour),
		gfs.NewTask(2, gfs.Spot, 1, 4, 2*gfs.Hour),
	}
	log := &gfs.EventLog{}
	sc := gfs.NewScenario().DrainNode(30*gfs.Minute, 0)
	res := gfs.NewEngine(cl,
		gfs.WithScheduler(gfs.NewStaticFirstFit()),
		gfs.WithScenario(sc),
		gfs.WithObserver(log),
	).Run(tasks)
	if res.HP.Evictions != 0 {
		t.Fatal("drain must not evict HP pods")
	}
	if res.Spot.Evictions != 1 {
		t.Fatalf("drain should evict the spot task once, got %d", res.Spot.Evictions)
	}
	if got := log.Filter(gfs.TaskEvicted); len(got) != 1 || got[0].Cause != gfs.CauseDrained {
		t.Fatalf("want one drained TaskEvicted event, got %v", got)
	}
	if res.UnfinishedHP != 0 {
		t.Fatal("HP task should finish on the cordoned node")
	}
}

// TestScenarioScaleOut: added capacity unblocks a task that cannot
// fit on the initial cluster.
func TestScenarioScaleOut(t *testing.T) {
	cl := gfs.NewCluster("A100", 1, 8)
	tasks := []*gfs.Task{
		gfs.NewTask(1, gfs.HP, 1, 8, 4*gfs.Hour),
		gfs.NewTask(2, gfs.HP, 1, 8, gfs.Hour), // blocked until scale-out
	}
	log := &gfs.EventLog{}
	sc := gfs.NewScenario().ScaleOut(gfs.Duration(3600), gfs.Pool{Model: "A100", Nodes: 1, GPUsPerNode: 8})
	res := gfs.NewEngine(cl,
		gfs.WithScheduler(gfs.NewStaticFirstFit()),
		gfs.WithScenario(sc),
		gfs.WithObserver(log),
	).Run(tasks)
	if res.UnfinishedHP != 0 {
		t.Fatal("scale-out should unblock the second task")
	}
	ups := log.Filter(gfs.NodeUp)
	if len(ups) != 1 || ups[0].Node.ID != 1 {
		t.Fatalf("want one NodeUp for node 1, got %v", ups)
	}
	if tasks[1].FirstStart < gfs.Time(3600) {
		t.Fatalf("task 2 started at %d, before scale-out", tasks[1].FirstStart)
	}
}

// TestRunBatchDeterministic: a batch sweep must reproduce identical
// per-seed results serially and with 8 workers.
func TestRunBatchDeterministic(t *testing.T) {
	specs := func() []gfs.BatchSpec {
		var out []gfs.BatchSpec
		for seed := int64(1); seed <= 6; seed++ {
			out = append(out, gfs.BatchSpec{
				Name: fmt.Sprintf("seed-%d", seed),
				Setup: func() (*gfs.Engine, []*gfs.Task) {
					eng := gfs.NewEngine(gfs.NewCluster("A100", 16, 8),
						gfs.WithScenario(chaosScenario()))
					return eng, chaosTrace(seed)
				},
			})
		}
		return out
	}
	serial := gfs.RunBatch(specs(), gfs.WithWorkers(1))
	parallel := gfs.RunBatch(specs(), gfs.WithWorkers(8))
	if len(serial) != 6 || len(parallel) != 6 {
		t.Fatalf("result counts: %d serial, %d parallel", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Err != nil || p.Err != nil {
			t.Fatalf("run %s errored: %v / %v", s.Name, s.Err, p.Err)
		}
		if s.Name != p.Name {
			t.Fatalf("order broken at %d: %s vs %s", i, s.Name, p.Name)
		}
		if s.Result.Spot.Evictions != p.Result.Spot.Evictions ||
			s.Result.AllocationRate != p.Result.AllocationRate ||
			s.Result.HP.JCT != p.Result.HP.JCT ||
			s.Result.End != p.Result.End {
			t.Fatalf("run %s differs between worker counts", s.Name)
		}
	}
}

// TestRunBatchRecoversPanics: one bad spec must not kill the sweep.
func TestRunBatchRecoversPanics(t *testing.T) {
	specs := []gfs.BatchSpec{
		{Name: "boom", Setup: func() (*gfs.Engine, []*gfs.Task) { panic("boom") }},
		{Name: "ok", Setup: func() (*gfs.Engine, []*gfs.Task) {
			return gfs.NewEngine(gfs.NewCluster("A100", 2, 8)), chaosTrace(1)[:10]
		}},
	}
	results := gfs.RunBatch(specs, gfs.WithWorkers(2))
	if results[0].Err == nil {
		t.Fatal("panicking spec should surface as an error")
	}
	if results[1].Err != nil || results[1].Result == nil {
		t.Fatalf("healthy spec should succeed: %v", results[1].Err)
	}
}
