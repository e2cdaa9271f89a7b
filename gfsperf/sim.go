package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"time"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/experiments"
	"github.com/sjtucitlab/gfs/internal/forecast"
	"github.com/sjtucitlab/gfs/internal/gde"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
	"github.com/sjtucitlab/gfs/internal/trace"
)

// simWorkload is a workload that drives the full GFS stack (trained
// OrgLinear GDE, SQA, PTS; GFSFull with guarantee H = 1) through the
// serial engine. One pass simulates every trace of the workload once.
type simWorkload struct {
	scale     experiments.SimScale
	spotScale float64
	// traces is how many independent traces one pass simulates; trace
	// i of seed s is generated with seed s*100+i.
	traces int
	// collectors attaches gfs.DefaultCollectors and makes each run
	// assemble its Report and export it as JSONL.
	collectors bool
}

// paperHigh is the paper's Table 5c path: the 287×8 A100 pool at the
// high spot load (spot scale 4), with every collector, the report and
// its JSONL export. The host cost of one three-day trace swings by 5×
// between seeds (the spot backlog compounds over days), so a pass
// simulates 32 independent one-day traces instead; see README.md.
func paperHigh() *simWorkload {
	s := experiments.PaperScale()
	s.Days = 1
	return &simWorkload{scale: s, spotScale: 4, traces: 32, collectors: true}
}

// fleet10K is the production node count at low load: 10,000×8 GPUs
// over a seven-day diurnal trace with no contention, no evictions and
// no collectors, so the per-placement O(nodes) PTS scan dominates.
func fleet10K() *simWorkload {
	s := experiments.SmallScale()
	s.Nodes = 10000
	s.Days = 7
	s.HPLoad = 0.003
	s.SpotLoad = 0.00075
	s.GangScale = 4
	s.MaxTaskDuration = 24 * gfs.Hour
	return &simWorkload{scale: s, spotScale: 1, traces: 1}
}

// simInputs is what set-up builds once per run and every pass shares.
type simInputs struct {
	est     *gde.Estimator
	model   *tracedModel // nil in untraced runs
	history map[string][]float64
}

// setup generates the pass's traces for seed once, trains the
// estimator and takes the demand history, recording the CPU time of
// each part.
//
// The estimator is the system under test, not an input: it is always
// trained on the scale's reference demand panel (21 paper or 14 fleet
// days of per-org HP demand from an independent trace, seed 17 + 9999),
// as experiments.SimScale.TrainEstimator does. Trained per seed, the
// model alone moved paper-high's host cost by 40% between seeds, a
// common factor of every trace in the pass that no pooling removes. The
// panel is rebuilt here because the benchmark must hand the estimator a
// wrapped model.
func (w *simWorkload) setup(seed int64, traced bool) (*simInputs, setupTimes, error) {
	var st setupTimes
	start := cpuTime()
	for i := 0; i < w.traces; i++ {
		w.trace(seed, i)
	}
	st.trace = cpuTime() - start

	start = cpuTime()
	scale := w.scale
	panel := demandPanel(scale)
	ocfg := forecast.DefaultOrgLinearConfig()
	ocfg.Epochs = scale.OrgLinearEpochs
	var model forecast.Distributional = forecast.NewOrgLinear(ocfg)
	in := &simInputs{}
	if traced {
		in.model = &tracedModel{inner: model}
		model = in.model
	}
	in.est = gde.New(gde.Config{History: scale.GDEHistory, Horizon: scale.GDEHorizon, Model: model})
	if err := in.est.Train(panel, 0); err != nil {
		return nil, st, fmt.Errorf("training estimator: %w", err)
	}
	st.train = cpuTime() - start

	// The quota loop starts with the panel's last GDEHistory hours as
	// forecast context, as production telemetry would provide.
	start = cpuTime()
	in.history = make(map[string][]float64, len(panel))
	for org, series := range panel {
		in.history[org] = series[len(series)-scale.GDEHistory:]
	}
	st.history = cpuTime() - start

	start = cpuTime()
	w.engine(in, w.trace(seed, 0), nil)
	st.engine = cpuTime() - start
	return in, st, nil
}

// demandPanel derives per-organization hourly HP demand over
// scale.TrainDays from an independent trace (seed + 9999) of the same
// process: the GPUs of every HP task whose [submit, submit+duration)
// interval covers the hour.
func demandPanel(scale experiments.SimScale) map[string][]float64 {
	tasks := trace.Generate(trace.Config{
		Seed: scale.Seed + 9999, Days: scale.TrainDays,
		ClusterGPUs: float64(scale.Nodes * scale.GPUsPerNode),
		HPLoad:      scale.HPLoad, SpotLoad: 0,
		GPUModel: "A100", Orgs: orgNames,
		MaxDuration: scale.MaxTaskDuration,
		GangScale:   scale.GangScale,
	})
	hours := scale.TrainDays * 24
	panel := make(map[string][]float64, len(orgNames))
	for _, o := range orgNames {
		panel[o] = make([]float64, hours)
	}
	for _, tk := range tasks {
		if tk.Type != task.HP {
			continue
		}
		first := int(tk.Submit / simclock.Time(simclock.Hour))
		last := int(tk.Submit.Add(tk.Duration) / simclock.Time(simclock.Hour))
		for h := first; h <= last && h < hours; h++ {
			panel[tk.Org][h] += tk.TotalGPUs()
		}
	}
	return panel
}

// orgNames are the trace organizations of experiments.SimScale.
var orgNames = []string{"OrgA", "OrgB", "OrgC", "OrgD"}

// trace generates trace i of the workload for seed. Runs mutate their
// tasks, so every run gets a freshly generated copy.
func (w *simWorkload) trace(seed int64, i int) []*task.Task {
	scale := w.scale
	scale.Seed = seed*100 + int64(i)
	return scale.Trace(w.spotScale)
}

// engine builds one run's engine over a fresh GFS system, wrapping
// every layer in t's spans when t is non-nil.
func (w *simWorkload) engine(in *simInputs, tasks []*task.Task, t *tracer) *gfs.Engine {
	sys := w.scale.NewGFS(in.est, experiments.GFSFull, 1)
	var sc sched.Scheduler = sys.Scheduler
	var q sched.QuotaPolicy = sys.Quota
	var cs []gfs.Collector
	if w.collectors {
		cs = gfs.DefaultCollectors()
	}
	if t != nil {
		sc, q, cs = wrapScheduler(sc, t), wrapQuota(q, t), t.wrapCollectors(cs)
	}
	opts := []gfs.Option{
		gfs.WithScheduler(sc), gfs.WithQuota(q),
		gfs.WithInitialOrgDemand(in.history),
		// Pin the serial core: GFS_SHARDS in the environment must not
		// switch on the sharded one.
		gfs.WithShards(1),
	}
	if len(cs) > 0 {
		opts = append(opts, gfs.WithCollectors(cs...))
	}
	if t != nil {
		opts = append(opts, gfs.WithObserver(t.eventCounter()))
	}
	return gfs.NewEngine(w.scale.NewCluster(), opts...)
}

// passResult is what one pass measured and produced.
type passResult struct {
	// wall sums the timed part of every run: Engine.Run, plus
	// Engine.Report and WriteJSONL when collectors are attached. cpu
	// and alloc are the process CPU time and heap bytes over the same
	// parts; probe is the probe work that followed each of them.
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
	probe probe
	hash  string
	out   outcome
	t     *tracer
}

// scaledCPU is the pass's CPU time in seconds of reference-host time.
func (pr passResult) scaledCPU() float64 { return pr.cpu.Seconds() * pr.probe.scale() }

// pass simulates every trace once. Trace generation and engine
// construction happen outside the timed part.
func (w *simWorkload) pass(in *simInputs, seed int64, t *tracer) (passResult, error) {
	var pr passResult
	h := sha256.New()
	if in.model != nil {
		in.model.t = t
	}
	for i := 0; i < w.traces; i++ {
		tasks := w.trace(seed, i)
		eng := w.engine(in, tasks, t)
		a0 := heapAllocBytes()
		c0 := cpuTime()
		start := time.Now()
		res := eng.Run(tasks)
		ran := time.Now()
		var rep *gfs.Report
		var jsonl bytes.Buffer
		if w.collectors {
			rep = eng.Report()
			assembled := time.Now()
			if err := rep.WriteJSONL(&jsonl); err != nil {
				return pr, fmt.Errorf("trace %d: exporting report: %w", i, err)
			}
			exported := time.Now()
			if t != nil {
				t.assemble.add(assembled.Sub(ran))
				t.export.add(exported.Sub(assembled))
				t.reportB += jsonl.Len()
			}
		}
		pr.wall += time.Since(start)
		cpu := cpuTime() - c0
		pr.cpu += cpu
		pr.alloc += heapAllocBytes() - a0
		pr.probe.after(cpu)
		if t != nil {
			t.run.add(ran.Sub(start))
		}
		if err := checkRun(tasks, res, rep); err != nil {
			return pr, fmt.Errorf("trace %d: %w", i, err)
		}
		pr.out.add(res)
		if w.collectors {
			h.Write(jsonl.Bytes())
		} else {
			hashRun(h, tasks, res)
		}
	}
	pr.hash = hex.EncodeToString(h.Sum(nil))
	pr.t = t
	return pr, nil
}

// checkRun checks a run's Result against its tasks and, when a report
// was collected, against the report's summary.
func checkRun(tasks []*task.Task, res *sched.Result, rep *gfs.Report) error {
	if n := res.HP.Count + res.Spot.Count; n != len(tasks) {
		return fmt.Errorf("result counts %d tasks, trace has %d", n, len(tasks))
	}
	evictions := map[task.Type]int{}
	unfinished := 0
	for _, tk := range tasks {
		evictions[tk.Type] += tk.Evictions
		if tk.State != task.Finished {
			unfinished++
			continue
		}
		if tk.FirstStart < tk.Submit || tk.FinishedAt < tk.FirstStart {
			return fmt.Errorf("task %d: submit %d, first start %d, finish %d out of order",
				tk.ID, tk.Submit, tk.FirstStart, tk.FinishedAt)
		}
	}
	if evictions[task.HP] != res.HP.Evictions || evictions[task.Spot] != res.Spot.Evictions {
		return fmt.Errorf("task eviction counts hp=%d spot=%d, result hp=%d spot=%d",
			evictions[task.HP], evictions[task.Spot], res.HP.Evictions, res.Spot.Evictions)
	}
	if unfinished != res.UnfinishedHP+res.UnfinishedSpot {
		return fmt.Errorf("%d tasks unfinished, result says %d", unfinished, res.UnfinishedHP+res.UnfinishedSpot)
	}
	for _, r := range []float64{res.AllocationRate, res.HP.EvictionRate, res.Spot.EvictionRate} {
		if r < 0 || r > 1 {
			return fmt.Errorf("rate %g outside [0, 1]", r)
		}
	}
	if rep == nil {
		return nil
	}
	got := rep.Result()
	if got == nil || got.HP != res.HP || got.Spot != res.Spot ||
		got.AllocationRate != res.AllocationRate || got.End != res.End ||
		got.UnfinishedHP != res.UnfinishedHP || got.UnfinishedSpot != res.UnfinishedSpot {
		return fmt.Errorf("report summary disagrees with the engine's result")
	}
	return nil
}

// hashRun digests a run without a report: the result summary plus each
// task's first start, finish and eviction count.
func hashRun(h hash.Hash, tasks []*task.Task, res *sched.Result) {
	fmt.Fprintf(h, "%+v|%+v|%v|%v|%d|%d|%d\n", res.HP, res.Spot, res.AllocationRate,
		res.WastedGPUSeconds, res.UnfinishedHP, res.UnfinishedSpot, res.End)
	for _, tk := range tasks {
		fmt.Fprintf(h, "%d %d %d %d\n", tk.ID, tk.FirstStart, tk.FinishedAt, tk.Evictions)
	}
}

// outcome pools the modelled outcomes of several runs.
type outcome struct {
	spotEvictions, spotRuns int
	spotQueue, hpQueue      float64 // summed JQT over tasks
	spotTasks, hpTasks      int
	allocSum                float64
	runs                    int
}

func (o *outcome) add(res *sched.Result) {
	o.spotEvictions += res.Spot.Evictions
	o.spotRuns += res.Spot.Runs
	o.spotQueue += res.Spot.JQT * float64(res.Spot.Count)
	o.hpQueue += res.HP.JQT * float64(res.HP.Count)
	o.spotTasks += res.Spot.Count
	o.hpTasks += res.HP.Count
	o.allocSum += res.AllocationRate
	o.runs++
}

// metrics returns the pooled spot eviction rate, mean spot and HP
// queueing times (s) and mean GPU allocation rate.
func (o outcome) metrics() (evictionRate, spotJQT, hpJQT, alloc float64) {
	return ratio(float64(o.spotEvictions), float64(o.spotRuns)),
		ratio(o.spotQueue, float64(o.spotTasks)),
		ratio(o.hpQueue, float64(o.hpTasks)),
		ratio(o.allocSum, float64(o.runs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
