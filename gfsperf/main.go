// Command gfsperf is the repository benchmark: it runs one workload of
// the GFS simulator for a fixed time, checks every output, and prints
// its metrics as one JSON object on the last line of standard output.
//
//	gfsperf --workload paper-high --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (host cost of the
// simulator and of gfsd sessions); with --trace 1 they are the
// per-layer ones, timed by wrappers around each layer's public
// interface. README.md documents every workload and metric.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"github.com/sjtucitlab/gfs/internal/stats"
)

// metricDef names a metric and its unit; BENCHMARK.json lists the same
// names with their better direction and bound.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"run_s", "s"},
	{"setup_s", "s"},
	{"session_p50_s", "s"},
	{"sessions_per_s", "1/s"},
	{"alloc_mb", "MB"},
}

var perLayer = []metricDef{
	{"pts.calls", "count"},
	{"pts.s", "s"},
	{"pts.call_p50_us", "us"},
	{"pts.call_p99_us", "us"},
	{"pts.hp_s", "s"},
	{"pts.spot_s", "s"},
	{"pts.placed_ratio", "ratio"},
	{"pts.preempt_decisions", "count"},
	{"pts.victims", "count"},
	{"sched.events", "count"},
	{"sched.self_s", "s"},
	{"gde.calls", "count"},
	{"gde.s", "s"},
	{"gde.call_p50_us", "us"},
	{"quota.calls", "count"},
	{"quota.self_s", "s"},
	{"collector.summary.s", "s"},
	{"collector.orgs.s", "s"},
	{"collector.evictions.s", "s"},
	{"collector.quota.s", "s"},
	{"collector.timeline.s", "s"},
	{"collector.cost.s", "s"},
	{"report.assemble_s", "s"},
	{"report.export_s", "s"},
	{"report.bytes", "bytes"},
	{"service.create_ms", "ms"},
	{"service.first_event_ms", "ms"},
	{"service.stream_s", "s"},
	{"service.report_ms", "ms"},
	{"service.events", "count"},
	{"service.gap_events", "count"},
	{"service.stream_bytes", "bytes"},
	{"trace.decode_s", "s"},
	{"trace.tasks", "count"},
	{"setup.trace_s", "s"},
	{"setup.train_s", "s"},
	{"setup.history_s", "s"},
	{"tracing.overhead_pct", "%"},
	{"spot_eviction_rate", "ratio"},
	{"spot_jqt_s", "s"},
	{"hp_jqt_s", "s"},
	{"gpu_alloc_rate", "ratio"},
	{"failed_share", "ratio"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) *result{
	"paper-high":  func(c config) *result { return measureSim(c, paperHigh()) },
	"fleet-10k":   func(c config) *result { return measureSim(c, fleet10K()) },
	"gfsd-replay": measureGFSD,
}

// Every run sets its inputs up at least setupReps times, and up to
// maxSetupReps times while set-up has taken under a second, and reports
// the median. An untraced run times at least minPasses passes; a
// traced run, whose per-layer metrics have no bound, at least
// minTracedPasses of each kind, so that it ends within its time limit
// on the slowest workload.
const (
	setupReps       = 3
	maxSetupReps    = 15
	minPasses       = 2
	minTracedPasses = 1
)

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
}

// result is one run's outcome. metrics holds the end-to-end metrics of
// an untraced run or the per-layer metrics of a traced one; info is
// printed ahead of the result line for people reading the log.
type result struct {
	attempted, failed int
	errs              []error
	metrics           map[string]float64
	info              map[string]any
}

// fail records a failed operation and why.
func (r *result) fail(err error) {
	r.failed++
	r.errs = append(r.errs, err)
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "gfsperf:", err)
		os.Exit(2)
	}
	r := workloads[cfg.workload](cfg)
	for _, err := range r.errs {
		fmt.Fprintln(os.Stderr, "gfsperf:", err)
	}
	if err := writeResult(os.Stdout, cfg, r); err != nil {
		fmt.Fprintln(os.Stderr, "gfsperf:", err)
		os.Exit(1)
	}
	if len(r.errs) > 0 {
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("gfsperf", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: paper-high, fleet-10k or gfsd-replay")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 30, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "1 times each layer and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if _, ok := workloads[*name]; !ok {
		return config{}, fmt.Errorf("unknown workload %q", *name)
	}
	if *seed < 0 {
		return config{}, errors.New("seed must not be negative")
	}
	if *seconds <= 0 {
		return config{}, errors.New("seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return config{}, errors.New("trace must be 0 or 1")
	}
	return config{
		workload: *name, seed: *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
	}, nil
}

// writeResult prints the run's environment and details on one line,
// then the result object on the last line.
func writeResult(w io.Writer, cfg config, r *result) error {
	info := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "traced": cfg.traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu": cpuModel(), "go": runtime.Version(),
	}
	for k, v := range r.info {
		info[k] = v
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(defs))
	for _, d := range defs {
		v := r.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %g", d.name, v)
		}
		ms[d.name] = value{v, d.unit}
	}
	line, err := json.Marshal(info)
	if err != nil {
		return err
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.errs) == 0, r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", line, out)
	return err
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown"
// where there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// setupTimes splits one set-up into its parts, in CPU time, and holds
// the probe work that followed it (see probe.go).
type setupTimes struct {
	trace, train, history, engine time.Duration
	probe                         probe
}

func (s setupTimes) total() time.Duration { return s.trace + s.train + s.history + s.engine }

// repeatSetup runs one set-up repeatedly (see setupReps), each followed
// by its share of probe work, and returns the times of each; the caller
// keeps the inputs of the last one.
func repeatSetup(setup func() (setupTimes, error)) ([]setupTimes, error) {
	var out []setupTimes
	start := time.Now()
	for len(out) < setupReps || (len(out) < maxSetupReps && time.Since(start) < time.Second) {
		st, err := setup()
		if err != nil {
			return out, err
		}
		st.probe.after(st.total())
		out = append(out, st)
	}
	return out, nil
}

// medianSetup is the median of one part of the set-ups, in seconds of
// reference-host time.
func medianSetup(sts []setupTimes, part func(setupTimes) time.Duration) float64 {
	xs := make([]float64, len(sts))
	for i, st := range sts {
		xs[i] = part(st).Seconds() * st.probe.scale()
	}
	return median(xs)
}

// heapAllocBytes is the cumulative count of bytes allocated on the Go
// heap; unlike runtime.ReadMemStats it does not stop the world.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the CPU time (user + system) the process has used, over
// all its threads. The benchmark's end-to-end times are CPU times,
// scaled to the reference host's speed (see probe.go): CPU time leaves
// out the time a shared host's hypervisor gives other tenants (steal),
// and the scaling takes out most of the drift in the vCPU's speed.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return stats.Percentile(xs, 0.5) }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// measureSim runs a simulator workload: set-up, then timed passes
// until the time is up, each of which must reproduce the first pass's
// output. A traced run alternates untraced and traced passes, so
// tracing.overhead_pct compares passes made under the same conditions.
func measureSim(cfg config, w *simWorkload) *result {
	r := &result{metrics: map[string]float64{}, info: map[string]any{}}
	var in *simInputs
	setups, err := repeatSetup(func() (setupTimes, error) {
		var st setupTimes
		var err error
		in, st, err = w.setup(cfg.seed, cfg.traced)
		return st, err
	})
	if err != nil {
		r.fail(err)
		return r
	}
	var ref passResult
	var plain, traced []passResult
	deadline := time.Now().Add(cfg.seconds)
	for n := 0; ; n++ {
		done := len(plain) >= minPasses
		if cfg.traced {
			done = len(plain) >= minTracedPasses && len(traced) >= minTracedPasses
		}
		if done && time.Now().After(deadline) {
			break
		}
		var t *tracer
		if cfg.traced && n%2 == 1 {
			t = newTracer()
		}
		r.attempted += w.traces
		pr, err := w.pass(in, cfg.seed, t)
		if err == nil && n > 0 && pr.hash != ref.hash {
			err = fmt.Errorf("pass %d (traced=%v) output hash %s, first pass %s", n, t != nil, pr.hash, ref.hash)
		}
		if err != nil {
			r.fail(err)
			return r
		}
		switch {
		case n == 0:
			ref = pr
			// A traced run's first pass only warms up, so the untraced
			// passes tracing.overhead_pct compares against start warm
			// like the traced ones.
			if !cfg.traced {
				plain = append(plain, pr)
			}
		case t != nil:
			traced = append(traced, pr)
		default:
			plain = append(plain, pr)
		}
	}
	r.info["hash"] = ref.hash
	r.info["passes"] = len(plain) + len(traced)
	evr, sjqt, hjqt, alloc := ref.out.metrics()
	r.info["outcomes"] = map[string]float64{
		"spot_eviction_rate": evr, "spot_jqt_s": sjqt, "hp_jqt_s": hjqt, "gpu_alloc_rate": alloc,
	}

	// A session of a simulator workload is one pass: the workload's
	// whole input simulated once. Its times are scaled CPU times (see
	// cpuTime); info keeps the measured ones.
	m := r.metrics
	var walls, rawCPUs, allocs, cpus []float64
	var total float64
	for _, p := range plain {
		walls = append(walls, p.wall.Seconds())
		rawCPUs = append(rawCPUs, p.cpu.Seconds())
		cpus = append(cpus, p.scaledCPU())
		allocs = append(allocs, float64(p.alloc)/1e6)
		total += p.scaledCPU()
	}
	r.info["run_wall_s"] = median(walls)
	r.info["run_cpu_s"] = median(rawCPUs)
	r.info["max_rss_mb"] = maxRSSMB()
	m["run_s"] = median(cpus)
	m["setup_s"] = medianSetup(setups, setupTimes.total)
	m["session_p50_s"] = median(cpus)
	m["sessions_per_s"] = float64(len(plain)) / total
	m["alloc_mb"] = median(allocs)
	if !cfg.traced {
		return r
	}

	if err := sameCounts(traced); err != nil {
		r.fail(err)
		return r
	}
	first := traced[0].t
	perPass := func(f func(*tracer) time.Duration) float64 {
		var xs []float64
		for _, p := range traced {
			xs = append(xs, f(p.t).Seconds())
		}
		return median(xs)
	}
	var ptsDurs, gdeDurs []time.Duration
	var tracedCPUs []float64
	for _, p := range traced {
		ptsDurs = append(ptsDurs, p.t.pts.durs...)
		gdeDurs = append(gdeDurs, p.t.gde.durs...)
		tracedCPUs = append(tracedCPUs, p.scaledCPU())
	}
	m["pts.calls"] = float64(first.pts.calls)
	m["pts.s"] = perPass(func(t *tracer) time.Duration { return t.pts.total })
	m["pts.call_p50_us"] = stats.Percentile(seconds(ptsDurs), 0.5) * 1e6
	m["pts.call_p99_us"] = stats.Percentile(seconds(ptsDurs), 0.99) * 1e6
	m["pts.hp_s"] = perPass(func(t *tracer) time.Duration { return t.ptsHP.total })
	m["pts.spot_s"] = perPass(func(t *tracer) time.Duration { return t.ptsSpot.total })
	m["pts.placed_ratio"] = ratio(float64(first.placed), float64(first.pts.calls))
	m["pts.preempt_decisions"] = float64(first.preempts)
	m["pts.victims"] = float64(first.victims)
	m["sched.events"] = float64(first.events)
	m["sched.self_s"] = perPass(func(t *tracer) time.Duration { return t.run.total - t.childTime() })
	m["gde.calls"] = float64(first.gde.calls)
	m["gde.s"] = perPass(func(t *tracer) time.Duration { return t.gde.total })
	m["gde.call_p50_us"] = stats.Percentile(seconds(gdeDurs), 0.5) * 1e6
	m["quota.calls"] = float64(first.quota.calls)
	m["quota.self_s"] = perPass(func(t *tracer) time.Duration { return t.quota.total - t.gde.total })
	for _, c := range first.collectors {
		name := c.name
		m["collector."+name+".s"] = perPass(func(t *tracer) time.Duration { return t.collectorSpan(name).total })
	}
	m["report.assemble_s"] = perPass(func(t *tracer) time.Duration { return t.assemble.total })
	m["report.export_s"] = perPass(func(t *tracer) time.Duration { return t.export.total })
	m["report.bytes"] = float64(first.reportB)
	m["setup.trace_s"] = medianSetup(setups, func(s setupTimes) time.Duration { return s.trace })
	m["setup.train_s"] = medianSetup(setups, func(s setupTimes) time.Duration { return s.train })
	m["setup.history_s"] = medianSetup(setups, func(s setupTimes) time.Duration { return s.history })
	m["tracing.overhead_pct"] = 100 * (median(tracedCPUs)/median(cpus) - 1)
	m["spot_eviction_rate"], m["spot_jqt_s"], m["hp_jqt_s"], m["gpu_alloc_rate"] = evr, sjqt, hjqt, alloc
	m["failed_share"] = ratio(float64(r.failed), float64(r.attempted))
	return r
}

// sameCounts checks that every traced pass made the same calls into
// each layer: the counts are deterministic, so a difference means the
// passes did not do the same work.
func sameCounts(passes []passResult) error {
	counts := func(t *tracer) [7]int {
		return [7]int{t.pts.calls, t.placed, t.preempts, t.victims, t.events, t.gde.calls, t.quota.calls}
	}
	want := counts(passes[0].t)
	for i, p := range passes[1:] {
		if got := counts(p.t); got != want {
			return fmt.Errorf("traced pass %d layer counts %v, first traced pass %v", i+1, got, want)
		}
	}
	return nil
}
