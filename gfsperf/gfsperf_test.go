package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"github.com/sjtucitlab/gfs/internal/baselines"
	"github.com/sjtucitlab/gfs/internal/core"
	"github.com/sjtucitlab/gfs/internal/sched"
)

// TestTracedPassEqualsUntraced pins traced ≡ untraced on a small scale
// of each simulator workload: a pass through every tracing wrapper must
// produce the same output as a pass through none, and the wrappers must
// see every layer do work.
func TestTracedPassEqualsUntraced(t *testing.T) {
	paper := paperHigh()
	paper.scale.Nodes = 32
	paper.traces = 2
	fleet := fleet10K()
	fleet.scale.Nodes = 1000
	fleet.scale.Days = 1
	for name, w := range map[string]*simWorkload{"paper-high": paper, "fleet-10k": fleet} {
		t.Run(name, func(t *testing.T) {
			const seed = 3
			plainIn, _, err := w.setup(seed, false)
			if err != nil {
				t.Fatal(err)
			}
			tracedIn, _, err := w.setup(seed, true)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := w.pass(plainIn, seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			traced, err := w.pass(tracedIn, seed, tr)
			if err != nil {
				t.Fatal(err)
			}
			if plain.hash != traced.hash {
				t.Fatalf("traced pass hash %s, untraced %s", traced.hash, plain.hash)
			}
			if plain.out != traced.out {
				t.Fatalf("traced outcome %+v, untraced %+v", traced.out, plain.out)
			}
			if tr.pts.calls == 0 || tr.quota.calls == 0 || tr.gde.calls == 0 || tr.events == 0 || tr.run.calls != w.traces {
				t.Fatalf("a layer saw no calls: pts %d, quota %d, gde %d, events %d, runs %d",
					tr.pts.calls, tr.quota.calls, tr.gde.calls, tr.events, tr.run.calls)
			}
			if w.collectors && (len(tr.collectors) != 6 || tr.assemble.calls != w.traces || tr.reportB == 0) {
				t.Fatalf("collector spans %d, report assemblies %d, report bytes %d",
					len(tr.collectors), tr.assemble.calls, tr.reportB)
			}
		})
	}
}

// TestGFSDReplay runs a short traced gfsd-replay: every session must
// pass the output checks and the per-layer metrics must be filled in.
func TestGFSDReplay(t *testing.T) {
	r := measureGFSD(config{workload: "gfsd-replay", seed: 3, seconds: 200 * time.Millisecond, traced: true})
	for _, err := range r.errs {
		t.Error(err)
	}
	for _, name := range []string{"run_s", "session_p50_s", "service.events", "service.stream_bytes", "trace.decode_s", "trace.tasks"} {
		if r.metrics[name] <= 0 {
			t.Errorf("%s = %g, want > 0", name, r.metrics[name])
		}
	}
}

// TestWrappersForwardOptionalInterfaces checks that each wrapper
// implements an optional extension exactly when the wrapped value does.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	sys := core.New(core.DefaultOptions())
	q := wrapQuota(sys.Quota, tr)
	if _, ok := q.(sched.EtaReporter); !ok {
		t.Error("wrapped core.Quota lost EtaReporter")
	}
	if _, ok := q.(sched.AdmissionLimiter); !ok {
		t.Error("wrapped core.Quota lost AdmissionLimiter")
	}
	plain := wrapQuota(sched.UnlimitedQuota{}, tr)
	if _, ok := plain.(sched.EtaReporter); ok {
		t.Error("wrapped UnlimitedQuota gained EtaReporter")
	}
	if _, ok := plain.(sched.AdmissionLimiter); ok {
		t.Error("wrapped UnlimitedQuota gained AdmissionLimiter")
	}
	if _, ok := wrapScheduler(baselines.NewChronus(), tr).(sched.RuntimeInflater); !ok {
		t.Error("wrapped Chronus lost RuntimeInflater")
	}
	if _, ok := wrapScheduler(sys.Scheduler, tr).(sched.RuntimeInflater); ok {
		t.Error("wrapped PTS gained RuntimeInflater")
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names the
// workloads and metrics this program runs and prints, with the same
// units, in the same order.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not run by the program", w.Name)
		}
	}
	for _, c := range []struct {
		kind string
		json []metric
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", c.kind, len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					c.kind, i, c.json[i].Name, c.json[i].Unit, d.name, d.unit)
			}
		}
	}
}
