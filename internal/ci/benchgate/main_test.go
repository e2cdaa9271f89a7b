package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: github.com/sjtucitlab/gfs
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSim-8        	     100	   2000000 ns/op	        48.38 allocPct
BenchmarkSim-8        	     100	   2200000 ns/op	        48.38 allocPct
BenchmarkSim-8        	     100	   1800000 ns/op	        48.38 allocPct
BenchmarkFederation-8 	     100	   1000000 ns/op	      1753 goodputGPUh	         3.000 migrations
BenchmarkFederation-8 	     100	   1100000 ns/op	      1753 goodputGPUh	         3.000 migrations
BenchmarkReport-8     	     100	   3000000 ns/op	        48.38 allocPct	  524288 B/op	    5000 allocs/op
BenchmarkReport-8     	     100	   3100000 ns/op	        48.38 allocPct	  524288 B/op	    5200 allocs/op
BenchmarkReport-8     	     100	   2900000 ns/op	        48.38 allocPct	  524288 B/op	    4900 allocs/op
PASS
ok  	github.com/sjtucitlab/gfs	1.234s
`

func TestParseBenchMedians(t *testing.T) {
	r, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	sim, ok := r.Benchmarks["BenchmarkSim"]
	if !ok {
		t.Fatalf("BenchmarkSim missing (GOMAXPROCS suffix not stripped?): %v", r.Benchmarks)
	}
	if sim.MedianNsOp != 2000000 {
		t.Fatalf("BenchmarkSim median = %v, want 2000000", sim.MedianNsOp)
	}
	if len(sim.SamplesNsOp) != 3 {
		t.Fatalf("BenchmarkSim samples = %d, want 3", len(sim.SamplesNsOp))
	}
	fed := r.Benchmarks["BenchmarkFederation"]
	if fed.MedianNsOp != 1050000 {
		t.Fatalf("BenchmarkFederation even-count median = %v, want 1050000", fed.MedianNsOp)
	}
	if r.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Fatalf("cpu header not captured: %q", r.CPU)
	}
	rep := r.Benchmarks["BenchmarkReport"]
	if rep.MedianAllocsOp != 5000 {
		t.Fatalf("BenchmarkReport allocs median = %v, want 5000", rep.MedianAllocsOp)
	}
	if len(rep.SamplesAllocsOp) != 3 {
		t.Fatalf("BenchmarkReport alloc samples = %d, want 3", len(rep.SamplesAllocsOp))
	}
	if len(sim.SamplesAllocsOp) != 0 {
		t.Fatalf("BenchmarkSim must not gain alloc samples: %v", sim.SamplesAllocsOp)
	}
}

// TestGateAllocs: the allocs/op gate fails on regressions beyond the
// threshold and on benchmarks that stop reporting allocations, and
// ignores benchmarks that never reported them.
func TestGateAllocs(t *testing.T) {
	base := &Report{Benchmarks: map[string]BenchStat{
		"BenchmarkReport": {MedianNsOp: 1000, MedianAllocsOp: 5000, SamplesAllocsOp: []float64{5000}},
		"BenchmarkSim":    {MedianNsOp: 1000},
	}}
	within := &Report{Benchmarks: map[string]BenchStat{
		"BenchmarkReport": {MedianNsOp: 1000, MedianAllocsOp: 5500, SamplesAllocsOp: []float64{5500}},
		"BenchmarkSim":    {MedianNsOp: 1000},
	}}
	if msgs := gateAllocs(base, within, 0.15); len(msgs) != 0 {
		t.Fatalf("+10%% allocs should pass a 15%% gate: %v", msgs)
	}
	over := &Report{Benchmarks: map[string]BenchStat{
		"BenchmarkReport": {MedianNsOp: 1000, MedianAllocsOp: 7000, SamplesAllocsOp: []float64{7000}},
		"BenchmarkSim":    {MedianNsOp: 1000},
	}}
	if msgs := gateAllocs(base, over, 0.15); len(msgs) != 1 {
		t.Fatalf("+40%% allocs must fail the gate once: %v", msgs)
	}
	dropped := &Report{Benchmarks: map[string]BenchStat{
		"BenchmarkReport": {MedianNsOp: 1000},
		"BenchmarkSim":    {MedianNsOp: 1000},
	}}
	if msgs := gateAllocs(base, dropped, 0.15); len(msgs) != 1 {
		t.Fatalf("dropping ReportAllocs must fail the gate: %v", msgs)
	}
}

func TestComparableRequiresMatchingHardware(t *testing.T) {
	a := &Report{CPU: "cpuA", GoArch: "amd64"}
	if !comparable(a, &Report{CPU: "cpuA", GoArch: "amd64"}) {
		t.Fatal("matching hardware must be comparable")
	}
	if comparable(a, &Report{CPU: "cpuB", GoArch: "amd64"}) {
		t.Fatal("different CPU must not be comparable")
	}
	if comparable(&Report{GoArch: "amd64"}, &Report{GoArch: "amd64"}) {
		t.Fatal("a baseline without a recorded CPU must not be comparable")
	}
}

func TestGate(t *testing.T) {
	base := &Report{Benchmarks: map[string]BenchStat{
		"BenchmarkSim":        {MedianNsOp: 1000},
		"BenchmarkFederation": {MedianNsOp: 1000},
	}}
	within := &Report{Benchmarks: map[string]BenchStat{
		"BenchmarkSim":        {MedianNsOp: 1100},
		"BenchmarkFederation": {MedianNsOp: 900},
	}}
	if msgs := gate(base, within, 0.15); len(msgs) != 0 {
		t.Fatalf("+10%% should pass a 15%% gate: %v", msgs)
	}
	over := &Report{Benchmarks: map[string]BenchStat{
		"BenchmarkSim":        {MedianNsOp: 1300},
		"BenchmarkFederation": {MedianNsOp: 1000},
	}}
	if msgs := gate(base, over, 0.15); len(msgs) != 1 {
		t.Fatalf("+30%% must fail the gate once: %v", msgs)
	}
	missing := &Report{Benchmarks: map[string]BenchStat{
		"BenchmarkSim": {MedianNsOp: 1000},
	}}
	if msgs := gate(base, missing, 0.15); len(msgs) != 1 {
		t.Fatalf("a dropped benchmark must fail the gate: %v", msgs)
	}
}
