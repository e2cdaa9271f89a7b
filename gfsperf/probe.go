package main

import (
	"math/rand"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The host-speed probe. On a shared VM the speed of a vCPU drifts by
// 20–30% within minutes (other tenants' load on the same cores and
// caches), and CPU time does not leave that out the way it leaves out
// steal: six fleet-10k runs of one input, minutes apart, took from
// 2.2 s to 3.0 s of CPU time per pass. So every timed part of a run is
// followed by probe work, a fixed kernel that is part of the benchmark
// and shares no code with the simulator, and every end-to-end time is
// scaled by how fast the probe ran after it:
//
//	scaled = measured × probeRefUnit / (mean time of a probe unit)
//
// The kernel allocates nothing and writes no pointers, so the
// program's heap and GC add no work to it; it is timed on its own
// locked OS thread. It mixes a dependent walk over a table larger than the
// last-level cache, a sort and a hash loop, as the simulator mixes
// memory-latency-bound, branchy and arithmetic work.
const (
	// probeRefUnit is the CPU time of one probe unit on the reference
	// host, a shared 2-vCPU Intel Xeon VM at a quiet time; it only
	// sets the scale of the reported times.
	probeRefUnit = 7500 * time.Microsecond
	// probeShare is the probe time that follows each timed part, as a
	// share of that part's time.
	probeShare = 0.1
)

var (
	probeNext []uint32 // a random cyclic permutation: the walk's next index
	probeKeys []uint64
	probeWork []uint64
	probeSink uint64
)

func init() {
	rng := rand.New(rand.NewSource(1))
	const n = 1 << 22 // 16 MiB of uint32
	perm := rng.Perm(n)
	probeNext = make([]uint32, n)
	for i := range perm {
		probeNext[perm[i]] = uint32(perm[(i+1)%n])
	}
	probeKeys = make([]uint64, 1<<14)
	for i := range probeKeys {
		probeKeys[i] = rng.Uint64()
	}
	probeWork = make([]uint64, len(probeKeys))
}

// probeUnit does one unit of the probe's fixed work: three sorts and
// hash passes over a table that fits in the L2 cache, then a short
// dependent walk over one that does not.
func probeUnit() {
	var s uint64
	for rep := 0; rep < 3; rep++ {
		copy(probeWork, probeKeys)
		slices.Sort(probeWork)
		h := uint64(14695981039346656037)
		for _, x := range probeWork {
			h ^= x
			h *= 1099511628211
		}
		s += h
	}
	j := uint32(probeSink % uint64(len(probeNext)))
	for k := 0; k < 1<<14; k++ {
		j = probeNext[j]
	}
	probeSink += s + uint64(j)
}

// probe accumulates probe units and the thread CPU time they took.
type probe struct {
	units int
	cpu   time.Duration
}

// runFor runs probe units, at least one, until they have taken d of
// CPU time.
func (p *probe) runFor(d time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	for n := 0; n == 0 || threadCPU()-start < d; n++ {
		probeUnit()
		p.units++
	}
	p.cpu += threadCPU() - start
}

// after follows a timed part that took d with its share of probe work.
func (p *probe) after(d time.Duration) {
	p.runFor(time.Duration(probeShare * float64(d)))
}

// scale is the factor that turns a time measured alongside the probe
// into reference-host time (1 when the probe never ran).
func (p probe) scale() float64 {
	if p.units == 0 || p.cpu <= 0 {
		return 1
	}
	return probeRefUnit.Seconds() * float64(p.units) / p.cpu.Seconds()
}

// threadCPU is the CPU time of the calling OS thread.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
