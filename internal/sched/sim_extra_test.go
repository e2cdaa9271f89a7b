package sched

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

// rampQuota is an unlimited quota with an admission ramp.
type rampQuota struct{ perPass float64 }

func (rampQuota) Quota(*QuotaContext) float64 { return math.Inf(1) }

func (r rampQuota) MaxAdmitPerPass(capacity float64) float64 { return r.perPass }

func TestAdmissionRampDefersSecondTask(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 2, 8)
	tasks := []*task.Task{
		mkTask(1, task.Spot, 1, 8, 30*simclock.Minute, 0),
		mkTask(2, task.Spot, 1, 8, 30*simclock.Minute, 0),
	}
	cfg := DefaultSimConfig(cl, &firstFit{})
	cfg.Quota = rampQuota{perPass: 8} // one 8-GPU admission per pass
	res := Run(cfg, tasks)
	if res.UnfinishedSpot != 0 {
		t.Fatal("ramp must defer, not starve")
	}
	if tasks[0].FirstStart != 0 {
		t.Fatal("first task admitted immediately")
	}
	// Second task waits for the next pass (the 300 s quota tick).
	if tasks[1].FirstStart == 0 {
		t.Fatal("second task should be ramp-deferred")
	}
}

func TestAdmissionRampNeverDeadlocksLargeTask(t *testing.T) {
	// A single task far larger than the per-pass ramp must still be
	// admitted (first admission always proceeds).
	cl := cluster.NewHomogeneous("A100", 2, 8)
	tasks := []*task.Task{mkTask(1, task.Spot, 2, 8, 30*simclock.Minute, 0)}
	cfg := DefaultSimConfig(cl, &firstFit{})
	cfg.Quota = rampQuota{perPass: 1}
	res := Run(cfg, tasks)
	if res.UnfinishedSpot != 0 {
		t.Fatal("oversized-vs-ramp task must not deadlock")
	}
	if tasks[0].FirstStart != 0 {
		t.Fatal("first admission of a pass always proceeds")
	}
}

func TestShapeCacheAllowsBackfill(t *testing.T) {
	// Two identical oversized tasks ahead of a small task, with a
	// failure budget of 2: the duplicate shape must be skipped
	// without consuming budget so the small task still gets tried.
	cl := cluster.NewHomogeneous("A100", 1, 8)
	blockerA := mkTask(1, task.Spot, 2, 8, simclock.Hour, 0) // needs 2 nodes
	blockerB := mkTask(2, task.Spot, 2, 8, simclock.Hour, 0) // same shape
	small := mkTask(3, task.Spot, 1, 1, 30*simclock.Minute, 0)
	cfg := DefaultSimConfig(cl, &firstFit{})
	cfg.MaxFailuresPerPass = 2
	cfg.IdleTimeout = simclock.Hour
	res := Run(cfg, []*task.Task{blockerA, blockerB, small})
	if small.State != task.Finished {
		t.Fatal("small task should backfill past the blocked gang shapes")
	}
	if res.UnfinishedSpot != 2 {
		t.Fatalf("unfinished = %d, want the 2 oversized tasks", res.UnfinishedSpot)
	}
}

func TestInitialOrgDemandSeedsQuotaContext(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 1, 8)
	tasks := []*task.Task{mkTask(1, task.HP, 1, 1, 20*simclock.Minute, 0)}
	var got map[string][]float64
	cfg := DefaultSimConfig(cl, &firstFit{})
	cfg.InitialOrgDemand = map[string][]float64{"OrgZ": {1, 2, 3}}
	cfg.Quota = quotaFunc(func(ctx *QuotaContext) float64 {
		got = ctx.OrgDemand
		return math.Inf(1)
	})
	Run(cfg, tasks)
	if len(got["OrgZ"]) < 3 || got["OrgZ"][0] != 1 || got["OrgZ"][2] != 3 {
		t.Fatalf("seeded history missing: %v", got["OrgZ"])
	}
}

func TestHourlyDemandIsAveraged(t *testing.T) {
	// One HP task running 30 of 60 minutes at 8 GPUs: the hourly
	// average sampled every 300 s should land well below the 8-GPU
	// instantaneous peak.
	cl := cluster.NewHomogeneous("A100", 1, 8)
	tk := mkTask(1, task.HP, 1, 8, 30*simclock.Minute, 0)
	tk.Org = "OrgY"
	// A second arrival past the hour boundary keeps the simulation
	// (and its tick stream) alive long enough to close hour 0.
	later := mkTask(2, task.HP, 1, 1, 10*simclock.Minute, simclock.Time(70*simclock.Minute))
	later.Org = "OrgY"
	var series []float64
	cfg := DefaultSimConfig(cl, &firstFit{})
	cfg.Quota = quotaFunc(func(ctx *QuotaContext) float64 {
		if s := ctx.OrgDemand["OrgY"]; len(s) > 0 {
			series = append([]float64(nil), s...)
		}
		return math.Inf(1)
	})
	Run(cfg, []*task.Task{tk, later})
	if len(series) == 0 {
		t.Fatal("no demand recorded")
	}
	if series[0] <= 0 || series[0] >= 8 {
		t.Fatalf("hour-0 average = %v, want within (0, 8)", series[0])
	}
}

// passSched is a scheduling-pass stub: tasks whose ID is in fits are
// placed (evicting the victims listed for them), every other attempt
// fails. Attempts are recorded in order. Less is HP first, then FCFS,
// so shapes interleave in the queue.
type passSched struct {
	fits     map[int]bool
	victims  map[int][]*task.Task
	attempts []int
}

func (*passSched) Name() string { return "pass-stub" }

func (*passSched) Less(a, b *task.Task) bool {
	if a.Type != b.Type {
		return a.Type == task.HP
	}
	return a.Submit < b.Submit
}

func (p *passSched) Schedule(_ *Context, tk *task.Task) (*Decision, error) {
	p.attempts = append(p.attempts, tk.ID)
	if !p.fits[tk.ID] {
		return nil, ErrNoFit
	}
	return &Decision{Victims: p.victims[tk.ID]}, nil
}

// passSim builds a simulator whose pending queue is exactly queue.
func passSim(sc Scheduler, maxFailures int, queue []*task.Task) *Simulator {
	cfg := DefaultSimConfig(cluster.NewHomogeneous("A100", 4, 8), sc)
	cfg.MaxFailuresPerPass = maxFailures
	s := NewSimulator(cfg, nil)
	s.pending = append([]*task.Task(nil), queue...)
	return s
}

func taskIDs(tasks []*task.Task) []int {
	ids := make([]int, len(tasks))
	for i, tk := range tasks {
		ids[i] = tk.ID
	}
	return ids
}

func TestSchedulePass(t *testing.T) {
	spot := func(id, pods int, submit simclock.Time) *task.Task {
		return mkTask(id, task.Spot, pods, 8, simclock.Hour, submit)
	}
	finished := spot(3, 1, 3)
	finished.State = task.Finished
	running := spot(5, 1, 5)
	running.State = task.Running
	victim := spot(9, 1, 4)
	victim.Start(0)
	cases := []struct {
		name         string
		maxFailures  int
		queue        []*task.Task
		fits         []int
		victims      map[int][]*task.Task
		wantAttempts []int
		wantPending  []int
	}{
		{
			// FCFS interleaves shapes A (1 pod) and B (2 pods): the
			// last failed shape is B when A recurs, so the memo
			// misses and the list scan must still skip it. Shape C
			// (3 pods) is tried and placed.
			name:        "interleaved shapes",
			maxFailures: 25,
			queue: []*task.Task{
				spot(1, 1, 1), spot(2, 2, 2), spot(3, 1, 3), spot(4, 2, 4),
				spot(5, 3, 5), spot(6, 1, 6),
			},
			fits:         []int{5},
			wantAttempts: []int{1, 2, 5, 6},
			wantPending:  []int{1, 2, 3, 4, 6},
		},
		{
			// The cap is hit by task 1; past it nothing is tried,
			// non-Pending entries are dropped and order is kept.
			name:        "cap tail",
			maxFailures: 1,
			queue: []*task.Task{
				spot(1, 1, 1), spot(2, 2, 2), finished, spot(4, 3, 4), running,
				spot(6, 1, 6),
			},
			wantAttempts: []int{1},
			wantPending:  []int{1, 2, 4, 6},
		},
		{
			// HP task 1 evicts spot 9 (submitted at 4); the victim
			// merges back between the kept spots 2 and 6.
			name:        "victim merge",
			maxFailures: 25,
			queue: []*task.Task{
				mkTask(1, task.HP, 1, 8, simclock.Hour, 1), spot(2, 2, 2), spot(6, 1, 6),
			},
			fits:         []int{1},
			victims:      map[int][]*task.Task{1: {victim}},
			wantAttempts: []int{1, 2, 6},
			wantPending:  []int{2, 9, 6},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := &passSched{fits: map[int]bool{}, victims: tc.victims}
			for _, id := range tc.fits {
				sc.fits[id] = true
			}
			s := passSim(sc, tc.maxFailures, tc.queue)
			s.schedulePass()
			if !slices.Equal(sc.attempts, tc.wantAttempts) {
				t.Errorf("attempts = %v, want %v", sc.attempts, tc.wantAttempts)
			}
			if got := taskIDs(s.pending); !slices.Equal(got, tc.wantPending) {
				t.Errorf("pending = %v, want %v", got, tc.wantPending)
			}
			for i, tk := range s.pending[len(s.pending):cap(s.pending)] {
				if tk != nil {
					t.Errorf("backing array holds task %d at %d past len %d", tk.ID, len(s.pending)+i, len(s.pending))
				}
			}
		})
	}
}

// failSched fails every attempt without allocating. Less orders by
// size, largest first, as PTS does, so equal shapes are adjacent.
type failSched struct{}

func (failSched) Name() string { return "fail-stub" }

func (failSched) Less(a, b *task.Task) bool { return a.Pods > b.Pods }

func (failSched) Schedule(*Context, *task.Task) (*Decision, error) { return nil, ErrNoFit }

// backlog returns n pending spot tasks over shapes distinct pod
// counts, in failSched order.
func backlog(n, shapes int) []*task.Task {
	tasks := make([]*task.Task, n)
	for i := range tasks {
		pods := shapes - i*shapes/n
		tasks[i] = mkTask(i+1, task.Spot, pods, 8, simclock.Hour, 0)
	}
	return tasks
}

func TestSchedulePassNoAlloc(t *testing.T) {
	// 40 shapes against the default cap of 25: the pass fails 25
	// attempts, skips the blocked runs and keeps the tail.
	s := passSim(failSched{}, 0, backlog(1000, 40))
	allocs := testing.AllocsPerRun(100, s.schedulePass)
	if allocs != 0 {
		t.Fatalf("a pass that places nothing allocated %v times", allocs)
	}
	if len(s.pending) != 1000 {
		t.Fatalf("pending = %d after the pass, want 1000", len(s.pending))
	}
}

func BenchmarkSchedulePass(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("backlog=%d", n), func(b *testing.B) {
			s := passSim(failSched{}, 0, backlog(n, 8))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.schedulePass()
			}
		})
	}
}
