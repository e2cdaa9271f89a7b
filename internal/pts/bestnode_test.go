package pts

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

// oracleBestNode is the full-scan placement loop that bestNode's
// pristine-skipping walk must reproduce: CanFitPod, scores and the
// breaker on every node of the slice.
func (s *Scheduler) oracleBestNode(ctx *sched.Context, tk *task.Task) *cluster.Node {
	colocFirst := s.cfg.CoLocationFirst
	var best scored
	for _, n := range ctx.State.Cluster.NodesOfModel(tk.GPUModel) {
		if !n.CanFitPod(tk) {
			continue
		}
		s1, s2, s3 := s.scores(ctx, n, tk)
		if tk.Type == task.Spot && !s.cfg.DisableEvictionAware && tk.GPUsPerPod >= 1 {
			// Alg. 1 line 7: whole-card spot pods require
			// Score3 > 0; tripping nodes enter the breaker
			// blacklist.
			if s3 <= 0 {
				s.tripBreaker(n, ctx.Now)
				continue
			}
			if s.spotBlocked(n, ctx.Now) {
				continue
			}
		}
		cand := scored{node: n, s1: s1, s2: s2, s3: s3}
		if best.node == nil || scoredBetter(&cand, &best, colocFirst) {
			best = cand
		}
	}
	return best.node
}

// diffCase is one seeded bestNode-vs-oracle scenario: a mixed
// two-model cluster mutated between placement queries.
type diffCase struct {
	rng     *rand.Rand
	cl      *cluster.Cluster
	ctx     *sched.Context
	running map[*cluster.Node][]*task.Task
	nextID  int
}

var diffModels = []string{"A100", "H100"}

func newDiffCase(seed int64) *diffCase {
	d := &diffCase{rng: rand.New(rand.NewSource(seed)), cl: cluster.New(), running: make(map[*cluster.Node][]*task.Task)}
	for id := 0; id < 40+d.rng.Intn(160); id++ {
		d.cl.AddNode(cluster.NewNode(id, diffModels[d.rng.Intn(2)], []int{4, 8, 16}[d.rng.Intn(3)]))
	}
	d.ctx = newCtx(d.cl)
	d.ctx.Now = simclock.Time(30 * simclock.Hour)
	return d
}

func (d *diffCase) pick() *cluster.Node {
	nodes := d.cl.Nodes()
	return nodes[d.rng.Intn(len(nodes))]
}

// randTask draws a pod shape: either class, fractional to 16-card
// requests, unconstrained or pinned to a model (possibly absent).
func (d *diffCase) randTask() *task.Task {
	d.nextID++
	typ := task.HP
	if d.rng.Intn(2) == 0 {
		typ = task.Spot
	}
	tk := mkTask(d.nextID, typ, 1, []float64{0.25, 0.5, 1, 2, 4, 8, 16}[d.rng.Intn(7)])
	if r := d.rng.Intn(4); r < 2 {
		tk.GPUModel = diffModels[r]
	} else if r == 2 && d.rng.Intn(8) == 0 {
		tk.GPUModel = "V100"
	}
	return tk
}

func (d *diffCase) place(n *cluster.Node, tk *task.Task) {
	if n != nil && n.PlacePod(tk) == nil {
		d.running[n] = append(d.running[n], tk)
	}
}

func (d *diffCase) releaseAll(n *cluster.Node) {
	for _, tk := range d.running[n] {
		n.ReleaseTask(tk)
	}
	delete(d.running, n)
}

// mutate applies one random cluster change the pristine index has to
// follow.
func (d *diffCase) mutate() {
	n := d.pick()
	switch d.rng.Intn(9) {
	case 0, 1:
		tk := d.randTask()
		if n.CanFitPod(tk) {
			d.place(n, tk)
		}
	case 2:
		if ts := d.running[n]; len(ts) > 0 {
			i := d.rng.Intn(len(ts))
			n.ReleaseTask(ts[i])
			d.running[n] = append(ts[:i], ts[i+1:]...)
		}
	case 3:
		// A spot eviction burst; large bursts trip the breaker
		// even at the default penalty.
		for _, tk := range d.running[n] {
			if tk.Type == task.Spot {
				n.ReleaseTask(tk)
			}
		}
		burst := 1 + d.rng.Intn(3)
		if d.rng.Intn(3) == 0 {
			burst = 60
		}
		for i := 0; i < burst; i++ {
			n.RecordEviction(d.ctx.Now.Add(-simclock.Duration(d.rng.Int63n(int64(30 * simclock.Hour)))))
		}
	case 4:
		d.releaseAll(n)
		n.SetDown(true)
	case 5:
		n.SetDown(false)
	case 6:
		n.SetCordoned(d.rng.Intn(2) == 0)
	case 7:
		if d.rng.Intn(4) == 0 {
			d.cl.AddPool(cluster.Pool{Model: diffModels[d.rng.Intn(2)], Nodes: 1 + d.rng.Intn(70), GPUsPerNode: []int{4, 8}[d.rng.Intn(2)]})
		}
	case 8:
		d.ctx.Now = d.ctx.Now.Add(simclock.Duration(d.rng.Int63n(int64(2 * simclock.Hour))))
	}
}

// TestBestNodeMatchesFullScan checks the pristine-skipping walk
// against the full-scan oracle over seeded random clusters: after
// every query the chosen node and the breaker blacklist must agree.
func TestBestNodeMatchesFullScan(t *testing.T) {
	configs := []struct {
		name string
		set  func(*Config)
	}{
		{"default", func(*Config) {}},
		{"coloc-first", func(c *Config) { c.CoLocationFirst = true }},
		{"no-coloc", func(c *Config) { c.DisableCoLocation = true }},
		{"no-evict-aware", func(c *Config) { c.DisableEvictionAware = true }},
		{"hot-penalty", func(c *Config) { c.PenaltyM = 100 }},
		{"partial-defaults", func(c *Config) { *c = Config{Gamma: 0.8, PenaltyM: 3, CoLocationFirst: true} }},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 40; seed++ {
				cfg := DefaultConfig()
				tc.set(&cfg)
				d := newDiffCase(seed)
				got, want := New(cfg), New(cfg)
				for step := 0; step < 150; step++ {
					for k := d.rng.Intn(4); k >= 0; k-- {
						d.mutate()
					}
					tk := d.randTask()
					g, w := got.bestNode(d.ctx, tk), want.oracleBestNode(d.ctx, tk)
					if g != w {
						t.Fatalf("seed %d step %d task %+v: bestNode %v, full scan %v", seed, step, *tk, g, w)
					}
					if !reflect.DeepEqual(got.blacklist, want.blacklist) {
						t.Fatalf("seed %d step %d: blacklist %v, full scan %v", seed, step, got.blacklist, want.blacklist)
					}
					if d.rng.Intn(2) == 0 {
						d.place(g, tk)
					}
				}
			}
		})
	}
}

// TestPartialConfigKeepsEvictionAwareness pins the Config defaults: a
// Config that sets the penalty but leaves the windows and breaker
// duration zero still scores evictions finitely and trips the
// breaker for the Table 4 hour.
func TestPartialConfigKeepsEvictionAwareness(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 2, 8)
	ctx := newCtx(cl)
	s := New(Config{Gamma: 0.8, PenaltyM: 3, CoLocationFirst: true})
	hot := cl.Nodes()[0]
	for i := 0; i < 100; i++ {
		hot.RecordEviction(ctx.Now.Add(-5 * simclock.Minute))
	}
	for _, typ := range []task.Type{task.HP, task.Spot} {
		for _, n := range cl.Nodes() {
			s1, s2, s3 := s.scores(ctx, n, mkTask(1, typ, 1, 8))
			for _, v := range []float64{s1, s2, s3} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("node %d %v scores (%v, %v, %v): not finite", n.ID, typ, s1, s2, s3)
				}
			}
		}
	}
	dec := place(t, s, ctx, mkTask(2, task.Spot, 1, 8))
	if dec.PodNodes[0] == hot {
		t.Fatal("spot pod placed on the hot node")
	}
	if until, ok := s.blacklist[hot.ID]; !ok || until != ctx.Now.Add(simclock.Hour) {
		t.Fatalf("hot node blacklist = %v, %v; want until %v", until, ok, ctx.Now.Add(simclock.Hour))
	}
}

// BenchmarkBestNode measures one pod's node choice on a homogeneous
// 8-card pool. sparse occupies 1% of the nodes (the fleet-scale low
// load case, where pristine nodes dominate); dense occupies every
// node, so each one is scored. One untimed call warms the score cache.
func BenchmarkBestNode(b *testing.B) {
	for _, nodes := range []int{1000, 10000} {
		for _, layout := range []struct {
			name  string
			every int
		}{{"sparse", 100}, {"dense", 1}} {
			b.Run(fmt.Sprintf("nodes=%d/%s", nodes, layout.name), func(b *testing.B) {
				cl := cluster.NewHomogeneous("A100", nodes, 8)
				for i, n := range cl.Nodes() {
					if i%layout.every == 0 {
						if err := n.PlacePod(mkTask(i+1, task.HP, 1, 4)); err != nil {
							b.Fatal(err)
						}
					}
				}
				ctx := newCtx(cl)
				s := New(DefaultConfig())
				tk := mkTask(nodes+1, task.Spot, 1, 2)
				s.bestNode(ctx, tk)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if s.bestNode(ctx, tk) == nil {
						b.Fatal("no node")
					}
				}
			})
		}
	}
}
