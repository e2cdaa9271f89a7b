package cluster

import (
	"math/rand"
	"testing"

	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

// checkPristine recomputes every pristine bitset from per-node state:
// the all-nodes slice and each model slice.
func checkPristine(t *testing.T, c *Cluster, step int) {
	t.Helper()
	for _, model := range append([]string{""}, c.Models()...) {
		nodes, words := c.NodesOfModel(model), c.PristineOfModel(model)
		if want := (len(nodes) + 63) / 64; len(words) != want {
			t.Fatalf("step %d model %q: %d words for %d nodes", step, model, len(words), len(nodes))
		}
		for i := 0; i < 64*len(words); i++ {
			want := false
			if i < len(nodes) {
				n := nodes[i]
				want = n.Schedulable() && n.HPGPUs() == 0 && n.SpotGPUs() == 0 && len(n.evictions) == 0
			}
			if got := words[i/64]>>(i%64)&1 == 1; got != want {
				t.Fatalf("step %d model %q bit %d: %v, want %v", step, model, i, got, want)
			}
		}
	}
}

// TestPristineIndexTracksMutations drives seeded random mutation
// sequences — place, release, evict, down/up, cordon, AddPool,
// AddNode — and checks the index after each step.
func TestPristineIndexTracksMutations(t *testing.T) {
	models := []string{"A100", "H100"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := New()
		for id := 0; id < 1+rng.Intn(100); id++ {
			c.AddNode(NewNode(id, models[rng.Intn(2)], []int{4, 8}[rng.Intn(2)]))
		}
		checkPristine(t, c, -1)
		running := make(map[*Node][]*task.Task)
		nextID := 0
		for step := 0; step < 400; step++ {
			nodes := c.Nodes()
			n := nodes[rng.Intn(len(nodes))]
			switch rng.Intn(8) {
			case 0, 1:
				nextID++
				typ := task.HP
				if rng.Intn(2) == 0 {
					typ = task.Spot
				}
				tk := newTask(nextID, typ, 1, []float64{0.5, 1, 2, 4}[rng.Intn(4)])
				if n.PlacePod(tk) == nil {
					running[n] = append(running[n], tk)
				}
			case 2:
				if ts := running[n]; len(ts) > 0 {
					i := rng.Intn(len(ts))
					n.ReleaseTask(ts[i])
					running[n] = append(ts[:i], ts[i+1:]...)
				}
			case 3:
				n.RecordEviction(simclock.Time(rng.Int63n(int64(72 * simclock.Hour))))
			case 4:
				for _, tk := range running[n] {
					n.ReleaseTask(tk)
				}
				delete(running, n)
				n.SetDown(true)
			case 5:
				n.SetDown(false)
			case 6:
				n.SetCordoned(rng.Intn(2) == 0)
			case 7:
				if rng.Intn(2) == 0 {
					c.AddPool(Pool{Model: models[rng.Intn(2)], Nodes: 1 + rng.Intn(70), GPUsPerNode: 8})
				} else {
					fresh := NewNode(c.MaxNodeID()+1+rng.Intn(3), "V100", 8)
					if rng.Intn(2) == 0 {
						fresh.SetDown(true)
					}
					c.AddNode(fresh)
				}
			}
			checkPristine(t, c, step)
		}
	}
}

func TestAddNodeRejectsNonAscendingID(t *testing.T) {
	for _, id := range []int{4, 2} {
		c := NewHomogeneous("A100", 5, 8)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("AddNode(%d) after ID 4 did not panic", id)
				}
			}()
			c.AddNode(NewNode(id, "A100", 8))
		}()
		if c.Node(4).Capacity() != 8 || len(c.Nodes()) != 5 {
			t.Fatal("rejected node changed the cluster")
		}
	}
	c := New()
	c.AddNode(NewNode(3, "A100", 8))
	c.AddNode(NewNode(7, "A100", 8))
	if c.MaxNodeID() != 7 {
		t.Fatalf("MaxNodeID = %d, want 7", c.MaxNodeID())
	}
}
