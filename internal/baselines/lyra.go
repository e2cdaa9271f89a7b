package baselines

import (
	"sort"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/task"
)

// Lyra models the elastic inference/training scheduler of Li et al.
// (EuroSys '23) as the paper adapts it: HP tasks map to inference,
// spot tasks to training. Lyra lends a bounded pool of nodes to
// training; spot tasks run only there, which keeps evictions rare but
// leaves spot queuing long whenever the loan pool saturates (the
// paper observes exactly this trade-off: e = 1.78% but high JQT). HP
// reclaims loaned nodes only as a last resort, displacing as few
// training tasks as possible.
type Lyra struct {
	// LoanFraction is the share of nodes (highest IDs) lendable to
	// spot tasks.
	LoanFraction float64
}

// NewLyra creates the scheduler with the default 25% loan pool.
func NewLyra() *Lyra { return &Lyra{LoanFraction: 0.25} }

// Name implements sched.Scheduler.
func (*Lyra) Name() string { return "Lyra" }

// Less implements sched.Scheduler.
func (*Lyra) Less(a, b *task.Task) bool { return fcfsLess(a, b) }

// loanable reports whether n belongs to the loan pool of the cluster.
func (l *Lyra) loanable(cl *cluster.Cluster, n *cluster.Node) bool {
	nodes := cl.NodesOfModel(n.Model)
	loanStart := int(float64(len(nodes)) * (1 - l.LoanFraction))
	for i, m := range nodes {
		if m == n {
			return i >= loanStart
		}
	}
	return false
}

// Schedule implements sched.Scheduler.
func (l *Lyra) Schedule(ctx *sched.Context, tk *task.Task) (*sched.Decision, error) {
	cl := ctx.State.Cluster
	if tk.Type == task.Spot {
		// Training runs only on the loan pool, packed tight.
		return placeByFiltered(ctx, tk,
			func(n *cluster.Node) bool { return l.loanable(cl, n) },
			func(n *cluster.Node) float64 { return n.IdleGPUs() })
	}
	// Inference prefers the reserved pool (best fit); it spills into
	// idle loan-pool capacity before preempting anyone.
	dec, err := placeBy(ctx, tk, func(n *cluster.Node) float64 {
		score := n.IdleGPUs()
		if l.loanable(cl, n) {
			score += 1000
		}
		return score
	})
	if err == nil {
		return dec, nil
	}
	// Reclaim: minimize displaced training tasks.
	return preemptBy(ctx, tk,
		func(n *cluster.Node, need int) []*task.Task {
			order := n.SpotTasks()
			sort.Slice(order, func(i, j int) bool {
				pi, pj := n.PodsOf(order[i].ID), n.PodsOf(order[j].ID)
				if pi != pj {
					return pi > pj // biggest holdings free cards fastest
				}
				return order[i].ID < order[j].ID
			})
			return minimalVictims(n, need, order)
		},
		func(n *cluster.Node, victims []*task.Task) float64 {
			return float64(len(victims))
		},
	)
}

// placeByFiltered is placeBy restricted to nodes passing the filter
// (nil admits all).
func placeByFiltered(ctx *sched.Context, tk *task.Task, ok func(*cluster.Node) bool, score func(*cluster.Node) float64) (*sched.Decision, error) {
	txn := ctx.State.Begin()
	nodes := ctx.State.Cluster.NodesOfModel(tk.GPUModel)
	for pod := 0; pod < tk.Pods; pod++ {
		best := bestScored(tk, nodes, ok, score)
		if best == nil {
			txn.Rollback()
			return nil, ErrUnschedulable
		}
		if err := txn.Place(best, tk); err != nil {
			txn.Rollback()
			return nil, ErrUnschedulable
		}
	}
	return txn.Commit(), nil
}
