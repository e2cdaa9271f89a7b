// Package baselines implements the four comparison schedulers of
// §4.1 — YARN-CS, Chronus, Lyra and FGD — plus the static-quota
// first-fit scheduler that models the pre-GFS production
// configuration (Figs. 1, 5, 9). Each adapts its published policy to
// the shared sched.Scheduler interface at the fidelity the paper's
// own re-implementations use.
package baselines

import (
	"errors"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/task"
)

// ErrUnschedulable is returned when no placement exists.
var ErrUnschedulable = errors.New("baselines: no feasible placement")

// fcfsLess is the shared HP-first, then-FCFS queue order.
func fcfsLess(a, b *task.Task) bool {
	if a.Type != b.Type {
		return a.Type == task.HP
	}
	if a.Submit != b.Submit {
		return a.Submit < b.Submit
	}
	return a.ID < b.ID
}

// placeBy places all pods of tk, choosing each pod's node by the
// given score (lower is better) among nodes that fit. It returns the
// committed decision or rolls back.
func placeBy(ctx *sched.Context, tk *task.Task, score func(n *cluster.Node) float64) (*sched.Decision, error) {
	return placeByFiltered(ctx, tk, nil, score)
}

// bestScored picks one pod's node: the score argmin over fitting
// candidates (ok == nil admits all), ties going to the lowest node
// ID.
func bestScored(tk *task.Task, nodes []*cluster.Node, ok func(*cluster.Node) bool, score func(*cluster.Node) float64) *cluster.Node {
	var best *cluster.Node
	bestScore := 0.0
	for _, n := range nodes {
		if (ok != nil && !ok(n)) || !n.CanFitPod(tk) {
			continue
		}
		s := score(n)
		if best == nil || s < bestScore || (s == bestScore && n.ID < best.ID) {
			best, bestScore = n, s
		}
	}
	return best
}

// podNeed is the whole-card requirement of one pod.
func podNeed(tk *task.Task) int {
	if tk.GPUsPerPod < 1 {
		return 1
	}
	return int(tk.GPUsPerPod)
}

// preemptBy evicts spot tasks to make room for every pod of the HP
// task tk. For each pod it scans nodes, asks victimsFor for the
// eviction plan (nil = node infeasible), scores plans with planCost
// (lower better), applies the best, and places the pod.
func preemptBy(
	ctx *sched.Context, tk *task.Task,
	victimsFor func(n *cluster.Node, need int) []*task.Task,
	planCost func(n *cluster.Node, victims []*task.Task) float64,
) (*sched.Decision, error) {
	txn := ctx.State.Begin()
	need := podNeed(tk)
	nodes := ctx.State.Cluster.NodesOfModel(tk.GPUModel)
	for pod := 0; pod < tk.Pods; pod++ {
		best := bestPlan(nodes, need, victimsFor, planCost)
		if best.node == nil {
			txn.Rollback()
			return nil, ErrUnschedulable
		}
		for _, v := range best.victims {
			txn.Evict(v)
		}
		if err := txn.Place(best.node, tk); err != nil {
			txn.Rollback()
			return nil, ErrUnschedulable
		}
	}
	return txn.Commit(), nil
}

// planCand is one node's eviction plan and its cost.
type planCand struct {
	node    *cluster.Node
	victims []*task.Task
	cost    float64
}

// bestPlan picks one pod's cheapest eviction plan, ties going to the
// lowest node ID.
func bestPlan(nodes []*cluster.Node, need int, victimsFor func(n *cluster.Node, need int) []*task.Task, planCost func(n *cluster.Node, victims []*task.Task) float64) planCand {
	var best planCand
	for _, n := range nodes {
		victims := victimsFor(n, need)
		if victims == nil {
			continue
		}
		c := planCost(n, victims)
		if best.node == nil || c < best.cost || (c == best.cost && n.ID < best.node.ID) {
			best = planCand{node: n, victims: victims, cost: c}
		}
	}
	return best
}

// minimalVictims returns the smallest prefix (in the given order) of
// the node's spot tasks whose eviction frees need cards, or nil when
// infeasible. When the node already fits without evictions it returns
// an empty, non-nil slice.
func minimalVictims(n *cluster.Node, need int, order []*task.Task) []*task.Task {
	if n.WholeFreeGPUs() >= need {
		return []*task.Task{}
	}
	victimSet := make(map[int]bool)
	var victims []*task.Task
	for _, v := range order {
		victimSet[v.ID] = true
		victims = append(victims, v)
		if n.WholeFreeGPUsExcluding(victimSet) >= need {
			return victims
		}
	}
	return nil
}
