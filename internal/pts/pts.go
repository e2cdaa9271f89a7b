// Package pts implements GFS's Preemptive Task Scheduler (§3.4): the
// non-preemptive path with its three scoring criteria — GPU packing
// (Eq. 13), homogeneous co-location (Eq. 14) and eviction awareness
// with a circuit breaker (Eqs. 15–16) — and the preemptive path with
// waste-aware victim selection (Eq. 17, Alg. 2) and minimum-cost node
// choice (Eq. 19).
package pts

import (
	"errors"
	"math"
	"sort"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

// ErrUnschedulable is returned when no placement exists.
var ErrUnschedulable = errors.New("pts: no feasible placement")

// Config holds the PTS parameters (Table 4).
type Config struct {
	// Gamma balances short- vs long-term eviction history (Eq. 15).
	Gamma float64
	// ShortWindow and LongWindow are the eviction history horizons
	// (1 h and 24 h in production).
	ShortWindow, LongWindow simclock.Duration
	// PenaltyM is the eviction penalty intensity m (Eq. 16).
	PenaltyM float64
	// Beta weights the usage-impact term of the preemption cost
	// (Eq. 19).
	Beta float64
	// BreakerDuration is how long a node stays blacklisted for
	// spot placements after its spot Score3 reaches 0.
	BreakerDuration simclock.Duration
	// DisableCoLocation and DisableEvictionAware support the GFS-s
	// ablation (packing only).
	DisableCoLocation    bool
	DisableEvictionAware bool
	// RandomPreemption replaces waste-aware victim selection with
	// arbitrary choice (GFS-p ablation).
	RandomPreemption bool
	// CoLocationFirst promotes the co-location criterion (Eq. 14)
	// above packing in the lexicographic node order, hardening the
	// HP/spot class segregation.
	CoLocationFirst bool
}

// DefaultConfig returns Table 4's settings.
func DefaultConfig() Config {
	return Config{
		Gamma:           0.8,
		ShortWindow:     simclock.Hour,
		LongWindow:      24 * simclock.Hour,
		PenaltyM:        3,
		Beta:            0.5,
		BreakerDuration: simclock.Hour,
	}
}

// Scheduler is the PTS implementation of sched.Scheduler.
type Scheduler struct {
	cfg       Config
	blacklist map[int]simclock.Time // node ID → blacklisted until

	// scoreCache memoizes the occupancy-derived criteria (Eqs. 13–14)
	// per node, keyed on the node's occupancy version: a scheduling
	// pass re-scores only the nodes whose free capacity changed since
	// the last look (its dirty set) instead of recomputing every node
	// for every pod. Indexed by node ID; grown on demand.
	scoreCache []cachedScore
}

// cachedScore holds a node's packing score (Eq. 13) and both class
// variants of the co-location score (Eq. 14). version stores the
// node's occupancy version plus one, so the zero value always reads
// as stale.
type cachedScore struct {
	version    uint64
	s1         float64
	s2HP, s2SP float64
}

// New creates a PTS scheduler.
func New(cfg Config) *Scheduler {
	return &Scheduler{cfg: cfg, blacklist: make(map[int]simclock.Time)}
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "GFS" }

// Less implements the queue order of §3.4.2: HP before spot, then
// larger GPU requests, more pods, earlier submissions.
func (s *Scheduler) Less(a, b *task.Task) bool {
	if a.Type != b.Type {
		return a.Type == task.HP
	}
	if a.TotalGPUs() != b.TotalGPUs() {
		return a.TotalGPUs() > b.TotalGPUs()
	}
	if a.Pods != b.Pods {
		return a.Pods > b.Pods
	}
	return a.Submit < b.Submit
}

// Schedule implements Algorithm 3: non-preemptive first; for HP tasks
// that fail, preemptive scheduling.
func (s *Scheduler) Schedule(ctx *sched.Context, tk *task.Task) (*sched.Decision, error) {
	if dec, err := s.nonPreemptive(ctx, tk); err == nil {
		return dec, nil
	}
	if tk.Type == task.HP {
		return s.preemptive(ctx, tk)
	}
	return nil, ErrUnschedulable
}

// scores evaluates the three criteria for a node. The occupancy
// criteria (Eqs. 13–14) are pure functions of the node's allocation
// state, served from the version-keyed cache when the node is clean;
// eviction awareness (Eq. 16) depends on the clock and is always
// evaluated fresh.
func (s *Scheduler) scores(ctx *sched.Context, n *cluster.Node, tk *task.Task) (s1, s2, s3 float64) {
	for n.ID >= len(s.scoreCache) {
		s.scoreCache = append(s.scoreCache, cachedScore{})
	}
	c := &s.scoreCache[n.ID]
	if c.version != n.Version()+1 {
		total := float64(n.Capacity())
		// Criterion 1 (Eq. 13): prefer packed nodes.
		c.s1 = 1 - n.IdleGPUs()/total
		// Criterion 2 (Eq. 14): homogeneous co-location.
		c.s2HP = n.HPGPUs() / total
		c.s2SP = n.SpotGPUs() / total
		c.version = n.Version() + 1
	}
	s1 = c.s1
	if !s.cfg.DisableCoLocation {
		if tk.Type == task.HP {
			s2 = c.s2HP
		} else {
			s2 = c.s2SP
		}
	}
	// Criterion 3 (Eq. 16): eviction awareness with asymmetric
	// penalties.
	if !s.cfg.DisableEvictionAware {
		e := n.WeightedEvictionRate(ctx.Now, s.cfg.Gamma, s.cfg.ShortWindow, s.cfg.LongWindow)
		p := 0.01 * s.cfg.PenaltyM * e
		if tk.Type == task.HP {
			s3 = math.Min(p, 1)
		} else {
			s3 = math.Max(1-p, 0)
		}
	} else {
		s3 = 0.5
	}
	return s1, s2, s3
}

// spotBlocked reports whether the circuit breaker blacklists n for
// spot placement at now.
func (s *Scheduler) spotBlocked(n *cluster.Node, now simclock.Time) bool {
	until, ok := s.blacklist[n.ID]
	return ok && now < until
}

// tripBreaker blacklists a node whose spot Score3 collapsed to 0.
func (s *Scheduler) tripBreaker(n *cluster.Node, now simclock.Time) {
	s.blacklist[n.ID] = now.Add(s.cfg.BreakerDuration)
}

type scored struct {
	node       *cluster.Node
	s1, s2, s3 float64
}

// nonPreemptive implements Algorithm 1.
func (s *Scheduler) nonPreemptive(ctx *sched.Context, tk *task.Task) (*sched.Decision, error) {
	txn := ctx.State.Begin()
	for pod := 0; pod < tk.Pods; pod++ {
		best := s.bestNode(ctx, tk)
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

// bestNode filters and scores candidates for one pod, keeping the
// single maximum of the lexicographic (score1, score2, score3,
// lowest-ID) order in one pass. The comparator is exactly the one the
// former sort used, and node-ID tie-breaking makes it a total order,
// so the argmax equals the sorted head.
func (s *Scheduler) bestNode(ctx *sched.Context, tk *task.Task) *cluster.Node {
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

// scoredBetter reports whether a precedes b in the node preference
// order.
func scoredBetter(a, b *scored, colocFirst bool) bool {
	first, second := a.s1, a.s2
	firstB, secondB := b.s1, b.s2
	if colocFirst {
		first, second = a.s2, a.s1
		firstB, secondB = b.s2, b.s1
	}
	if first != firstB {
		return first > firstB
	}
	if second != secondB {
		return second > secondB
	}
	if a.s3 != b.s3 {
		return a.s3 > b.s3
	}
	return a.node.ID < b.node.ID
}

// preemptive implements Algorithm 2: per pod, evaluate every node's
// minimal victim set (descending-waste trimming) and pick the node
// with the lowest preemption cost (Eq. 19).
func (s *Scheduler) preemptive(ctx *sched.Context, tk *task.Task) (*sched.Decision, error) {
	txn := ctx.State.Begin()
	evicted := 0
	for pod := 0; pod < tk.Pods; pod++ {
		node, victims := s.bestPreemption(ctx, tk, evicted)
		if node == nil {
			txn.Rollback()
			return nil, ErrUnschedulable
		}
		for _, v := range victims {
			txn.Evict(v)
			evicted++
		}
		if err := txn.Place(node, tk); err != nil {
			txn.Rollback()
			return nil, ErrUnschedulable
		}
	}
	return txn.Commit(), nil
}

// need returns the whole-card requirement of one pod.
func podNeed(tk *task.Task) int {
	if tk.GPUsPerPod < 1 {
		return 1
	}
	return int(tk.GPUsPerPod)
}

// preemptCand is one node's preemption proposal: its trimmed victim
// set and Eq. 19 cost (ignored under the RandomPreemption ablation).
type preemptCand struct {
	node    *cluster.Node
	victims []*task.Task
	cost    float64
}

// bestPreemption evaluates candidate nodes for one pod and returns
// the minimum-cost node with its trimmed victim set (Alg. 2). Ties on
// cost go to the lowest node ID. evictedSoFar feeds the |T_k| term so
// multi-pod placements account for earlier victims.
func (s *Scheduler) bestPreemption(ctx *sched.Context, tk *task.Task, evictedSoFar int) (*cluster.Node, []*task.Task) {
	need := podNeed(tk)
	elapsed := ctx.ElapsedSeconds()
	cand := preemptCand{cost: math.Inf(1)}
	for _, n := range ctx.State.Cluster.NodesOfModel(tk.GPUModel) {
		victims := s.victimSet(ctx, n, need)
		if victims == nil {
			continue
		}
		if s.cfg.RandomPreemption {
			// GFS-p ablation: arbitrary node choice — take the
			// first feasible node without costing it.
			return n, victims
		}
		// Eq. 18's usage impact normalizes by S_k·T, "the total
		// execution time of GPUs in node n_k": per-node capacity
		// times elapsed time. A cluster-wide denominator would
		// shrink the waste term to noise and let the victim-count
		// term steer preemption onto huge gang tasks.
		gpuSeconds := float64(n.Capacity()) * elapsed
		cost := preemptionCost(ctx.G, ctx.F+evictedSoFar, victims, s.cfg.Beta, gpuSeconds, ctx.Now)
		if cost < cand.cost || (cost == cand.cost && cand.node != nil && n.ID < cand.node.ID) {
			cand = preemptCand{node: n, victims: victims, cost: cost}
		}
	}
	return cand.node, cand.victims
}

// victimSet returns the minimal victim set on n freeing need whole
// cards, or nil when even evicting every spot task is insufficient.
// Victims are trimmed in descending waste order (Alg. 2 lines 8–11)
// so high-waste tasks survive preemption when possible.
func (s *Scheduler) victimSet(ctx *sched.Context, n *cluster.Node, need int) []*task.Task {
	spot := n.SpotTasks()
	if len(spot) == 0 {
		if n.WholeFreeGPUs() >= need {
			return []*task.Task{}
		}
		return nil
	}
	all := make(map[int]bool, len(spot))
	for _, v := range spot {
		all[v.ID] = true
	}
	if n.WholeFreeGPUsExcluding(all) < need {
		return nil
	}
	if s.cfg.RandomPreemption {
		// GFS-p ablation: accumulate victims in arbitrary (ID)
		// order until the requirement is met, waste-blind.
		victimSet := make(map[int]bool)
		var out []*task.Task
		for _, v := range spot {
			victimSet[v.ID] = true
			out = append(out, v)
			if n.WholeFreeGPUsExcluding(victimSet) >= need {
				return out
			}
		}
		return out
	}
	// Waste-aware trim (Alg. 2): spare the highest-waste victims
	// first.
	order := append([]*task.Task(nil), spot...)
	sort.Slice(order, func(i, j int) bool {
		wi, wj := order[i].Waste(ctx.Now), order[j].Waste(ctx.Now)
		if wi != wj {
			return wi > wj
		}
		return order[i].ID < order[j].ID
	})
	for _, v := range order {
		all[v.ID] = false
		if n.WholeFreeGPUsExcluding(all) < need {
			all[v.ID] = true
		}
	}
	var out []*task.Task
	for _, v := range spot {
		if all[v.ID] {
			out = append(out, v)
		}
	}
	return out
}

// preemptionCost implements the simplified Eq. (19):
//
//	cost(n) = (F+|T|)/(G+F+|T|) + β·Σϑ/(Σ S·T)
func preemptionCost(g, f int, victims []*task.Task, beta, gpuSeconds float64, now simclock.Time) float64 {
	t := float64(len(victims))
	denom := float64(g+f) + t
	evictTerm := 0.0
	if denom > 0 {
		evictTerm = (float64(f) + t) / denom
	}
	wasteSum := 0.0
	for _, v := range victims {
		wasteSum += v.Waste(now)
	}
	return evictTerm + beta*wasteSum/gpuSeconds
}
