package sched

import (
	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/simclock"
)

// AutoscaleContext is the read-only view handed to an Autoscaler at
// each quota tick, after the demand sample and quota update for that
// tick have landed. Implementations must not mutate the cluster; all
// capacity changes go through the returned AutoscalePlan so they land
// on the simulator's event path in deterministic order.
type AutoscaleContext struct {
	// Now is the simulated time of the tick.
	Now simclock.Time
	// Cluster is the live cluster; read-only for the autoscaler.
	Cluster *cluster.Cluster
	// OrgDemand is the per-organization hourly HP demand history the
	// quota policy sees — the same series the GDE forecaster trains
	// on, so predictive policies forecast from identical inputs.
	OrgDemand map[string][]float64
	// HourIndex is the hour-of-trace index of Now.
	HourIndex int
	// PendingGPUs is the GPU demand of guaranteed (HP) tasks waiting
	// in the scheduling queue at this tick. Queued spot work is
	// excluded: spot is opportunistic and harvests headroom, so it
	// must not drive capacity purchases.
	PendingGPUs float64
}

// Provision asks the simulator to deliver one pool of fresh nodes
// after a pre-warm lead time. The pool's Tier is stamped on every
// delivered node so collectors can price the capacity.
type Provision struct {
	// Pool describes the nodes to add (model, count, GPUs per node,
	// tier).
	Pool cluster.Pool
	// Lead is the pre-warm delay before the nodes become
	// schedulable; negative leads are clamped to zero.
	Lead simclock.Duration
}

// AutoscalePlan is an Autoscaler's decision for one tick: pools to
// provision and node IDs to retire. Retirement drains rather than
// kills: the node is cordoned immediately, its spot tasks are evicted
// with the drain cause, and it leaves capacity once its last HP pod
// completes.
type AutoscalePlan struct {
	// Provisions lists pools to deliver after their leads.
	Provisions []Provision
	// Retire lists node IDs to begin retiring, applied in order.
	Retire []int
}

// Autoscaler decides capacity changes at each quota tick. Plan is
// called synchronously from the event loop with the tick's context;
// implementations may keep internal state (idle timers, forecast
// caches) but must be deterministic in the sequence of contexts they
// see.
type Autoscaler interface {
	Plan(ctx *AutoscaleContext) AutoscalePlan
}
