// Package sched defines the scheduling abstractions shared by GFS and
// the baseline schedulers, and the discrete-event cluster simulator
// that drives the paper's trace-based evaluation (§4.4).
package sched

import (
	"math"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

// Decision is a scheduler's proposed placement for one task: the node
// hosting each pod, and the spot victims that must be evicted first.
// By the time Schedule returns, the capacity-level changes are
// already applied to the cluster via the transaction; the driver
// performs the task-lifecycle side effects.
type Decision struct {
	PodNodes []*cluster.Node
	Victims  []*task.Task
	// VictimLocs records, parallel to Victims, the nodes each
	// victim occupied before eviction (for per-node eviction
	// accounting).
	VictimLocs [][]NodePods
}

// Context is the scheduler's view of the world at one scheduling
// attempt.
type Context struct {
	Now   simclock.Time
	Start simclock.Time
	State *State
	// SpotQuota is the current spot quota in GPUs (+Inf when the
	// policy imposes none). The driver enforces admission; it is
	// surfaced for score functions that want it.
	SpotQuota float64
	// G and F are the cluster-wide counts of successful and
	// evicted spot runs (Eq. 19).
	G, F int
}

// ElapsedSeconds returns T, the simulated time elapsed since the
// trace epoch (at least 1 s so cost normalizations stay finite).
func (c *Context) ElapsedSeconds() float64 {
	elapsed := c.Now.Sub(c.Start).Seconds()
	if elapsed <= 0 {
		elapsed = 1
	}
	return elapsed
}

// ElapsedGPUSeconds returns Σ_k S_k·T, the cluster-wide GPU-time.
func (c *Context) ElapsedGPUSeconds() float64 {
	return c.State.Cluster.TotalGPUs("") * c.ElapsedSeconds()
}

// Scheduler places tasks on the cluster.
type Scheduler interface {
	// Name identifies the scheduler in reports.
	Name() string
	// Less orders the pending queue (true = a scheduled first).
	Less(a, b *task.Task) bool
	// Schedule attempts to place tk. On success the returned
	// decision's capacity effects are already applied; on failure
	// the cluster is unchanged and the error explains why.
	Schedule(ctx *Context, tk *task.Task) (*Decision, error)
}

// QuotaContext feeds quota policies at each update tick.
type QuotaContext struct {
	Now     simclock.Time
	Cluster *cluster.Cluster
	// OrgDemand maps organization → hourly HP demand history
	// (GPUs), most recent last.
	OrgDemand map[string][]float64
	// HourIndex is the current hour since the simulation epoch.
	HourIndex int
	// EvictionRate is the spot eviction rate over the policy's
	// window.
	EvictionRate float64
	// MaxSpotQueue is the maximum queuing time among spot tasks
	// observed over the window.
	MaxSpotQueue simclock.Duration
	// SpotGuaranteed approximates S_a: running spot GPUs that keep
	// their guarantee for the policy horizon.
	SpotGuaranteed float64
}

// QuotaPolicy computes the spot quota (in GPUs) at each update tick.
type QuotaPolicy interface {
	Quota(ctx *QuotaContext) float64
}

// EtaReporter is an optional QuotaPolicy extension exposing the
// policy's current safety coefficient η (the Eq. 11 feedback state).
// When the policy implements it, QuotaUpdated events carry the value
// in Event.Eta, so collectors can trace the feedback-loop trajectory.
type EtaReporter interface {
	CurrentEta() float64
}

// AdmissionLimiter is an optional QuotaPolicy extension that bounds
// how many spot GPUs may be admitted per scheduling pass (an
// admission ramp). The first spot admission of a pass always
// proceeds, so single tasks larger than the ramp cannot starve.
type AdmissionLimiter interface {
	MaxAdmitPerPass(capacity float64) float64
}

// UnlimitedQuota imposes no spot quota (the behavior of baselines
// without quota management).
type UnlimitedQuota struct{}

// Quota implements QuotaPolicy.
func (UnlimitedQuota) Quota(*QuotaContext) float64 { return math.Inf(1) }

// StaticQuota reserves a fixed fraction of cluster capacity for spot
// tasks — the pre-GFS production configuration (Fig. 1).
type StaticQuota struct {
	// Fraction of total GPUs available to spot tasks.
	Fraction float64
}

// Quota implements QuotaPolicy.
func (s StaticQuota) Quota(ctx *QuotaContext) float64 {
	return s.Fraction * ctx.Cluster.TotalGPUs("")
}
