package sched

import (
	"context"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/stats"
	"github.com/sjtucitlab/gfs/internal/task"
)

// SimConfig configures one simulation run.
type SimConfig struct {
	Cluster   *cluster.Cluster
	Scheduler Scheduler
	// Quota is the spot quota policy; nil means unlimited.
	Quota QuotaPolicy
	// QuotaInterval is the quota update period (Table 4: 300 s).
	QuotaInterval simclock.Duration
	// QuotaWindow is the lookback for the eviction rate fed to the
	// quota policy (defaults to 1 h).
	QuotaWindow simclock.Duration
	// Grace is the preemption grace period (30 s in production).
	Grace simclock.Duration
	// MaxFailuresPerPass bounds wasted work scanning a long
	// pending queue; once this many placement attempts fail in one
	// pass, the rest wait for the next event.
	MaxFailuresPerPass int
	// IdleTimeout stops the simulation when nothing has progressed
	// for this long (defaults to 48 h) so permanently unplaceable
	// tasks cannot hang the run.
	IdleTimeout simclock.Duration
	// InitialOrgDemand seeds the per-organization demand history
	// fed to the quota policy, avoiding a forecast cold start. Each
	// series is hourly demand ending at the simulation epoch.
	InitialOrgDemand map[string][]float64
	// Observers receive the typed event stream. With none
	// registered the simulator pays no emission cost.
	Observers []Observer
	// Scenario lists timed cluster mutations (node failure/restore,
	// drain, scale-out, spot reclamation) injected into the event
	// queue mid-run. Actions sharing a timestamp apply in order.
	Scenario []ScenarioAction
	// Autoscaler, when non-nil, is consulted at every quota tick
	// (after the demand sample and quota update): it may provision
	// new pools — delivered after a pre-warm lead through the same
	// event path scenario actions use — and retire nodes, which drain
	// rather than strand (cordon + spot eviction, capacity leaves
	// when the last HP pod completes).
	Autoscaler Autoscaler
	// EvictionInterceptor, when non-nil, is consulted after a
	// capacity-loss eviction (node failure, drain, spot reclamation —
	// never scheduler preemption) before the victim is requeued
	// locally. Returning true claims the task: the simulator forgets
	// it and the caller becomes responsible for its future, typically
	// by injecting it into a sibling cluster (see RunFederation).
	EvictionInterceptor func(tk *task.Task, cause EvictCause) bool
}

// DefaultSimConfig fills in the paper's settings for a given cluster
// and scheduler.
func DefaultSimConfig(cl *cluster.Cluster, s Scheduler) SimConfig {
	return SimConfig{
		Cluster:            cl,
		Scheduler:          s,
		QuotaInterval:      300 * simclock.Second,
		QuotaWindow:        simclock.Hour,
		Grace:              30 * simclock.Second,
		MaxFailuresPerPass: 25,
		IdleTimeout:        48 * simclock.Hour,
	}
}

// Victim describes an evicted spot task and where its pods were.
type Victim struct {
	Task *task.Task
	Locs []NodePods
}

// Result summarizes one simulation run.
type Result struct {
	SchedulerName string
	Tasks         []*task.Task
	HP, Spot      stats.TaskMetrics
	// AllocationRate is the time-averaged GPU allocation rate.
	AllocationRate float64
	// Samples traces the allocation rate over time.
	Samples []stats.AllocationSample
	// WastedGPUSeconds accumulates Eq. 17 waste over all
	// evictions.
	WastedGPUSeconds float64
	// UnfinishedHP and UnfinishedSpot count tasks never completed.
	UnfinishedHP, UnfinishedSpot int
	// End is the simulated time of the last event.
	End simclock.Time
	// FinalQuota is the spot quota at simulation end.
	FinalQuota float64
}

// RuntimeInflater is an optional scheduler extension that adds
// runtime overhead to a placement (lease switching in Chronus).
type RuntimeInflater interface {
	InflateRuntime(tk *task.Task) simclock.Duration
}

// Event payloads. Arrivals ride as a bare *task.Task (no wrapper, so
// pushing one allocates nothing); finishes as pooled *finishEvent
// records recycled after delivery; ticks as a zero-size marker whose
// boxing is allocation-free.
type finishEvent struct {
	tk    *task.Task
	epoch int
}

type tickEvent struct{}

type scenarioEvent struct{ action ScenarioAction }

// provisionEvent delivers one autoscaler-ordered pool after its
// pre-warm lead. It rides the normal event class, exactly like
// scenario actions.
type provisionEvent struct{ pool cluster.Pool }

// Simulator is the discrete-event driver. Run drives it to
// completion in one call; NewSimulator/Step/Finish expose the same
// loop incrementally so several simulators can advance in lockstep on
// a shared clock (see RunFederation).
type Simulator struct {
	cfg     SimConfig
	queue   simclock.Queue
	state   *State
	pending []*task.Task
	epochs  map[int]int
	now     simclock.Time

	spotQuota    float64
	gCount       int
	fCount       int
	waste        float64
	evWindow     *stats.EvictionWindow
	alloc        *stats.AllocationTracker
	tasks        []*task.Task
	orgDemand    map[string][]float64
	hourSamples  int
	lastHour     int
	lastProgress simclock.Time
	recentQueues []queueObs
	running      int

	// hasObs caches len(cfg.Observers) > 0 so the hot loop skips
	// event construction entirely when nobody listens.
	hasObs   bool
	eventSeq uint64
	// etaRep is the quota policy's EtaReporter view, cached at
	// construction so QuotaUpdated events can carry η without a type
	// assertion per tick.
	etaRep EtaReporter

	// tickOn tracks whether a quota tick is pending in the queue, and
	// quotaInit whether the initial quota update ran; both matter only
	// for simulators fed via Inject, whose first task can arrive long
	// after construction (or after the tick chain went idle).
	tickOn    bool
	quotaInit bool
	// retiring holds autoscaler-retired nodes still hosting HP pods;
	// each leaves capacity (SetDown) when its last pod completes.
	retiring map[int]*cluster.Node
	// known and migrated are Inject/interceptor bookkeeping, nil (and
	// cost-free) for plain Run simulations: known dedupes re-injected
	// tasks, migrated marks tasks claimed by the interceptor so they
	// no longer count toward this simulator's demand or results.
	known    map[int]bool
	migrated map[int]bool

	// finishFree recycles finishEvent records: one is allocated per
	// concurrent running task at steady state, then reused for the
	// rest of the run.
	finishFree []*finishEvent

	// hpLive is the demand-sampling view: the HP tasks of s.tasks,
	// in s.tasks order, with finished tasks compacted away. Keeping
	// the original order matters — per-org demand accumulates in
	// iteration order, and floating-point addition is not
	// associative, so any reordering could drift the quota signal.
	// hpLiveStale forces a rebuild from s.tasks (set by Inject,
	// whose re-injections can resurrect tasks already compacted).
	hpLive      []*task.Task
	hpLiveStale bool
	// hpOrg holds each hpLive task's org slot, so the per-tick demand
	// accumulation indexes a flat array instead of hashing org strings.
	// Slots are assigned per distinct org name in order of first
	// appearance: orgNames/hourAccum/hourTouched are parallel arrays,
	// orgSlots the name → slot index. The per-org sequence of
	// floating-point adds is unchanged from the map it replaces, so
	// the hourly averages are bit-identical.
	hpOrg       []int
	orgSlots    map[string]int
	orgNames    []string
	hourAccum   []float64
	hourTouched []bool
	// orgScratch is the reused sorted-key buffer for the hourly
	// orgDemand walk, keeping the hot loop allocation-free and off
	// map iteration order.
	orgScratch []string
	// hpSorted records whether hpLive is nondecreasing in Submit (true
	// for generated traces; mid-run injection can break it), and
	// hpFrontier is then the count of leading tasks with Submit ≤ now.
	// Tasks beyond the frontier have not arrived, cannot be running or
	// finished, and contribute nothing to demand, so each tick walks
	// only the arrived prefix instead of the whole trace tail.
	hpSorted   bool
	hpFrontier int

	// failedShapes is the scheduling pass's failed-shape set, reused
	// across passes. Passes see few distinct failed shapes (bounded
	// by MaxFailuresPerPass), so a linear scan beats a fresh map.
	failedShapes []taskShape
}

// newFinishEvent takes a finish record from the pool (or allocates
// one). Records return to the pool in handle, immediately after the
// queue delivers them.
func (s *Simulator) newFinishEvent(tk *task.Task, epoch int) *finishEvent {
	if n := len(s.finishFree); n > 0 {
		e := s.finishFree[n-1]
		s.finishFree = s.finishFree[:n-1]
		e.tk, e.epoch = tk, epoch
		return e
	}
	return &finishEvent{tk: tk, epoch: epoch}
}

type queueObs struct {
	at  simclock.Time
	dur simclock.Duration
}

// taskShape keys placement-feasibility: two pending tasks with the
// same shape either both fit or both fail against the same cluster
// state.
type taskShape struct {
	typ        task.Type
	pods       int
	gpusPerPod float64
	model      string
}

func shapeOfTask(tk *task.Task) taskShape {
	return taskShape{typ: tk.Type, pods: tk.Pods, gpusPerPod: tk.GPUsPerPod, model: tk.GPUModel}
}

// shapeFailed reports whether shape already failed this pass.
func (s *Simulator) shapeFailed(shape taskShape) bool {
	for i := range s.failedShapes {
		if s.failedShapes[i] == shape {
			return true
		}
	}
	return false
}

// Run executes the simulation over the given trace and returns the
// metrics. It is RunContext with a background context (which can
// never cancel, so no error surfaces).
func Run(cfg SimConfig, tasks []*task.Task) *Result {
	res, _ := RunContext(context.Background(), cfg, tasks)
	return res
}

// NewSimulator builds a simulator over the trace without running it.
// Drive it with Step until it returns false (or interleave Step with
// Inject), then collect metrics with Finish.
func NewSimulator(cfg SimConfig, tasks []*task.Task) *Simulator {
	if cfg.QuotaInterval <= 0 {
		cfg.QuotaInterval = 300 * simclock.Second
	}
	if cfg.QuotaWindow <= 0 {
		cfg.QuotaWindow = simclock.Hour
	}
	if cfg.MaxFailuresPerPass <= 0 {
		cfg.MaxFailuresPerPass = 25
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 48 * simclock.Hour
	}
	s := &Simulator{
		cfg:       cfg,
		state:     NewState(cfg.Cluster),
		epochs:    make(map[int]int),
		spotQuota: math.Inf(1),
		evWindow:  stats.NewEvictionWindow(cfg.QuotaWindow),
		alloc:     stats.NewAllocationTracker(cfg.Cluster.TotalGPUs("")),
		tasks:     tasks,
		orgDemand: make(map[string][]float64),
		orgSlots:  make(map[string]int),
		lastHour:  -1,
		// Built lazily on the first demand tick.
		hpLiveStale: true,
	}
	initOrgs := make([]string, 0, len(cfg.InitialOrgDemand))
	for org := range cfg.InitialOrgDemand {
		initOrgs = append(initOrgs, org)
	}
	sort.Strings(initOrgs)
	for _, org := range initOrgs {
		s.orgDemand[org] = append([]float64(nil), cfg.InitialOrgDemand[org]...)
	}
	s.hasObs = len(cfg.Observers) > 0
	if er, ok := cfg.Quota.(EtaReporter); ok {
		s.etaRep = er
	}
	// Arrivals use the queue's front class so a mutation at time t
	// always applies after arrivals at t — even for arrivals Injected
	// mid-run by a federation router or the streaming replay loop,
	// which therefore tie-break exactly like a preloaded trace.
	for _, tk := range tasks {
		s.queue.PushFront(tk.Submit, tk)
	}
	// Scenario actions join the same queue in the normal class.
	// Against finish events the tie-break goes the other way:
	// finishes are pushed mid-run with higher sequence numbers, so a
	// node failure at the exact instant a hosted task would complete
	// kills the task first (failure wins ties, as it would on real
	// hardware).
	actions := SortActions(append([]ScenarioAction(nil), cfg.Scenario...))
	for _, a := range actions {
		s.queue.Push(a.At, scenarioEvent{action: a})
	}
	if len(tasks) > 0 {
		s.now = tasks[0].Submit
		s.updateQuota() // initial quota before the first pass
		s.quotaInit = true
		s.queue.Push(tasks[0].Submit.Add(cfg.QuotaInterval), tickEvent{})
		s.tickOn = true
	}
	return s
}

// PeekTime returns the timestamp of the next pending event, or false
// when the simulation has run dry. It is how a federated loop decides
// which member advances next.
func (s *Simulator) PeekTime() (simclock.Time, bool) {
	ev, ok := s.queue.Peek()
	if !ok {
		return 0, false
	}
	return ev.At, true
}

// Now returns the simulator's current time (the timestamp of the last
// processed event).
func (s *Simulator) Now() simclock.Time { return s.now }

// PendingTasks returns the number of tasks waiting in the scheduling
// queue.
func (s *Simulator) PendingTasks() int { return len(s.pending) }

// Step processes the next timestamp bundle — every event sharing the
// earliest pending timestamp, followed by at most one scheduling pass
// — and reports whether any event was processed.
func (s *Simulator) Step() bool {
	ev, ok := s.queue.Pop()
	if !ok {
		return false
	}
	s.now = ev.At
	scheduleNeeded := s.handle(ev)
	// Drain events sharing this timestamp before scheduling.
	for {
		next, ok := s.queue.Peek()
		if !ok || next.At != s.now {
			break
		}
		ev, _ = s.queue.Pop()
		if s.handle(ev) {
			scheduleNeeded = true
		}
	}
	if scheduleNeeded {
		s.schedulePass()
	}
	return true
}

// Inject adds a task to the simulation mid-run, arriving at time at
// (which must not precede the simulator's current time). It is the
// entry point for federation routing and migration: member simulators
// start with empty traces and receive their tasks as the shared clock
// reaches each submission. Re-injecting a task that previously
// migrated away returns it to this simulator's books.
func (s *Simulator) Inject(tk *task.Task, at simclock.Time) {
	if s.known == nil {
		s.known = make(map[int]bool, len(s.tasks))
		for _, t := range s.tasks {
			s.known[t.ID] = true
		}
	}
	if !s.known[tk.ID] {
		s.known[tk.ID] = true
		s.tasks = append(s.tasks, tk)
	}
	delete(s.migrated, tk.ID)
	if tk.Type == task.HP {
		// The task may have been compacted out of the demand view
		// after migrating away; rebuild it from s.tasks.
		s.hpLiveStale = true
	}
	s.queue.PushFront(at, tk)
	if !s.quotaInit {
		// First task ever seen: establish the initial quota before
		// the first pass, as Run does for pre-loaded traces.
		s.now = at
		s.updateQuota()
		s.quotaInit = true
	}
	if !s.tickOn {
		s.queue.Push(at.Add(s.cfg.QuotaInterval), tickEvent{})
		s.tickOn = true
	}
}

// Finish closes the books — observing the final allocation sample —
// and returns the run's metrics. Call it exactly once, after Step
// returns false.
func (s *Simulator) Finish() *Result {
	s.sampleAlloc()
	return s.result()
}

// sampleAlloc observes the cluster's current allocation on the
// internal tracker and mirrors the observation onto the event spine
// (AllocSampled), so collectors see exactly the trajectory the
// tracker integrates.
func (s *Simulator) sampleAlloc() {
	used := s.state.Cluster.UsedGPUs("")
	s.alloc.Observe(s.now, used)
	s.emitAlloc(used)
}

// refreshCapacity closes the tracker's integration window after a
// cluster-membership change and re-reads the schedulable capacity.
// Every caller follows up with sampleAlloc, so capacity changes and
// usage observations reach the spine as one uniform tick stream that
// collectors can integrate exactly like the internal tracker.
func (s *Simulator) refreshCapacity() {
	s.alloc.SetCapacity(s.now, s.state.Cluster.TotalGPUs(""))
}

// emitAlloc publishes one allocation tick to the observers.
func (s *Simulator) emitAlloc(used float64) {
	if s.hasObs {
		s.emit(Event{Kind: AllocSampled, Used: used, Capacity: s.alloc.Capacity()})
	}
}

// emit delivers one event to every observer, stamping time and
// sequence. Callers must guard with s.hasObs so unobserved runs pay
// nothing.
func (s *Simulator) emit(ev Event) {
	ev.At = s.now
	ev.Seq = s.eventSeq
	s.eventSeq++
	for _, o := range s.cfg.Observers {
		o.OnEvent(ev)
	}
}

// handle processes one event and reports whether a scheduling pass
// should follow.
func (s *Simulator) handle(ev simclock.Event) bool {
	switch e := ev.Value.(type) {
	case *task.Task: // arrival
		e.EnterQueue(s.now)
		s.insertPending(e)
		s.lastProgress = s.now
		if s.hasObs {
			s.emit(Event{Kind: TaskArrived, Task: e})
		}
		return true
	case *finishEvent:
		tk, epoch := e.tk, e.epoch
		e.tk = nil
		s.finishFree = append(s.finishFree, e)
		if s.epochs[tk.ID] != epoch || tk.State != task.Running {
			return false // stale: the run was preempted
		}
		s.state.ReleaseAll(tk)
		tk.Finish(s.now)
		s.running--
		if tk.Type == task.Spot {
			s.gCount++
			s.evWindow.Record(s.now, false)
		}
		if len(s.retiring) > 0 {
			s.checkRetiring()
		}
		s.sampleAlloc()
		s.lastProgress = s.now
		if s.hasObs {
			s.emit(Event{Kind: TaskFinished, Task: tk})
		}
		return true
	case scenarioEvent:
		return s.applyScenario(e.action)
	case provisionEvent:
		added := s.state.Cluster.AddPool(e.pool)
		s.refreshCapacity()
		if s.hasObs {
			for _, n := range added {
				s.emit(Event{Kind: NodeProvisioned, Node: n, Tier: n.Tier})
			}
		}
		s.sampleAlloc()
		s.lastProgress = s.now
		return true
	case tickEvent:
		s.recordDemand()
		s.updateQuota()
		s.autoscaleTick()
		// Keep ticking while there is anything left to drive.
		active := s.queue.Len() > 0 || s.running > 0
		stalled := len(s.pending) > 0 && s.now.Sub(s.lastProgress) < s.cfg.IdleTimeout
		if active || stalled {
			s.queue.Push(s.now.Add(s.cfg.QuotaInterval), tickEvent{})
		} else {
			// The tick chain ends here; a later Inject restarts it.
			s.tickOn = false
		}
		return true
	}
	return false
}

// recordDemand samples per-org HP usage at every tick and appends the
// hourly average to each org's series when the hour rolls over.
// Averaging smooths Poisson arrival bursts into the hourly usage
// signal production telemetry would report.
func (s *Simulator) recordDemand() {
	// Close the previous hour before sampling the current tick.
	hour := s.now.HourIndex()
	if hour != s.lastHour {
		if s.lastHour >= 0 && s.hourSamples > 0 {
			n := float64(s.hourSamples)
			for i, org := range s.orgNames {
				if s.hourTouched[i] {
					s.orgDemand[org] = append(s.orgDemand[org], s.hourAccum[i]/n)
				}
			}
			// Orgs with no samples this hour still advance
			// their series. Walk the keys sorted (reusing the
			// scratch buffer): the per-org appends are independent,
			// but the hot loop stays off map iteration order.
			s.orgScratch = s.orgScratch[:0]
			for org := range s.orgDemand {
				s.orgScratch = append(s.orgScratch, org)
			}
			sort.Strings(s.orgScratch)
			for _, org := range s.orgScratch {
				if i, ok := s.orgSlots[org]; ok && s.hourTouched[i] {
					continue
				}
				s.orgDemand[org] = append(s.orgDemand[org], 0)
			}
		}
		s.lastHour = hour
		for i := range s.hourAccum {
			s.hourAccum[i] = 0
			s.hourTouched[i] = false
		}
		s.hourSamples = 0
	}

	if s.hpLiveStale {
		s.rebuildHPLive()
	}
	// Only the arrived prefix needs visiting: a task that has not
	// arrived cannot be running (it is scheduled only after its
	// arrival event) or finished, so it contributes nothing and
	// cannot be compacted. When hpLive is Submit-sorted that prefix
	// is hpLive[:frontier]; otherwise the frontier spans everything.
	frontier := len(s.hpLive)
	if s.hpSorted {
		for s.hpFrontier < len(s.hpLive) && s.hpLive[s.hpFrontier].Submit <= s.now {
			s.hpFrontier++
		}
		frontier = s.hpFrontier
	}
	s.accumulateAndCompact(frontier)
	s.hourSamples++
}

// accumulateAndCompact is the demand pass: one walk of the
// arrived prefix that accumulates per-org usage and compacts finished
// tasks in place. Relative order is preserved, so the per-org sums
// are bit-identical to a full scan of s.tasks.
func (s *Simulator) accumulateAndCompact(frontier int) {
	live := s.hpLive[:0]
	liveOrg := s.hpOrg[:0]
	for idx, tk := range s.hpLive[:frontier] {
		if tk.State == task.Finished {
			continue
		}
		slot := s.hpOrg[idx]
		live = append(live, tk)
		liveOrg = append(liveOrg, slot)
		if s.migrated[tk.ID] {
			continue
		}
		if tk.State == task.Running || tk.Submit <= s.now {
			s.hourAccum[slot] += tk.TotalGPUs()
			s.hourTouched[slot] = true
		}
	}
	kept := len(live)
	if kept < frontier {
		// Shift the unarrived tail down over the compacted gap.
		live = append(live, s.hpLive[frontier:]...)
		liveOrg = append(liveOrg, s.hpOrg[frontier:]...)
	} else {
		// Nothing compacted: the tail is already in place.
		live = s.hpLive
		liveOrg = s.hpOrg
	}
	s.hpFrontier = kept
	clearTasks(s.hpLive[len(live):])
	s.hpLive = live
	s.hpOrg = liveOrg
}

// clearTasks zeroes a compacted-away tail so it doesn't pin tasks.
func clearTasks(ts []*task.Task) {
	for i := range ts {
		ts[i] = nil
	}
}

// orgSlot returns org's accumulator slot, assigning one on first
// sight.
func (s *Simulator) orgSlot(org string) int {
	if i, ok := s.orgSlots[org]; ok {
		return i
	}
	i := len(s.orgNames)
	s.orgNames = append(s.orgNames, org)
	s.hourAccum = append(s.hourAccum, 0)
	s.hourTouched = append(s.hourTouched, false)
	s.orgSlots[org] = i
	return i
}

// rebuildHPLive refreshes the demand view from s.tasks, keeping every
// unfinished HP task in trace order.
func (s *Simulator) rebuildHPLive() {
	s.hpLive = s.hpLive[:0]
	s.hpOrg = s.hpOrg[:0]
	for _, tk := range s.tasks {
		if tk.Type == task.HP && tk.State != task.Finished {
			s.hpLive = append(s.hpLive, tk)
			s.hpOrg = append(s.hpOrg, s.orgSlot(tk.Org))
		}
	}
	s.hpSorted = true
	for i := 1; i < len(s.hpLive); i++ {
		if s.hpLive[i].Submit < s.hpLive[i-1].Submit {
			s.hpSorted = false
			break
		}
	}
	s.hpFrontier = 0
	s.hpLiveStale = false
}

func (s *Simulator) updateQuota() {
	if s.cfg.Quota == nil {
		return
	}
	ctx := &QuotaContext{
		Now:            s.now,
		Cluster:        s.state.Cluster,
		OrgDemand:      s.orgDemand,
		HourIndex:      s.now.HourIndex(),
		EvictionRate:   s.evWindow.Rate(s.now),
		MaxSpotQueue:   s.maxSpotQueue(),
		SpotGuaranteed: s.state.Cluster.SpotGPUs(""),
	}
	s.spotQuota = s.cfg.Quota.Quota(ctx)
	if s.hasObs {
		var eta float64
		if s.etaRep != nil {
			eta = s.etaRep.CurrentEta()
		}
		s.emit(Event{Kind: QuotaUpdated, Quota: s.spotQuota, Used: ctx.SpotGuaranteed, Eta: eta})
	}
}

// failNode kills one node: emits NodeDown and releases and requeues
// its tasks. It reports whether the node was up; callers refresh the
// capacity tracker (once per action, not per node).
func (s *Simulator) failNode(n *cluster.Node) bool {
	if n == nil || n.Down() {
		return false
	}
	if s.hasObs {
		s.emit(Event{Kind: NodeDown, Node: n})
	}
	victims, locs := s.state.KillNode(n)
	n.SetDown(true)
	for i, v := range victims {
		s.evictVictim(v, CauseNodeFailure, locs[i])
	}
	return true
}

// restoreNode returns a failed or drained node to service. It reports
// whether the node needed restoring; callers refresh the capacity
// tracker.
func (s *Simulator) restoreNode(n *cluster.Node) bool {
	if n == nil || n.Schedulable() {
		return false
	}
	n.SetDown(false)
	if s.hasObs {
		s.emit(Event{Kind: NodeUp, Node: n})
	}
	return true
}

// drainNode cordons one node and evicts its spot tasks. It reports
// whether the node was schedulable.
func (s *Simulator) drainNode(n *cluster.Node) bool {
	if n == nil || !n.Schedulable() {
		return false
	}
	n.SetCordoned(true)
	if s.hasObs {
		s.emit(Event{Kind: NodeDown, Node: n})
	}
	for _, v := range n.SpotTasks() {
		locs := s.state.NodesOf(v)
		s.state.ReleaseAll(v)
		s.evictVictim(v, CauseDrained, locs)
	}
	return true
}

// autoscaleTick consults the configured autoscaler once per quota
// tick and applies its plan: provisions join the event queue with
// their pre-warm lead (the nodes do not exist — and therefore
// cannot host a pod — until the delivery event fires), retirements
// apply immediately in plan order.
func (s *Simulator) autoscaleTick() {
	if s.cfg.Autoscaler == nil {
		return
	}
	pend := 0.0
	for _, tk := range s.pending {
		// Only guaranteed work drives capacity purchases; queued spot
		// is opportunistic and harvests whatever headroom exists.
		if tk.Type == task.HP {
			pend += tk.TotalGPUs()
		}
	}
	plan := s.cfg.Autoscaler.Plan(&AutoscaleContext{
		Now:         s.now,
		Cluster:     s.state.Cluster,
		OrgDemand:   s.orgDemand,
		HourIndex:   s.now.HourIndex(),
		PendingGPUs: pend,
	})
	for _, p := range plan.Provisions {
		if p.Pool.Nodes <= 0 {
			continue
		}
		lead := p.Lead
		if lead < 0 {
			lead = 0
		}
		s.queue.Push(s.now.Add(lead), provisionEvent{pool: p.Pool})
	}
	retired := false
	for _, id := range plan.Retire {
		if s.retireNode(s.state.Cluster.Node(id)) {
			retired = true
		}
	}
	if retired {
		// A drained spot task can span several retiring nodes, so a
		// retirement later in the plan may have emptied an earlier one.
		if len(s.retiring) > 0 {
			s.checkRetiring()
		}
		s.sampleAlloc()
		s.lastProgress = s.now
	}
}

// retireNode begins retiring one node: it cordons the node, emits
// NodeRetired, and evicts its spot tasks with the drain cause. The
// cordon lands before the event — as drainNode does for NodeDown —
// so observers never see a retired node still schedulable. A node
// left without pods leaves capacity immediately; one still hosting HP
// pods parks in the retiring set and leaves when its last pod
// completes. It reports whether the node was schedulable.
func (s *Simulator) retireNode(n *cluster.Node) bool {
	if n == nil || !n.Schedulable() {
		return false
	}
	n.SetCordoned(true)
	if s.hasObs {
		s.emit(Event{Kind: NodeRetired, Node: n, Tier: n.Tier})
	}
	for _, v := range n.SpotTasks() {
		locs := s.state.NodesOf(v)
		s.state.ReleaseAll(v)
		s.evictVictim(v, CauseDrained, locs)
	}
	if n.UsedGPUs() == 0 {
		n.SetDown(true)
		s.refreshCapacity()
	} else {
		if s.retiring == nil {
			s.retiring = make(map[int]*cluster.Node)
		}
		s.retiring[n.ID] = n
	}
	return true
}

// checkRetiring sweeps the retiring set (in node-ID order, for
// determinism) and takes now-empty nodes out of capacity.
func (s *Simulator) checkRetiring() {
	ids := make([]int, 0, len(s.retiring))
	for id := range s.retiring {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	changed := false
	for _, id := range ids {
		n := s.retiring[id]
		if n.UsedGPUs() == 0 {
			n.SetDown(true)
			delete(s.retiring, id)
			changed = true
		}
	}
	if changed {
		s.refreshCapacity()
	}
}

// cascadeFailure schedules spread copies of a domain failure onto
// sibling domains. Each sibling is hit independently with probability
// a.CascadeP, after a.CascadeDelay, at a.CascadeP×decay for the next
// hop. The draw stream is seeded from (Seed, firing time, domain), so
// it is deterministic per run yet independent across repeats of the
// same action at different times. Because spread copies are pushed
// mid-run, a copy landing at the exact timestamp of a task's finish
// resolves by push order (unlike pre-queued scenario actions, which
// always win such ties) — still deterministic, just not biased
// toward the failure.
func (s *Simulator) cascadeFailure(a ScenarioAction) {
	decay := a.CascadeDecay
	if decay <= 0 {
		decay = 0.5
	}
	h := fnv.New64a()
	h.Write([]byte(a.Domain))
	rng := rand.New(rand.NewSource(a.Seed ^ int64(s.now)*0x5851F42D4C957F2D ^ int64(h.Sum64())))
	for _, sib := range s.state.Cluster.SiblingDomains(a.Domain) {
		if rng.Float64() >= a.CascadeP {
			continue
		}
		child := a
		child.Domain = sib
		child.CascadeP = a.CascadeP * decay
		// Probabilities below 1% cannot meaningfully spread; cutting
		// them bounds cascade depth.
		if child.CascadeP < 0.01 {
			child.CascadeP = 0
		}
		child.At = s.now.Add(a.CascadeDelay)
		s.queue.Push(child.At, scenarioEvent{action: child})
	}
}

// applyScenario performs one timed cluster mutation and reports
// whether a scheduling pass should follow.
func (s *Simulator) applyScenario(a ScenarioAction) bool {
	cl := s.state.Cluster
	switch a.Op {
	case OpNodeDown:
		if !s.failNode(cl.Node(a.NodeID)) {
			return false
		}
		s.refreshCapacity()
		s.sampleAlloc()
		s.lastProgress = s.now
		return true
	case OpNodeUp:
		if !s.restoreNode(cl.Node(a.NodeID)) {
			return false
		}
		s.refreshCapacity()
		s.sampleAlloc()
		s.lastProgress = s.now
		return true
	case OpNodeDrain:
		if !s.drainNode(cl.Node(a.NodeID)) {
			return false
		}
		s.sampleAlloc()
		s.lastProgress = s.now
		return true
	case OpDomainDown:
		any := false
		for _, n := range cl.NodesInDomain(a.Domain) {
			if s.failNode(n) {
				any = true
			}
		}
		if !any {
			return false
		}
		// Only a domain that newly lost nodes spreads, so a cascade
		// cannot bounce between already-dark domains.
		if a.CascadeP > 0 {
			s.cascadeFailure(a)
		}
		s.refreshCapacity()
		s.sampleAlloc()
		s.lastProgress = s.now
		return true
	case OpDomainUp:
		any := false
		for _, n := range cl.NodesInDomain(a.Domain) {
			if s.restoreNode(n) {
				any = true
			}
		}
		if !any {
			return false
		}
		s.refreshCapacity()
		s.sampleAlloc()
		s.lastProgress = s.now
		return true
	case OpDomainDrain:
		any := false
		for _, n := range cl.NodesInDomain(a.Domain) {
			if s.drainNode(n) {
				any = true
			}
		}
		if !any {
			return false
		}
		s.sampleAlloc()
		s.lastProgress = s.now
		return true
	case OpScaleOut:
		added := cl.AddPool(a.Pool)
		s.refreshCapacity()
		if s.hasObs {
			for _, n := range added {
				s.emit(Event{Kind: NodeUp, Node: n})
			}
		}
		s.sampleAlloc()
		s.lastProgress = s.now
		return true
	case OpReclaimSpot:
		target := a.Fraction * cl.SpotGPUs("")
		if target <= 0 {
			return false
		}
		reclaimed := 0.0
		// s.tasks is in trace (ID) order, so the victim sweep is
		// deterministic.
		for _, tk := range s.tasks {
			if reclaimed >= target {
				break
			}
			if tk.Type != task.Spot || tk.State != task.Running || s.migrated[tk.ID] {
				continue
			}
			locs := s.state.NodesOf(tk)
			s.state.ReleaseAll(tk)
			reclaimed += tk.TotalGPUs()
			s.evictVictim(tk, CauseReclaimed, locs)
		}
		s.sampleAlloc()
		s.lastProgress = s.now
		return true
	}
	return false
}

// evictVictim performs the task-lifecycle bookkeeping for a scenario
// eviction whose pods have already been released: progress rollback,
// counters, per-node eviction history, event emission and requeueing.
func (s *Simulator) evictVictim(v *task.Task, cause EvictCause, locs []NodePods) {
	if v.State != task.Running {
		return
	}
	waste := v.Evict(s.now)
	s.waste += waste
	s.epochs[v.ID]++
	s.running--
	if v.Type == task.Spot {
		s.fCount++
		s.evWindow.Record(s.now, true)
		for _, np := range locs {
			np.Node.RecordEviction(s.now)
		}
	}
	if s.hasObs {
		s.emit(Event{Kind: TaskEvicted, Task: v, Cause: cause, Waste: waste})
	}
	if s.cfg.EvictionInterceptor != nil && s.cfg.EvictionInterceptor(v, cause) {
		// Claimed: the task leaves this simulator's books (it will be
		// re-injected elsewhere). The epochs entry stays so any stale
		// finish event for the old run is still discarded.
		if s.migrated == nil {
			s.migrated = make(map[int]bool)
		}
		s.migrated[v.ID] = true
		return
	}
	s.insertPending(v)
}

// maxSpotQueue is the worst spot queuing experience over the recent
// window: currently pending waits plus queue segments of recent
// starts.
func (s *Simulator) maxSpotQueue() simclock.Duration {
	var maxQ simclock.Duration
	for _, tk := range s.pending {
		if tk.Type == task.Spot {
			if w := s.now.Sub(tk.QueuedSince); w > maxQ {
				maxQ = w
			}
		}
	}
	cutoff := s.now.Add(-s.cfg.QuotaWindow)
	kept := s.recentQueues[:0]
	for _, o := range s.recentQueues {
		if o.at >= cutoff {
			kept = append(kept, o)
			if o.dur > maxQ {
				maxQ = o.dur
			}
		}
	}
	s.recentQueues = kept
	return maxQ
}

// insertPending adds tk to the pending queue, keeping it ordered by
// the scheduler's Less (insertion after equals preserves stability).
func (s *Simulator) insertPending(tk *task.Task) {
	i := sort.Search(len(s.pending), func(i int) bool {
		return s.cfg.Scheduler.Less(tk, s.pending[i])
	})
	s.pending = append(s.pending, nil)
	copy(s.pending[i+1:], s.pending[i:])
	s.pending[i] = tk
}

func (s *Simulator) schedulePass() {
	if len(s.pending) == 0 {
		return
	}
	snapshot := s.pending
	// Victims evicted during the pass land in s.pending (sorted);
	// kept tasks accumulate separately and the two merge after.
	s.pending = nil
	ctx := &Context{
		Now:       s.now,
		Start:     0,
		State:     s.state,
		SpotQuota: s.spotQuota,
		G:         s.gCount,
		F:         s.fCount,
	}
	// Admission ramp: quota policies may bound how much new spot
	// capacity one pass admits.
	admitLimit := math.Inf(1)
	if lim, ok := s.cfg.Quota.(AdmissionLimiter); ok {
		if l := lim.MaxAdmitPerPass(s.state.Cluster.TotalGPUs("")); l > 0 {
			admitLimit = l
		}
	}
	admitted := 0.0

	var kept []*task.Task
	failures := 0
	// Placement failure is deterministic in the task's shape while
	// the cluster state is unchanged, so a shape that failed once
	// this pass is skipped until a success mutates the state. This
	// lets small tasks backfill past blocked large ones without
	// rescanning the cluster for every queue entry.
	s.failedShapes = s.failedShapes[:0]
	for _, tk := range snapshot {
		if tk.State != task.Pending {
			continue
		}
		shape := shapeOfTask(tk)
		if failures >= s.cfg.MaxFailuresPerPass || s.shapeFailed(shape) {
			kept = append(kept, tk)
			continue
		}
		if tk.Type == task.Spot {
			if admitted > 0 && admitted+tk.TotalGPUs() > admitLimit {
				kept = append(kept, tk)
				continue // ramp-deferred, not a placement failure
			}
			if s.state.Cluster.SpotGPUs("")+tk.TotalGPUs() > s.spotQuota {
				kept = append(kept, tk)
				s.failedShapes = append(s.failedShapes, shape)
				failures++
				continue
			}
		}
		dec, err := s.cfg.Scheduler.Schedule(ctx, tk)
		if err != nil {
			kept = append(kept, tk)
			s.failedShapes = append(s.failedShapes, shape)
			failures++
			continue
		}
		if tk.Type == task.Spot {
			admitted += tk.TotalGPUs()
		}
		s.apply(tk, dec)
		s.failedShapes = s.failedShapes[:0]
		ctx.G, ctx.F = s.gCount, s.fCount
	}
	s.mergePending(kept)
}

// mergePending merges the kept tasks (already ordered) with the
// victims inserted during the pass (also ordered).
func (s *Simulator) mergePending(kept []*task.Task) {
	victims := s.pending
	if len(victims) == 0 {
		s.pending = kept
		return
	}
	merged := make([]*task.Task, 0, len(kept)+len(victims))
	i, j := 0, 0
	for i < len(kept) && j < len(victims) {
		if s.cfg.Scheduler.Less(victims[j], kept[i]) {
			merged = append(merged, victims[j])
			j++
		} else {
			merged = append(merged, kept[i])
			i++
		}
	}
	merged = append(merged, kept[i:]...)
	merged = append(merged, victims[j:]...)
	s.pending = merged
}

// apply performs the task-lifecycle side effects of a committed
// decision: victim eviction bookkeeping and the task start.
func (s *Simulator) apply(tk *task.Task, dec *Decision) {
	victimLocs := dec.VictimLocs
	for i, v := range dec.Victims {
		waste := v.Evict(s.now)
		s.waste += waste
		s.epochs[v.ID]++
		s.fCount++
		s.running--
		s.evWindow.Record(s.now, true)
		if i < len(victimLocs) {
			for _, np := range victimLocs[i] {
				np.Node.RecordEviction(s.now)
			}
		}
		if s.hasObs {
			s.emit(Event{Kind: TaskEvicted, Task: v, Cause: CausePreempted, Waste: waste})
		}
		s.insertPending(v)
	}
	start := s.now
	if len(dec.Victims) > 0 && s.cfg.Grace > 0 {
		start = start.Add(s.cfg.Grace)
	}
	if tk.Type == task.Spot {
		s.recentQueues = append(s.recentQueues, queueObs{at: s.now, dur: start.Sub(tk.QueuedSince)})
	}
	end := tk.Start(start)
	if infl, ok := s.cfg.Scheduler.(RuntimeInflater); ok {
		end = end.Add(infl.InflateRuntime(tk))
	}
	s.epochs[tk.ID]++
	s.running++
	s.queue.Push(end, s.newFinishEvent(tk, s.epochs[tk.ID]))
	s.sampleAlloc()
	s.lastProgress = s.now
	if s.hasObs {
		s.emit(Event{Kind: TaskStarted, Task: tk})
	}
}

func (s *Simulator) result() *Result {
	tasks := s.tasks
	if len(s.migrated) > 0 {
		// Tasks that migrated away finished (or died) on another
		// member; they belong in that member's results, not here.
		tasks = make([]*task.Task, 0, len(s.tasks))
		for _, tk := range s.tasks {
			if !s.migrated[tk.ID] {
				tasks = append(tasks, tk)
			}
		}
	}
	r := &Result{
		SchedulerName:    s.cfg.Scheduler.Name(),
		Tasks:            tasks,
		HP:               stats.Summarize(tasks, task.HP),
		Spot:             stats.Summarize(tasks, task.Spot),
		AllocationRate:   s.alloc.Rate(),
		Samples:          s.alloc.Samples,
		WastedGPUSeconds: s.waste,
		End:              s.now,
		FinalQuota:       s.spotQuota,
	}
	for _, tk := range tasks {
		if tk.State != task.Finished {
			if tk.Type == task.HP {
				r.UnfinishedHP++
			} else {
				r.UnfinishedSpot++
			}
		}
	}
	return r
}
