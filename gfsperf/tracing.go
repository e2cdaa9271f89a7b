package main

import (
	"time"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/forecast"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/task"
)

// span accumulates the calls made across one layer boundary and the
// wall time spent inside them. Spans live in memory for the whole pass
// and are reduced to metrics when the run ends.
type span struct {
	calls int
	total time.Duration
	// durs keeps every call's duration, for spans whose per-call
	// percentiles are reported.
	durs []time.Duration
	keep bool
}

func (s *span) add(d time.Duration) {
	s.calls++
	s.total += d
	if s.keep {
		s.durs = append(s.durs, d)
	}
}

// tracer records the spans of one simulation pass. The benchmark owns
// it; the simulator only sees the wrappers below, which forward every
// call to the wrapped layer and time it from outside.
type tracer struct {
	// run times Engine.Run; every other span nests inside it except
	// assemble and export.
	run      span
	pts      span
	ptsHP    span
	ptsSpot  span
	placed   int
	preempts int
	victims  int
	quota    span
	gde      span
	events   int
	// collectors holds one OnEvent span per wrapped collector, in
	// registration order, named by Collector.Name.
	collectors []*collectorSpan
	assemble   span
	export     span
	reportB    int
}

type collectorSpan struct {
	name string
	span
}

func newTracer() *tracer {
	return &tracer{pts: span{keep: true}, gde: span{keep: true}}
}

// tracedScheduler times Schedule calls into the PTS (or any
// sched.Scheduler). Less is forwarded untimed: it runs inside the
// pending-queue sort, whose cost belongs to the simulator core.
type tracedScheduler struct {
	inner sched.Scheduler
	t     *tracer
}

func (s *tracedScheduler) Name() string              { return s.inner.Name() }
func (s *tracedScheduler) Less(a, b *task.Task) bool { return s.inner.Less(a, b) }

func (s *tracedScheduler) Schedule(ctx *sched.Context, tk *task.Task) (*sched.Decision, error) {
	start := time.Now()
	d, err := s.inner.Schedule(ctx, tk)
	el := time.Since(start)
	s.t.pts.add(el)
	if tk.Type == task.HP {
		s.t.ptsHP.add(el)
	} else {
		s.t.ptsSpot.add(el)
	}
	if err == nil && d != nil {
		s.t.placed++
		if len(d.Victims) > 0 {
			s.t.preempts++
			s.t.victims += len(d.Victims)
		}
	}
	return d, err
}

// wrapScheduler returns a timing wrapper that implements exactly the
// optional extensions the wrapped scheduler implements, so the
// simulator's type assertions see the same capabilities.
func wrapScheduler(inner sched.Scheduler, t *tracer) sched.Scheduler {
	ts := &tracedScheduler{inner: inner, t: t}
	if infl, ok := inner.(sched.RuntimeInflater); ok {
		return struct {
			*tracedScheduler
			sched.RuntimeInflater
		}{ts, infl}
	}
	return ts
}

// tracedQuota times QuotaPolicy.Quota calls (core.Quota plus SQA, with
// the GDE inference it triggers nested inside).
type tracedQuota struct {
	inner sched.QuotaPolicy
	t     *tracer
}

func (q *tracedQuota) Quota(ctx *sched.QuotaContext) float64 {
	start := time.Now()
	v := q.inner.Quota(ctx)
	q.t.quota.add(time.Since(start))
	return v
}

// wrapQuota returns a timing wrapper that forwards EtaReporter and
// AdmissionLimiter exactly when the wrapped policy implements them.
// Dropping MaxAdmitPerPass, for one, changes the admission ramp and
// with it every modelled outcome.
func wrapQuota(inner sched.QuotaPolicy, t *tracer) sched.QuotaPolicy {
	tq := &tracedQuota{inner: inner, t: t}
	eta, hasEta := inner.(sched.EtaReporter)
	lim, hasLim := inner.(sched.AdmissionLimiter)
	switch {
	case hasEta && hasLim:
		return struct {
			*tracedQuota
			sched.EtaReporter
			sched.AdmissionLimiter
		}{tq, eta, lim}
	case hasEta:
		return struct {
			*tracedQuota
			sched.EtaReporter
		}{tq, eta}
	case hasLim:
		return struct {
			*tracedQuota
			sched.AdmissionLimiter
		}{tq, lim}
	}
	return tq
}

// tracedModel wraps the GDE's forecaster. Fit is forwarded (training
// is timed as a whole in set-up); Predict and PredictDist are timed
// into the current pass's tracer when one is attached. t is swapped
// per pass because the estimator is trained once and shared by every
// pass.
type tracedModel struct {
	inner forecast.Distributional
	t     *tracer
}

func (m *tracedModel) Name() string                       { return m.inner.Name() }
func (m *tracedModel) Fit(train []forecast.Example) error { return m.inner.Fit(train) }

func (m *tracedModel) Predict(ex forecast.Example) []float64 {
	if m.t == nil {
		return m.inner.Predict(ex)
	}
	start := time.Now()
	out := m.inner.Predict(ex)
	m.t.gde.add(time.Since(start))
	return out
}

func (m *tracedModel) PredictDist(ex forecast.Example) (mu, sigma []float64) {
	if m.t == nil {
		return m.inner.PredictDist(ex)
	}
	start := time.Now()
	mu, sigma = m.inner.PredictDist(ex)
	m.t.gde.add(time.Since(start))
	return mu, sigma
}

// tracedCollector times a collector's per-event work; Name, Begin and
// Finish are forwarded by embedding (Finish cost lands in the
// report.assemble span around Engine.Report).
type tracedCollector struct {
	gfs.Collector
	s *collectorSpan
}

func (c tracedCollector) OnEvent(e gfs.Event) {
	start := time.Now()
	c.Collector.OnEvent(e)
	c.s.add(time.Since(start))
}

// wrapCollectors wraps each collector with the span named after it,
// so the collectors of every run in a pass share one span per name.
func (t *tracer) wrapCollectors(cs []gfs.Collector) []gfs.Collector {
	out := make([]gfs.Collector, len(cs))
	for i, c := range cs {
		out[i] = tracedCollector{Collector: c, s: t.collectorSpan(c.Name())}
	}
	return out
}

func (t *tracer) collectorSpan(name string) *collectorSpan {
	for _, s := range t.collectors {
		if s.name == name {
			return s
		}
	}
	s := &collectorSpan{name: name}
	t.collectors = append(t.collectors, s)
	return s
}

// eventCounter counts the simulator's events.
func (t *tracer) eventCounter() gfs.Observer {
	return gfs.ObserverFunc(func(gfs.Event) { t.events++ })
}

// childTime is the time of every span nested inside Engine.Run.
func (t *tracer) childTime() time.Duration {
	d := t.pts.total + t.quota.total
	for _, c := range t.collectors {
		d += c.total
	}
	return d
}
