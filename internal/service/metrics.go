package service

import (
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/sjtucitlab/gfs/internal/stats"
)

// ttfeCap bounds the time-to-first-event sample reservoir; beyond it
// the oldest samples are overwritten (a sliding window over recent
// sessions).
const ttfeCap = 4096

// daemonMetrics aggregates the service's own operational counters —
// what a fleet operator scrapes, as opposed to the per-session
// simulation reports merged next to them on /metrics.
type daemonMetrics struct {
	mu        sync.Mutex
	started   uint64
	done      uint64
	failed    uint64
	cancelled uint64
	// panicked counts runs that panicked; each also counts as failed.
	panicked uint64
	// ttfe holds recent time-to-first-event samples in seconds, as a
	// ring once full.
	ttfe     []float64
	ttfeNext int
	ttfeN    uint64
}

// sessionStarted counts one accepted session.
func (m *daemonMetrics) sessionStarted() {
	m.mu.Lock()
	m.started++
	m.mu.Unlock()
}

// sessionFinished counts one terminal transition.
func (m *daemonMetrics) sessionFinished(st State) {
	m.mu.Lock()
	switch st {
	case StateDone:
		m.done++
	case StateFailed:
		m.failed++
	case StateCancelled:
		m.cancelled++
	}
	m.mu.Unlock()
}

// sessionPanicked counts one run that panicked.
func (m *daemonMetrics) sessionPanicked() {
	m.mu.Lock()
	m.panicked++
	m.mu.Unlock()
}

// recordTTFE records one session's submission→first-event latency.
func (m *daemonMetrics) recordTTFE(d time.Duration) {
	m.mu.Lock()
	if len(m.ttfe) < ttfeCap {
		m.ttfe = append(m.ttfe, d.Seconds())
	} else {
		m.ttfe[m.ttfeNext] = d.Seconds()
		m.ttfeNext = (m.ttfeNext + 1) % ttfeCap
	}
	m.ttfeN++
	m.mu.Unlock()
}

// write renders the daemon counters in Prometheus text exposition
// format. queueDepth/activeSessions/workers come from the pool at
// scrape time.
func (m *daemonMetrics) write(w io.Writer, queueDepth, activeRuns int64, workers int) error {
	m.mu.Lock()
	started, done, failed, cancelled, panicked := m.started, m.done, m.failed, m.cancelled, m.panicked
	ttfe := append([]float64(nil), m.ttfe...)
	ttfeN := m.ttfeN
	m.mu.Unlock()

	type line struct {
		name, help, typ string
		rows            []string
	}
	lines := []line{
		{"gfsd_sessions_started_total", "Sessions accepted by the service.", "counter",
			[]string{fmt.Sprintf("gfsd_sessions_started_total %d", started)}},
		{"gfsd_sessions_finished_total", "Sessions reaching a terminal state, by state.", "counter", []string{
			fmt.Sprintf(`gfsd_sessions_finished_total{state="done"} %d`, done),
			fmt.Sprintf(`gfsd_sessions_finished_total{state="failed"} %d`, failed),
			fmt.Sprintf(`gfsd_sessions_finished_total{state="cancelled"} %d`, cancelled),
		}},
		{"gfsd_sessions_panicked_total", "Sessions whose run panicked; each also counts as failed.", "counter",
			[]string{fmt.Sprintf("gfsd_sessions_panicked_total %d", panicked)}},
		{"gfsd_sessions_active", "Sessions currently queued or running.", "gauge",
			[]string{fmt.Sprintf("gfsd_sessions_active %d", started-done-failed-cancelled)}},
		{"gfsd_queue_depth", "Sessions waiting in the worker backlog.", "gauge",
			[]string{fmt.Sprintf("gfsd_queue_depth %d", queueDepth)}},
		{"gfsd_running_sessions", "Sessions executing on a worker right now.", "gauge",
			[]string{fmt.Sprintf("gfsd_running_sessions %d", activeRuns)}},
		{"gfsd_workers", "Size of the shared worker pool.", "gauge",
			[]string{fmt.Sprintf("gfsd_workers %d", workers)}},
	}
	if len(ttfe) > 0 {
		qs := stats.Quantiles(ttfe, 0.5, 0.9, 0.99)
		lines = append(lines, line{
			"gfsd_time_to_first_event_seconds",
			"Submission-to-first-simulator-event latency over recent sessions.", "summary",
			[]string{
				fmt.Sprintf(`gfsd_time_to_first_event_seconds{quantile="0.5"} %s`, promFloat(qs[0])),
				fmt.Sprintf(`gfsd_time_to_first_event_seconds{quantile="0.9"} %s`, promFloat(qs[1])),
				fmt.Sprintf(`gfsd_time_to_first_event_seconds{quantile="0.99"} %s`, promFloat(qs[2])),
				fmt.Sprintf("gfsd_time_to_first_event_seconds_count %d", ttfeN),
			},
		})
	}
	for _, l := range lines {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", l.name, l.help, l.name, l.typ); err != nil {
			return err
		}
		for _, r := range l.rows {
			if _, err := fmt.Fprintln(w, r); err != nil {
				return err
			}
		}
	}
	return nil
}

// promFloat renders a float in the shortest round-trip form, matching
// the report exports.
func promFloat(f float64) string { return fmt.Sprintf("%g", f) }
