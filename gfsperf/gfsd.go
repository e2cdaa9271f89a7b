package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/experiments"
	"github.com/sjtucitlab/gfs/internal/service"
)

// gfsdQuery is the session spec every gfsd-replay client submits with
// its trace upload: YARN-CS under the diurnal reclamation storm on a
// 64×8 pool, pinned to the serial core. YARN-CS never calls the GDE,
// SQA or PTS, so the paper path does no work on this workload.
const gfsdQuery = "scheduler=yarn&scenario=diurnal-storm&nodes=64&gpus_per_node=8&days=2&shards=1"

// gfsdScale is the experiment scale the service lowers gfsdQuery onto
// (its spec seed stays the default, 17); the uploads' own traces are
// generated from the benchmark seed.
func gfsdScale() experiments.SimScale {
	s := experiments.SmallScale()
	s.Nodes, s.GPUsPerNode, s.Days = 64, 8, 2
	return s
}

// gfsdUploads is how many distinct traces the clients upload in turn.
// One two-day trace's session cost varies by about 10% between seeds;
// cycling through eight evens that out across runs.
const gfsdUploads = 8

// upload is one trace upload body and the number of tasks in it.
type upload struct {
	body  []byte
	tasks int
}

// gfsdTrace builds upload i for seed: a gzipped CSV trace of two days
// on the 64×8 pool at spot scale 2, generated with seed seed*100+i.
func gfsdTrace(seed int64, i int) (upload, error) {
	scale := gfsdScale()
	scale.Seed = seed*100 + int64(i)
	tasks := scale.Trace(2)
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := gfs.WriteTraceCSV(zw, tasks); err != nil {
		return upload{}, fmt.Errorf("encoding trace: %w", err)
	}
	if err := zw.Close(); err != nil {
		return upload{}, fmt.Errorf("compressing trace: %w", err)
	}
	return upload{buf.Bytes(), len(tasks)}, nil
}

// gfsdServer is an in-process gfsd behind an httptest listener on the
// loopback interface.
type gfsdServer struct {
	srv *service.Server
	ts  *httptest.Server
}

// gfsdWindow is the length of one window of the timed loop.
const gfsdWindow = 2 * time.Second

// sessionTTL expires finished sessions. The closed loop completes about
// thirty sessions a second and a retained session holds a few MB, so
// without a TTL the registry would grow for as long as the run lasts;
// one second leaves each client ample time to fetch its report.
const sessionTTL = time.Second

// startGFSD starts a gfsd with default configuration apart from the
// session TTL.
func startGFSD() *gfsdServer {
	srv := service.New(service.Config{SessionTTL: sessionTTL})
	return &gfsdServer{srv: srv, ts: httptest.NewServer(srv)}
}

// close stops the listener, then cancels and drains every session.
func (g *gfsdServer) close() {
	g.ts.Close()
	g.srv.Close()
}

// sessionResult is what one client session measured and received.
type sessionResult struct {
	// upload is the index of the uploaded trace.
	upload int
	// create is POST to 202; firstEvent is the events request to its
	// first record; stream is the whole events request; report is the
	// report request; total is POST to report received.
	create, firstEvent, stream, report, total time.Duration
	// events counts event records (gap records excluded), arrived the
	// TaskArrived ones, gaps the gap records.
	events, arrived, gaps  int
	streamBytes            int
	streamHash, reportHash string
}

var (
	gapKind     = []byte(`"kind":"gap"`)
	arrivedKind = []byte(`"kind":"TaskArrived"`)
)

// session runs one client session: upload the trace, read the whole
// NDJSON event stream, then fetch the JSONL report.
func session(c *http.Client, base string, up upload) (sessionResult, error) {
	var sr sessionResult
	start := time.Now()
	resp, err := c.Post(base+"/v1/sessions?"+gfsdQuery, "application/gzip", bytes.NewReader(up.body))
	if err != nil {
		return sr, fmt.Errorf("creating session: %w", err)
	}
	var st struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil || st.ID == "" {
		return sr, fmt.Errorf("creating session: status %d, id %q, %v", resp.StatusCode, st.ID, err)
	}
	sr.create = time.Since(start)

	evStart := time.Now()
	resp, err = c.Get(base + "/v1/sessions/" + st.ID + "/events")
	if err != nil {
		return sr, fmt.Errorf("session %s events: %w", st.ID, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sr, fmt.Errorf("session %s events: status %d", st.ID, resp.StatusCode)
	}
	h := sha256.New()
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			if sr.events+sr.gaps == 0 {
				sr.firstEvent = time.Since(evStart)
			}
			h.Write(line)
			sr.streamBytes += len(line)
			switch {
			case bytes.Contains(line, gapKind):
				sr.gaps++
			case bytes.Contains(line, arrivedKind):
				sr.arrived++
				sr.events++
			default:
				sr.events++
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return sr, fmt.Errorf("session %s events: %w", st.ID, err)
		}
	}
	sr.stream = time.Since(evStart)
	sr.streamHash = hex.EncodeToString(h.Sum(nil))

	repStart := time.Now()
	resp, err = c.Get(base + "/v1/sessions/" + st.ID + "/report?format=jsonl&wait=true")
	if err != nil {
		return sr, fmt.Errorf("session %s report: %w", st.ID, err)
	}
	defer resp.Body.Close()
	rep, err := io.ReadAll(resp.Body)
	if err != nil {
		return sr, fmt.Errorf("session %s report: %w", st.ID, err)
	}
	// Only a session that ended done serves its report.
	if resp.StatusCode != http.StatusOK {
		return sr, fmt.Errorf("session %s report: status %d: %s", st.ID, resp.StatusCode, bytes.TrimSpace(rep))
	}
	sr.report = time.Since(repStart)
	sr.total = time.Since(start)
	sr.reportHash = sha256Hex(rep)
	return sr, nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// closedLoop runs clients that each start their next session only
// after the previous one ended, until deadline; every client runs at
// least one session. Sessions take the uploads in turn.
func closedLoop(base string, ups []upload, clients int, deadline time.Time) ([]sessionResult, []error) {
	c := &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients},
	}
	defer c.CloseIdleConnections()
	results := make([][]sessionResult, clients)
	errs := make([][]error, clients)
	var next atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n == 0 || time.Now().Before(deadline); n++ {
				k := int((next.Add(1) - 1) % uint64(len(ups)))
				sr, err := session(c, base, ups[k])
				sr.upload = k
				if err != nil {
					errs[i] = append(errs[i], err)
					continue
				}
				results[i] = append(results[i], sr)
			}
		}()
	}
	wg.Wait()
	var all []sessionResult
	var allErrs []error
	for i := range results {
		all = append(all, results[i]...)
		allErrs = append(allErrs, errs[i]...)
	}
	return all, allErrs
}

// gfsdReference runs the sessions' spec over an upload in-process
// through the library, exactly as the service builds it, and returns
// the JSONL report's hash every session of that upload must reproduce.
// It adds the run's modelled outcome to out.
func gfsdReference(up upload, out *outcome) (string, error) {
	src, err := gfs.OpenTraceReader(bytes.NewReader(up.body), gfs.TraceFormatAuto)
	if err != nil {
		return "", fmt.Errorf("reference: %w", err)
	}
	scale := gfsdScale()
	sc, err := scale.NamedScenario("diurnal-storm")
	if err != nil {
		return "", fmt.Errorf("reference: %w", err)
	}
	cs := gfs.DefaultCollectors()
	eng := gfs.NewEngine(scale.NewCluster(),
		gfs.WithScheduler(gfs.NewYARNCS()), gfs.WithQuota(nil),
		gfs.WithTraceSource(src), gfs.WithShards(1),
		gfs.WithCollectors(cs...), gfs.WithScenario(sc))
	res, err := eng.RunTrace()
	if err != nil {
		return "", fmt.Errorf("reference run: %w", err)
	}
	out.add(res)
	var buf bytes.Buffer
	if err := gfs.AssembleReport(cs...).WriteJSONL(&buf); err != nil {
		return "", fmt.Errorf("reference report: %w", err)
	}
	return sha256Hex(buf.Bytes()), nil
}

// decodeTrace times gfs.OpenTraceReader on an upload body, drained to
// the last task.
func decodeTrace(body []byte) (time.Duration, int, error) {
	start := time.Now()
	src, err := gfs.OpenTraceReader(bytes.NewReader(body), gfs.TraceFormatAuto)
	if err != nil {
		return 0, 0, err
	}
	tasks, err := gfs.CollectTrace(src)
	return time.Since(start), len(tasks), err
}

// measureGFSD runs the gfsd-replay workload: a closed loop of
// min(2, nproc) clients against an in-process gfsd. One untimed
// warm-up session per client precedes the timed loop. Every session of
// an upload must stream and report exactly what its first session did,
// and that report must equal the library's own run of the same spec.
func measureGFSD(cfg config) *result {
	r := &result{metrics: map[string]float64{}, info: map[string]any{}}
	var ups []upload
	var g *gfsdServer
	setups, err := repeatSetup(func() (setupTimes, error) {
		var st setupTimes
		start := cpuTime()
		ups = ups[:0]
		for i := 0; i < gfsdUploads; i++ {
			up, err := gfsdTrace(cfg.seed, i)
			if err != nil {
				return st, err
			}
			ups = append(ups, up)
		}
		st.trace = cpuTime() - start
		if g != nil {
			g.close()
		}
		start = cpuTime()
		g = startGFSD()
		st.engine = cpuTime() - start
		return st, nil
	})
	if g != nil {
		defer g.close()
	}
	if err != nil {
		r.fail(err)
		return r
	}
	clients := min(2, runtime.NumCPU())

	// The timed loop runs in windows of gfsdWindow, each followed by
	// its share of probe work (see probe.go) while no session runs.
	warm, errs := closedLoop(g.ts.URL, ups, clients, time.Now())
	var timed []sessionResult
	var timedErrs []error
	var scales []float64 // per timed session, its window's probe scale
	var loopWall, loopCPU float64
	var allocated uint64
	deadline := time.Now().Add(cfg.seconds)
	for time.Now().Before(deadline) {
		a0, c0 := heapAllocBytes(), cpuTime()
		start := time.Now()
		end := start.Add(gfsdWindow)
		if end.After(deadline) {
			end = deadline
		}
		srs, werrs := closedLoop(g.ts.URL, ups, clients, end)
		wall, cpu := time.Since(start), cpuTime()-c0
		allocated += heapAllocBytes() - a0
		var p probe
		p.after(cpu)
		loopWall += wall.Seconds() * p.scale()
		loopCPU += cpu.Seconds() * p.scale()
		timed = append(timed, srs...)
		timedErrs = append(timedErrs, werrs...)
		for range srs {
			scales = append(scales, p.scale())
		}
	}
	all := append(warm, timed...)
	r.attempted = len(all) + len(errs) + len(timedErrs)
	for _, err := range append(errs, timedErrs...) {
		r.fail(err)
	}

	// The first session of each upload is its reference; the library's
	// own run of the spec must agree with it.
	var out outcome
	refs := make([]*sessionResult, len(ups))
	for i := range all {
		sr := &all[i]
		up := ups[sr.upload]
		ref := refs[sr.upload]
		if ref == nil {
			refs[sr.upload] = sr
			ref = sr
		}
		switch {
		case sr.gaps > 0:
			// Every gap record counts as a failure of its own.
			r.fail(fmt.Errorf("session stream dropped events (%d gap records)", sr.gaps))
			r.failed += sr.gaps - 1
		case sr.arrived != up.tasks:
			r.fail(fmt.Errorf("session stream has %d TaskArrived events, upload %d has %d tasks", sr.arrived, sr.upload, up.tasks))
		case sr.streamHash != ref.streamHash || sr.reportHash != ref.reportHash:
			r.fail(fmt.Errorf("upload %d: session output hashes %s/%s differ from its first session's %s/%s",
				sr.upload, sr.streamHash, sr.reportHash, ref.streamHash, ref.reportHash))
		}
	}
	var hashes []string
	for i, ref := range refs {
		want, err := gfsdReference(ups[i], &out)
		if err != nil {
			r.fail(err)
			return r
		}
		if ref != nil && ref.reportHash != want {
			r.fail(fmt.Errorf("upload %d: session report differs from the library's report of the same spec", i))
		}
		hashes = append(hashes, want)
	}
	r.info["hash"] = sha256Hex([]byte(strings.Join(hashes, "")))
	r.info["sessions"] = len(timed)
	r.info["clients"] = clients
	r.info["max_rss_mb"] = maxRSSMB()
	evr, sjqt, hjqt, alloc := out.metrics()
	r.info["outcomes"] = map[string]float64{
		"spot_eviction_rate": evr, "spot_jqt_s": sjqt, "hp_jqt_s": hjqt, "gpu_alloc_rate": alloc,
	}
	if len(timed) == 0 {
		return r
	}

	m := r.metrics
	pick := func(f func(sessionResult) time.Duration) []float64 {
		xs := make([]float64, len(timed))
		for i, sr := range timed {
			xs[i] = f(sr).Seconds()
		}
		return xs
	}
	var totals []float64
	for i, sr := range timed {
		totals = append(totals, sr.total.Seconds()*scales[i])
	}
	m["run_s"] = loopCPU / float64(len(timed))
	m["setup_s"] = medianSetup(setups, setupTimes.total)
	m["session_p50_s"] = median(totals)
	m["sessions_per_s"] = float64(len(timed)) / loopWall
	m["alloc_mb"] = float64(allocated) / float64(len(timed)) / 1e6
	if !cfg.traced {
		return r
	}

	var events, streamBytes []float64
	for _, sr := range timed {
		events = append(events, float64(sr.events))
		streamBytes = append(streamBytes, float64(sr.streamBytes))
	}
	m["service.create_ms"] = 1e3 * median(pick(func(s sessionResult) time.Duration { return s.create }))
	m["service.first_event_ms"] = 1e3 * median(pick(func(s sessionResult) time.Duration { return s.firstEvent }))
	m["service.stream_s"] = median(pick(func(s sessionResult) time.Duration { return s.stream }))
	m["service.report_ms"] = 1e3 * median(pick(func(s sessionResult) time.Duration { return s.report }))
	m["service.events"] = median(events)
	m["service.stream_bytes"] = median(streamBytes)
	for _, sr := range all {
		m["service.gap_events"] += float64(sr.gaps)
	}
	var decodes, tasks []float64
	for _, up := range ups {
		d, n, err := decodeTrace(up.body)
		if err == nil && n != up.tasks {
			err = fmt.Errorf("decoded %d tasks, upload has %d", n, up.tasks)
		}
		if err != nil {
			r.fail(fmt.Errorf("decoding trace: %w", err))
			return r
		}
		decodes = append(decodes, d.Seconds())
		tasks = append(tasks, float64(n))
	}
	m["trace.decode_s"] = median(decodes)
	m["trace.tasks"] = median(tasks)
	m["setup.trace_s"] = medianSetup(setups, func(s setupTimes) time.Duration { return s.trace })
	m["spot_eviction_rate"], m["spot_jqt_s"], m["hp_jqt_s"], m["gpu_alloc_rate"] = evr, sjqt, hjqt, alloc
	m["failed_share"] = ratio(float64(r.failed), float64(r.attempted))
	return r
}
