package main

import (
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ipusparse/internal/telemetry"
)

// requestIDHeader carries the client's request ID to the router's span. The
// router does not forward it to the shards, so shard spans are linked to
// client requests by path and time containment instead.
const requestIDHeader = "X-Bench-Request"

// span is one timed call into a layer, recorded by the benchmark's own code
// around the layer's public entry point.
type span struct {
	layer string // client, cluster, serve or core
	name  string // operation: solve, batch, patch, prepare, solveinto
	path  string
	id    int64 // client request ID (client and cluster spans)
	shard int   // serve spans: shard index
	sys   int   // client spans: system index
	iters int   // client spans: solver iterations over the request's answers

	start, end time.Time

	// Serve spans only: exclusive is set when no other request overlapped
	// this one on its shard, so d holds this request's histogram deltas alone.
	exclusive bool
	d         hsnap
}

func (s span) dur() float64 { return s.end.Sub(s.start).Seconds() }

// tracer keeps spans in memory while on; the spans are analysed and written
// out when the run ends.
type tracer struct {
	on     atomic.Bool
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// newID returns a fresh request ID while tracing, 0 otherwise.
func (t *tracer) newID() int64 {
	if !t.enabled() {
		return 0
	}
	return t.nextID.Add(1)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// routerMiddleware records a cluster span around the router's handler.
func (t *tracer) routerMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseInt(r.Header.Get(requestIDHeader), 10, 64)
		if !t.enabled() || id == 0 {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		t.add(span{layer: "cluster", name: r.Method, path: r.URL.Path, id: id, start: start, end: time.Now()})
	})
}

// hsnap is a reading of a shard's existing histograms: the serve solve
// latency (queue pickup to answer) and the core execute and refresh phases.
type hsnap struct {
	jobSum, execSum, refreshSum float64
	jobN, execN, refreshN       uint64
}

func (a hsnap) sub(b hsnap) hsnap {
	return hsnap{
		jobSum: a.jobSum - b.jobSum, execSum: a.execSum - b.execSum, refreshSum: a.refreshSum - b.refreshSum,
		jobN: a.jobN - b.jobN, execN: a.execN - b.execN, refreshN: a.refreshN - b.refreshN,
	}
}

// shardHistograms are a shard's existing histograms, resolved by name.
type shardHistograms struct {
	job, exec, refresh, partition, schedule, compile *telemetry.Histogram
}

// resolveHistograms looks the histograms up in a shard's registry. Call it
// after the first Prepare, which registers the core phase family; the bounds
// given here match the program's and are ignored for existing families.
func resolveHistograms(reg *telemetry.Registry) *shardHistograms {
	phases := reg.HistogramVec("core_phase_seconds", "", telemetry.ExponentialBuckets(1e-5, 10, 8), "phase")
	return &shardHistograms{
		job:       reg.Histogram("serve_solve_latency_seconds", "", telemetry.ExponentialBuckets(0.0005, 2, 16)),
		exec:      phases.With("execute"),
		refresh:   phases.With("refresh"),
		partition: phases.With("partition"),
		schedule:  phases.With("schedule"),
		compile:   phases.With("compile"),
	}
}

func (h *shardHistograms) read() hsnap {
	return hsnap{
		jobSum: h.job.Sum(), jobN: h.job.Count(),
		execSum: h.exec.Sum(), execN: h.exec.Count(),
		refreshSum: h.refresh.Sum(), refreshN: h.refresh.Count(),
	}
}

// shardMiddleware records a serve span around the shard's handler for every
// solve and PATCH request, with the shard's histogram deltas across it.
type shardMiddleware struct {
	tr    *tracer
	next  http.Handler
	index int
	hist  atomic.Pointer[shardHistograms] // set once the first Prepare registered them

	inflight atomic.Int64
	entries  atomic.Int64
}

func isWork(r *http.Request) bool {
	return r.Method == http.MethodPatch ||
		r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/solve")
}

func (m *shardMiddleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h := m.hist.Load()
	if !m.tr.enabled() || h == nil || !isWork(r) {
		m.next.ServeHTTP(w, r)
		return
	}
	e0 := m.entries.Add(1)
	n := m.inflight.Add(1)
	before := h.read()
	start := time.Now()
	m.next.ServeHTTP(w, r)
	end := time.Now()
	after := h.read()
	exclusive := n == 1 && m.entries.Load() == e0
	m.inflight.Add(-1)
	m.tr.add(span{
		layer: "serve", name: r.Method, path: r.URL.Path, shard: m.index,
		start: start, end: end, exclusive: exclusive, d: after.sub(before),
	})
}

// writeChrome writes the spans as Chrome trace-event JSON through the
// program's own trace exporter, one track per layer.
func writeChrome(path string, spans []span) error {
	if len(spans) == 0 {
		return nil
	}
	origin := spans[0].start
	for _, s := range spans {
		if s.start.Before(origin) {
			origin = s.start
		}
	}
	lanes := map[string]int{"client": 1, "cluster": 2, "serve": 3, "core": 9}
	tr := &telemetry.Trace{}
	for _, s := range spans {
		tid := lanes[s.layer]
		if s.layer == "serve" {
			tid += s.shard
		}
		tr.Add(telemetry.Span{
			Name: s.layer + "." + s.name + " " + s.path, Cat: s.layer,
			TS:  float64(s.start.Sub(origin).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			PID: telemetry.PIDHost, TID: tid,
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
