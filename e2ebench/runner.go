package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ipusparse/internal/serve"
)

// phase collects one stretch of the run: warm-up, a timed phase or the batch
// probe.
type phase struct {
	mu        sync.Mutex
	solve     []float64 // single-RHS solve request latencies
	batch     []float64 // 8-RHS batch request latencies
	step      []float64 // closed-loop step latencies
	refreshed []float64 // UpdateInfo.Refreshed per PATCH
	rhs       int       // verified right-hand sides
	iters     int       // solver iterations over verified right-hand sides
	frozen    int       // iters when freeze was first called, -1 before
	wall      float64   // timed phase wall time
}

func newPhase() *phase { return &phase{frozen: -1} }

func (p *phase) add(dst *[]float64, v float64) {
	p.mu.Lock()
	*dst = append(*dst, v)
	p.mu.Unlock()
}

func (p *phase) addStep(v float64, err error) {
	if err == nil {
		p.add(&p.step, v)
	}
}

func (p *phase) addAnswers(n, iters int) {
	p.mu.Lock()
	p.rhs += n
	p.iters += iters
	p.mu.Unlock()
}

// freeze records the iteration count so far; later calls keep the first.
func (p *phase) freeze() {
	p.mu.Lock()
	if p.frozen < 0 {
		p.frozen = p.iters
	}
	p.mu.Unlock()
}

// runner drives one workload against one started stack.
type runner struct {
	wl          *workload
	seed        int64
	st          *stack
	tr          *tracer
	systems     []*system
	totalWeight float64
	tally       tally
	cur         *phase
}

func (r *runner) warmClient() *client {
	return &client{rng: newRand(r.seed, 100)}
}

// solve sends one single-RHS solve for system i, checks the answer and
// returns the request latency.
func (r *runner) solve(ctx context.Context, c *client, i int) (float64, error) {
	s := r.systems[i]
	m, gen := s.current()
	b := rhsFor(m, c.rng)
	id := r.tr.newID()
	var resp serve.SolveResponse
	start, err := r.st.call(ctx, "POST", "/v1/systems/"+s.id+"/solve", serve.SolveRequest{B: b}, &resp, id)
	rr := 0.0
	if err == nil {
		rr, err = checkAnswer(m, b, resp.X, resp.Converged, r.wl.tol)
	}
	end := time.Now()
	r.tally.record(fmt.Sprintf("client %d op %d solve %s gen %d", c.idx, c.ops, s.spec, gen), rr, err)
	lat := end.Sub(start).Seconds()
	if err != nil {
		return lat, err
	}
	r.cur.add(&r.cur.solve, lat)
	r.cur.addAnswers(1, resp.Iterations)
	if id > 0 {
		r.tr.add(span{layer: "client", name: "solve", path: "/v1/systems/" + s.id + "/solve",
			id: id, sys: i, iters: resp.Iterations, start: start, end: end})
	}
	return lat, nil
}

// batch sends one k-RHS batch request for system i and checks every answer;
// the request fails if any answer does. It returns the request latency.
func (r *runner) batch(ctx context.Context, c *client, i, k int) (float64, error) {
	s := r.systems[i]
	m, gen := s.current()
	bs := make([][]float64, k)
	for j := range bs {
		bs[j] = rhsFor(m, c.rng)
	}
	id := r.tr.newID()
	var resp serve.BatchResponse
	start, err := r.st.call(ctx, "POST", "/v1/systems/"+s.id+"/solve", serve.SolveRequest{Batch: bs}, &resp, id)
	worst, iters := 0.0, 0
	if err == nil && len(resp.Results) != k {
		err = fmt.Errorf("batch answered %d of %d right-hand sides", len(resp.Results), k)
	}
	for j := 0; err == nil && j < k; j++ {
		it := resp.Results[j]
		if it.Error != "" {
			err = fmt.Errorf("rhs %d: %s", j, it.Error)
			break
		}
		var rr float64
		rr, err = checkAnswer(m, bs[j], it.X, it.Converged, r.wl.tol)
		if err != nil {
			err = fmt.Errorf("rhs %d: %w", j, err)
		}
		worst = max(worst, rr)
		iters += it.Iterations
	}
	end := time.Now()
	r.tally.record(fmt.Sprintf("client %d op %d batch%d %s gen %d", c.idx, c.ops, k, s.spec, gen), worst, err)
	lat := end.Sub(start).Seconds()
	if err != nil {
		return lat, err
	}
	if k == batchSize {
		r.cur.add(&r.cur.batch, lat)
	}
	r.cur.addAnswers(k, iters)
	if id > 0 {
		r.tr.add(span{layer: "client", name: "batch", path: "/v1/systems/" + s.id + "/solve",
			id: id, sys: i, iters: iters, start: start, end: end})
	}
	return lat, nil
}

// patch PATCHes seeded drifted values into system i and, once the service
// acknowledges the new generation, makes them the system's current matrix.
// It returns the request latency.
func (r *runner) patch(ctx context.Context, c *client, i int) (float64, error) {
	s := r.systems[i]
	_, gen := s.current()
	next := drift(s.base, c.rng)
	id := r.tr.newID()
	var info serve.UpdateInfo
	start, err := r.st.call(ctx, "PATCH", "/v1/systems/"+s.id,
		serve.UpdateRequest{Diag: next.Diag, Vals: next.Vals}, &info, id)
	end := time.Now()
	if err == nil && (info.ID != s.id || info.Generation != gen+1) {
		err = fmt.Errorf("PATCH answered system %s generation %d, want %s generation %d", info.ID, info.Generation, s.id, gen+1)
	}
	r.tally.record(fmt.Sprintf("client %d op %d patch %s gen %d", c.idx, c.ops, s.spec, gen+1), 0, err)
	lat := end.Sub(start).Seconds()
	if err != nil {
		return lat, err
	}
	s.mu.Lock()
	s.m, s.gen = next, info.Generation
	s.mu.Unlock()
	r.cur.add(&r.cur.refreshed, float64(info.Refreshed))
	if id > 0 {
		r.tr.add(span{layer: "client", name: "patch", path: "/v1/systems/" + s.id, id: id, sys: i, start: start, end: end})
	}
	return lat, nil
}

// timed runs the closed loop with the workload's clients for d and returns
// the phase it recorded. Requests started before the deadline complete and
// count; a failed request is counted and the loop goes on.
func (r *runner) timed(ctx context.Context, d time.Duration, salt int64) *phase {
	p := newPhase()
	r.cur = p
	deadline := time.Now().Add(d)
	start := time.Now()
	var wg sync.WaitGroup
	for ci := 0; ci < r.wl.clients; ci++ {
		c := &client{idx: ci, rng: newRand(r.seed, salt*10+int64(ci))}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				_ = r.wl.step(ctx, r, c) // failures are in r.tally
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start).Seconds()
	return p
}

// procSample reads the process counters a phase's proc metrics are deltas of.
type procSample struct {
	cpu       float64 // user + system CPU seconds
	alloc     uint64  // bytes allocated
	pause     uint64  // GC stop-the-world nanoseconds
	heapInuse uint64
	serve     serve.Stats
	failovers uint64
	// steal and ticks are the host's stolen and total CPU ticks.
	steal, ticks uint64
}

func readProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	p := procSample{
		cpu:   tv(ru.Utime) + tv(ru.Stime),
		alloc: ms.TotalAlloc, pause: ms.PauseTotalNs,
		heapInuse: ms.HeapInuse,
	}
	p.steal, p.ticks = cpuTicks()
	return p
}

// cpuTicks reads the stolen and total CPU ticks of the host from /proc/stat
// (0, 0 where it is unavailable). A virtual machine whose host is busy loses
// ticks to steal, and every wall-clock metric of the run slows with it.
func cpuTicks() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func (r *runner) sample() procSample {
	p := readProc()
	p.serve = r.st.serveStats()
	p.failovers = r.st.failovers()
	return p
}

// newRand returns the seeded stream of one input source of the run.
func newRand(seed, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + salt*101))
}
