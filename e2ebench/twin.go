package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"time"

	"ipusparse/internal/core"
	"ipusparse/internal/serve"
	"ipusparse/internal/sparse"
)

// twinResult holds the direct measurements of the traced run: a pipeline
// prepared straight through core for the workload's most requested system,
// and the request codec and host verification at each system's size.
type twinResult struct {
	exchanges, moves int
	solveInto        float64 // median warm SolveInto seconds
	allocs           float64 // heap allocations per warm SolveInto
	pipelineMB       float64 // heap growth across the direct Prepare
	codec, verify    []float64
}

// measureTwin runs after the stack is closed, so no other goroutine
// allocates while SolveInto's allocations are counted.
func measureTwin(wl *workload, systems []*system, seed int64, tr *tracer) (twinResult, error) {
	var out twinResult
	rng := newRand(seed, 4)
	m, _ := systems[0].current()

	settleHeap()
	before := readProc().heapInuse
	start := time.Now()
	p, err := core.Prepare(wl.machine, m, wl.cfg, core.PartitionContiguous, core.WithBackend("native"))
	if err != nil {
		return out, err
	}
	tr.add(span{layer: "core", name: "prepare", path: systems[0].spec, start: start, end: time.Now()})
	settleHeap()
	out.pipelineMB = (float64(readProc().heapInuse) - float64(before)) / 1e6
	info := p.Info()
	out.exchanges, out.moves = info.Report.Exchanges, info.Report.Moves

	x := make([]float64, m.N)
	b := rhsFor(m, rng)
	if _, err := p.SolveInto(x, b); err != nil { // grows every buffer once
		return out, err
	}
	reps := 2
	if m.N < 50000 {
		reps = 8
	}
	starts := make([]time.Time, reps)
	ends := make([]time.Time, reps)
	m0 := mallocs()
	for i := 0; i < reps; i++ {
		starts[i] = time.Now()
		if _, err := p.SolveInto(x, b); err != nil {
			return out, err
		}
		ends[i] = time.Now()
	}
	out.allocs = float64(mallocs()-m0) / float64(reps)
	times := make([]float64, reps)
	for i := range times {
		times[i] = ends[i].Sub(starts[i]).Seconds()
		tr.add(span{layer: "core", name: "solveinto", path: systems[0].spec, start: starts[i], end: ends[i]})
	}
	out.solveInto = median(times)

	for _, s := range systems {
		m, _ := s.current()
		c, v := codecAndVerify(m, rng)
		out.codec = append(out.codec, c)
		out.verify = append(out.verify, v)
	}
	return out, nil
}

// mallocs reads the process's cumulative heap allocation count; reading it
// allocates nothing.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// settleHeap collects garbage until the in-use heap stops shrinking, so a
// heap delta is not disturbed by garbage the closed stack left behind.
func settleHeap() {
	prev := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		runtime.GC()
		cur := readProc().heapInuse
		if cur >= prev {
			return
		}
		prev = cur
	}
}

// codecAndVerify times, at m's size, one JSON round trip of a single-RHS
// solve request and its response, and the service's host verification
// (one SpMV and two norms); each is the median of repeated runs.
func codecAndVerify(m *sparse.Matrix, rng *rand.Rand) (codec, verify float64) {
	b := rhsFor(m, rng)
	x := rhsFor(m, rng)
	var ct, vt []float64
	budget := time.Now().Add(100 * time.Millisecond)
	for i := 0; i < 5 || i < 200 && time.Now().Before(budget); i++ {
		start := time.Now()
		raw, _ := json.Marshal(serve.SolveRequest{B: b})
		var req serve.SolveRequest
		_ = json.Unmarshal(raw, &req)
		raw, _ = json.Marshal(serve.SolveResponse{Converged: true, Iterations: 100, RelRes: 1e-9, Solver: "cg", X: x})
		var resp serve.SolveResponse
		_ = json.Unmarshal(raw, &resp)
		ct = append(ct, time.Since(start).Seconds())

		start = time.Now()
		y := make([]float64, m.N)
		m.MulVec(x, y)
		var rn, bn float64
		for j := range y {
			d := b[j] - y[j]
			rn += d * d
			bn += b[j] * b[j]
		}
		sink = math.Sqrt(rn / bn)
		vt = append(vt, time.Since(start).Seconds())
	}
	return median(ct), median(vt)
}

// sink keeps the verification arithmetic from being optimized away.
var sink float64
