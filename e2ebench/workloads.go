package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"ipusparse/internal/config"
	"ipusparse/internal/ipu"
	"ipusparse/internal/serve"
	"ipusparse/internal/sparse"
)

// workload is one traffic mix against one deployment of the service. Every
// workload is a closed loop: each client waits for its answer before it sends
// the next request.
type workload struct {
	name    string
	clients int
	machine ipu.Config
	cfg     config.Config
	tol     float64 // solver tolerance the answers are checked against
	spmvs   int     // SpMVs per solver iteration, for the computed nnz rate
	specs   []string
	shards  int
	routed  bool
	// cacheCapacity, when set, sizes each shard's pipeline cache so every
	// registered system stays resident (the default of 8 would evict).
	cacheCapacity int
	step          func(ctx context.Context, r *runner, c *client) error
	warmup        func(ctx context.Context, r *runner) error
}

const batchSize = 8

func jacobiCG(tol float64) config.Config {
	return config.Config{Solver: config.SolverConfig{
		Type: "cg", MaxIterations: 2000, Tolerance: tol,
		Preconditioner: &config.SolverConfig{Type: "jacobi"},
	}}
}

// smallMachine is the service's default 64-tile single-chip machine.
func smallMachine() ipu.Config {
	mc := ipu.Mk2M2000()
	mc.TilesPerChip = 64
	mc.Chips = 1
	return mc
}

var workloads = map[string]*workload{
	// Table X scale: SpMV, halo exchange and vector ops carry almost all of
	// each request; no router, no ILU.
	"m2000-cg": {
		name: "m2000-cg", clients: 1, machine: ipu.Mk2M2000(),
		cfg: jacobiCG(1e-8), tol: 1e-8, spmvs: 1,
		specs: []string{"poisson3d:48"}, shards: 1,
		step: stepSolve, warmup: warmFill,
	},
	// Millisecond solves through the router: the request path dominates. The
	// order of specs is the popularity rank of the skewed draw, interleaving
	// the generators so no family dominates. One client: with two, both
	// cores saturate and the run-to-run spread on a shared 2-core host exceeded
	// every bound the benchmark may set.
	"small-routed": {
		name: "small-routed", clients: 1, machine: smallMachine(),
		cfg: jacobiCG(1e-8), tol: 1e-8, spmvs: 1,
		specs: []string{
			"poisson3d:14", "poisson2d:52", "stencil27:13", "poisson3d:16",
			"poisson2d:60", "stencil27:15", "poisson3d:12", "poisson2d:42",
			"stencil27:12", "poisson3d:15", "poisson2d:64", "stencil27:16",
			"poisson3d:13", "poisson2d:48", "stencil27:14", "poisson2d:56",
		},
		shards: 2, routed: true, cacheCapacity: 32,
		step: stepRouted, warmup: warmRouted,
	},
	// Writes beside reads: every step PATCHes drifted values (refreshing the
	// warm replicas in place and refactoring ILU) and then solves.
	"stream-refresh": {
		name: "stream-refresh", clients: 1, machine: smallMachine(),
		cfg: streamingConfig(), tol: 1e-9, spmvs: 2,
		specs: []string{"convdiff2d:96:1"}, shards: 1,
		step: stepRefresh, warmup: warmFill,
	},
}

// streamingConfig is the serving default solver of configs/serve-streaming.json:
// MPIR with double-word arithmetic around ILU(0)-PBiCGStab.
func streamingConfig() config.Config {
	return config.Config{
		Solver: config.SolverConfig{
			Type: "pbicgstab", MaxIterations: 2000, Tolerance: 1e-9,
			Preconditioner: &config.SolverConfig{Type: "ilu0"},
		},
		MPIR: &config.MPIRConfig{Extended: "dw", InnerIterations: 100, MaxOuter: 50, Tolerance: 1e-9},
	}
}

func (wl *workload) serveOptions() serve.Options {
	return serve.Options{
		Machine:       wl.machine,
		Backend:       "native",
		Solver:        wl.cfg,
		CacheCapacity: wl.cacheCapacity,
	}
}

// system is one registered linear system with the benchmark's own float64
// copy of its current matrix, against which every answer is checked.
type system struct {
	spec   string
	id     string
	base   *sparse.Matrix // as registered
	weight float64        // skewed-draw weight

	mu  sync.Mutex
	m   *sparse.Matrix // current values generation
	gen int
}

func (s *system) current() (*sparse.Matrix, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m, s.gen
}

// client is one closed-loop caller with its own seeded stream of inputs.
type client struct {
	idx int
	rng *rand.Rand
	ops int
}

// rhsFor returns a dense seeded right-hand side b = A·x* with x* uniform in
// [0.5, 1.5).
func rhsFor(m *sparse.Matrix, rng *rand.Rand) []float64 {
	xs := make([]float64, m.N)
	for i := range xs {
		xs[i] = 0.5 + rng.Float64()
	}
	b := make([]float64, m.N)
	m.MulVec(xs, b)
	return b
}

// stepSolve is one single-RHS solve against the only system.
func stepSolve(ctx context.Context, r *runner, c *client) error {
	c.ops++
	lat, err := r.solve(ctx, c, 0)
	r.cur.addStep(lat, err)
	return err
}

// pick draws a system by the skewed popularity weights.
func (r *runner) pick(rng *rand.Rand) int {
	u := rng.Float64() * r.totalWeight
	for i, s := range r.systems {
		if u < s.weight {
			return i
		}
		u -= s.weight
	}
	return len(r.systems) - 1
}

// stepRouted is one cycle of the routed client's request pattern: four
// requests to systems drawn by the skewed law, one of them an 8-RHS batch,
// staggered so two clients would not batch in step. The step's latency is the
// sum of its requests' latencies.
func stepRouted(ctx context.Context, r *runner, c *client) error {
	total := 0.0
	for k := 0; k < 4; k++ {
		i := r.pick(c.rng)
		c.ops++
		var lat float64
		var err error
		if (c.ops+2*c.idx)%4 == 0 {
			lat, err = r.batch(ctx, c, i, batchSize)
		} else {
			lat, err = r.solve(ctx, c, i)
		}
		if err != nil {
			return err
		}
		total += lat
	}
	r.cur.add(&r.cur.step, total)
	return nil
}

// drift returns the base matrix with every off-diagonal value scaled by a
// seeded factor in [0.95, 1.05) and a diagonal 2–5% above the row's absolute
// off-diagonal sum, so the matrix stays diagonally dominant and every step
// changes its values.
func drift(base *sparse.Matrix, rng *rand.Rand) *sparse.Matrix {
	m := &sparse.Matrix{
		N: base.N, RowPtr: base.RowPtr, Cols: base.Cols,
		Diag: make([]float64, base.N), Vals: make([]float64, len(base.Vals)),
	}
	for i := 0; i < m.N; i++ {
		off := 0.0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			m.Vals[k] = base.Vals[k] * (0.95 + 0.1*rng.Float64())
			if m.Vals[k] < 0 {
				off -= m.Vals[k]
			} else {
				off += m.Vals[k]
			}
		}
		m.Diag[i] = off * (1.02 + 0.03*rng.Float64())
	}
	return m
}

// stepRefresh PATCHes drifted values into the system, then solves a new
// seeded right-hand side against them.
func stepRefresh(ctx context.Context, r *runner, c *client) error {
	c.ops++
	p, err := r.patch(ctx, c, 0)
	if err != nil {
		return err
	}
	lat, err := r.solve(ctx, c, 0)
	r.cur.addStep(p+lat, err)
	return err
}

// warmFill warms a single-system workload: one step, then a 2-RHS batch so
// the second pooled replica is prepared, as in a service that has served two
// requests at once (each stream-refresh PATCH then refreshes both replicas in
// place), then one more step.
func warmFill(ctx context.Context, r *runner) error {
	c := r.warmClient()
	if err := r.wl.step(ctx, r, c); err != nil {
		return err
	}
	if _, err := r.batch(ctx, c, 0, 2); err != nil {
		return err
	}
	return r.wl.step(ctx, r, c)
}

// warmRouted sends an 8-RHS batch to every system so both pooled replicas on
// its owner shard are prepared (a batch, or two clients, can use both), and
// repeats until a pass prepares nothing new.
func warmRouted(ctx context.Context, r *runner) error {
	c := r.warmClient()
	for pass := 0; pass < 3; pass++ {
		before := r.st.serveStats().CacheMisses
		for i := range r.systems {
			if _, err := r.batch(ctx, c, i, batchSize); err != nil {
				return err
			}
		}
		if pass == 0 {
			r.cur.freeze() // the first pass is identical on every run of a seed
		}
		if r.st.serveStats().CacheMisses == before {
			break
		}
	}
	for i := 0; i < len(r.systems)/2; i++ {
		if err := stepRouted(ctx, r, c); err != nil {
			return err
		}
	}
	return nil
}

// weights assigns the skewed-draw weights: the k-th system (0-based) gets
// 1/(k+1), a Zipf law with exponent 1.
func weights(systems []*system) float64 {
	total := 0.0
	for k, s := range systems {
		s.weight = 1 / float64(k+1)
		total += s.weight
	}
	return total
}

func specMatrix(spec string) (*sparse.Matrix, error) {
	m, err := sparse.GenByName(spec)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", spec, err)
	}
	return m, nil
}
