// Command e2ebench is the repository's end-to-end benchmark. It starts the
// real serve service (and, for the routed workload, the cluster router) in
// process on loopback HTTP, drives a seeded closed-loop workload against it,
// checks every answer against its own float64 copy of the matrix and prints
// every metric by name and unit. See README.md for the workloads, the metric
// map and the run, traced and compare modes.
//
//	e2ebench --workload m2000-cg --seed 1 --seconds 30 --trace 0
//	e2ebench compare <parent-results-dir> <change-results-dir>
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ipusparse/internal/serve"
)

// A run builds the stack and registers the workload's systems at least
// minSetupRounds times, and more while the rounds together took less than
// setupBudget (at most maxSetupRounds); setup_s is the median round.
const (
	minSetupRounds = 3
	maxSetupRounds = 100
	setupBudget    = 2 * time.Second
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:]))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // repository root: BENCHMARK.json and the sources
	out      string // results directory
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 30, "timed-phase length in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced mode and prints the per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "repository root")
	fs.StringVar(&o.out, "out", "", "results directory (default <root>/.bench_build/results)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if o.out == "" {
		o.out = filepath.Join(o.root, ".bench_build", "results")
	}
	if _, ok := workloads[o.workload]; !ok || o.seconds < 1 || trace < 0 || trace > 1 {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	rec, err := execute(context.Background(), o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	report(os.Stderr, rec)
	if err := saveRecord(o.out, rec); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: saving result: %v\n", err)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	fmt.Println(string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detail is what a metric was computed from: its sample count and, for a
// tail metric, the percentile reported.
type detail struct {
	Samples    int     `json:"samples"`
	Percentile float64 `json:"percentile,omitempty"`
}

// record is one run's full result, saved for compare mode and for the
// same-seed invariant check.
type record struct {
	Meta       runMeta            `json:"meta"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Metrics    map[string]metric  `json:"metrics"`
	Details    map[string]detail  `json:"details"`
	Invariants map[string]float64 `json:"invariants"`
	MaxRelRes  float64            `json:"maxTrueRelRes"`
	Drift      []string           `json:"drift,omitempty"`
	Failures   []string           `json:"failures,omitempty"`
}

// set records a metric; a statistic of no samples (a run whose requests all
// failed) reads 0, which JSON can carry and NaN cannot.
func (rec *record) set(name string, v float64, unit string, samples int) {
	if math.IsNaN(v) {
		v = 0
	}
	rec.Metrics[name] = metric{Value: v, Unit: unit}
	rec.Details[name] = detail{Samples: samples}
}

func (rec *record) setTail(name string, values []float64) {
	p, v := tail(values)
	rec.set(name, v, "s", len(values))
	rec.Details[name] = detail{Samples: len(values), Percentile: p}
}

// setup builds the stack and registers every system one request at a time,
// round after round; all rounds but the last are torn down. It returns the
// registration wall time of each round and the last round's stack.
func setup(ctx context.Context, wl *workload, systems []*system, tr *tracer) ([]float64, *stack, error) {
	var times []float64
	var st *stack
	for total := 0.0; len(times) < minSetupRounds || len(times) < maxSetupRounds && total < setupBudget.Seconds(); {
		if st != nil {
			st.close()
			st = nil
			runtime.GC()
		}
		var err error
		st, err = startStack(wl.serveOptions(), wl.shards, wl.routed, tr)
		if err != nil {
			return nil, nil, err
		}
		start := time.Now()
		for _, s := range systems {
			cfg := wl.cfg
			var info serve.SystemInfo
			if _, err := st.call(ctx, "POST", "/v1/systems", serve.RegisterRequest{Gen: s.spec, Config: &cfg}, &info, 0); err != nil {
				st.close()
				return nil, nil, fmt.Errorf("registering %s: %w", s.spec, err)
			}
			if info.N != s.base.N || info.NNZ != s.base.NNZ() {
				st.close()
				return nil, nil, fmt.Errorf("registering %s: service holds %d rows / %d nnz, benchmark %d / %d",
					s.spec, info.N, info.NNZ, s.base.N, s.base.NNZ())
			}
			s.id = info.ID
		}
		times = append(times, time.Since(start).Seconds())
		total += times[len(times)-1]
	}
	return times, st, nil
}

func execute(ctx context.Context, o options) (*record, error) {
	wl := workloads[o.workload]
	rec := &record{
		Meta:       collectMeta(o.root, o.workload, o.seed, o.seconds, o.trace),
		Metrics:    map[string]metric{},
		Details:    map[string]detail{},
		Invariants: map[string]float64{},
	}
	var tr *tracer
	if o.trace {
		tr = &tracer{}
	}
	systems := make([]*system, len(wl.specs))
	for i, spec := range wl.specs {
		m, err := specMatrix(spec)
		if err != nil {
			return nil, err
		}
		systems[i] = &system{spec: spec, base: m, m: m, gen: 1}
	}
	setupTimes, st, err := setup(ctx, wl, systems, tr)
	if err != nil {
		return nil, err
	}
	r := &runner{wl: wl, seed: o.seed, st: st, tr: tr, systems: systems, totalWeight: weights(systems)}
	hists := make([]*shardHistograms, len(st.shards))
	for i, sh := range st.shards {
		hists[i] = resolveHistograms(sh.reg)
		if sh.mw != nil {
			sh.mw.hist.Store(hists[i])
		}
	}

	// A failed warm-up request is counted and listed like any other; the
	// run goes on so the result reports it.
	r.cur = newPhase()
	_ = wl.warmup(ctx, r)
	r.cur.freeze()
	rec.Invariants["solver.warmup_iterations"] = float64(r.cur.frozen)

	d := time.Duration(o.seconds) * time.Second
	if !o.trace {
		before := r.sample()
		p := r.timed(ctx, d, 1)
		after := r.sample()
		settleHeap()
		heap := readProc().heapInuse
		st.close()
		rec.set("setup_s", median(setupTimes), "s", len(setupTimes))
		rec.set("solve_p50_s", median(p.solve), "s", len(p.solve))
		rec.setTail("solve_tail_s", p.solve)
		rec.set("step_p50_s", median(p.step), "s", len(p.step))
		rec.setTail("step_tail_s", p.step)
		rec.set("rhs_per_s", float64(p.rhs)/p.wall, "1/s", p.rhs)
		rec.set("heap_mb", float64(heap)/1e6, "MB", 1)
		countInvariants(rec, before, after)
		rec.Meta.StealShare = stealShare(before, after)
	} else {
		half := d / 2
		a0 := r.sample()
		pa := r.timed(ctx, half, 1)
		a1 := r.sample()
		tr.on.Store(true)
		pb := r.timed(ctx, half, 2)
		tr.on.Store(false)
		b1 := r.sample()
		setupPhases := readSetupPhases(hists)
		st.close()
		tw, err := measureTwin(wl, systems, o.seed, tr)
		if err != nil {
			return nil, fmt.Errorf("twin pipeline: %w", err)
		}
		spans := tr.snapshot()
		tracePath := filepath.Join(filepath.Dir(o.out), "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := writeChrome(tracePath, spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "spans: %d written to %s\n", len(spans), tracePath)
		perLayer(rec, r, pa, pb, a0, a1, b1, spans, tw, setupPhases)
		countInvariants(rec, a0, b1)
		rec.Meta.StealShare = stealShare(a0, b1)
		rec.Invariants["graph.exchanges"] = float64(tw.exchanges)
		rec.Invariants["graph.moves"] = float64(tw.moves)
		rec.Invariants["core.solveinto_allocs"] = tw.allocs
	}
	rec.Attempted, rec.Failed = r.tally.attempted, r.tally.failed
	rec.Failures = r.tally.failureList()
	rec.MaxRelRes = r.tally.maxRelRes
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	rec.Drift = invariantDrift(o.out, rec)
	return rec, nil
}

// countInvariants records the counts that must read 0 in the timed phase.
func countInvariants(rec *record, before, after procSample) {
	rec.Invariants["serve.cold_prepares"] = float64(after.serve.CacheMisses - before.serve.CacheMisses)
	rec.Invariants["serve.retries"] = float64(after.serve.Retries - before.serve.Retries)
	rec.Invariants["serve.verify_failed"] = float64(after.serve.VerifyFailed - before.serve.VerifyFailed)
	rec.Invariants["cluster.failovers"] = float64(after.failovers - before.failovers)
}

func stealShare(a, b procSample) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.ticks-a.ticks))
}

// setupPhases is the mean per-Prepare partition, schedule and compile time of
// the last setup round, read from the shards' core phase histograms.
type setupPhases struct{ partition, schedule, compile float64 }

func readSetupPhases(hists []*shardHistograms) setupPhases {
	var sp setupPhases
	mean := func(get func(*shardHistograms) (float64, uint64)) float64 {
		var sum float64
		var n uint64
		for _, h := range hists {
			s, c := get(h)
			sum, n = sum+s, n+c
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	sp.partition = mean(func(h *shardHistograms) (float64, uint64) { return h.partition.Sum(), h.partition.Count() })
	sp.schedule = mean(func(h *shardHistograms) (float64, uint64) { return h.schedule.Sum(), h.schedule.Count() })
	sp.compile = mean(func(h *shardHistograms) (float64, uint64) { return h.compile.Sum(), h.compile.Count() })
	return sp
}

// perLayer derives the per-layer metrics of the traced run. The untraced
// half (pa, between samples a0 and a1) gives the process metrics and the
// tracing-overhead baseline; the traced half (pb, between a1 and b1) gives
// the spans.
func perLayer(rec *record, r *runner, pa, pb *phase, a0, a1, b1 procSample, spans []span, tw twinResult, sp setupPhases) {
	wl := r.wl
	nnz := make([]int, len(r.systems))
	for i, s := range r.systems {
		nnz[i] = s.base.NNZ()
	}
	acc, patches := linkSpans(spans)
	bd := layerBreakdown(acc, tw.verify, nnz, wl.spmvs)

	rec.set("backend.iter_s", bd.iterS, "s", bd.n)
	rec.set("backend.nnz_per_s", bd.nnzPerS, "1/s", bd.n)
	rec.set("graph.exchanges", float64(tw.exchanges), "count", 1)
	rec.set("graph.moves", float64(tw.moves), "count", 1)
	rec.set("solver.iterations", ratio(float64(pb.iters), float64(pb.rhs)), "count", pb.rhs)
	rec.set("solver.true_relres_max", r.tally.maxRelRes, "ratio", r.tally.attempted)

	rec.set("core.execute_s", bd.execute, "s", bd.n)
	rec.set("core.overhead_s", bd.overhead, "s", bd.n)
	rec.set("core.solveinto_s", tw.solveInto, "s", 1)
	rec.set("core.solveinto_allocs", tw.allocs, "count", 1)
	rec.set("core.partition_s", sp.partition, "s", len(r.systems))
	rec.set("core.schedule_s", sp.schedule, "s", len(r.systems))
	rec.set("core.compile_s", sp.compile, "s", len(r.systems))
	rec.set("core.pipeline_mb", tw.pipelineMB, "MB", 1)

	var update, refreshSum float64
	var refreshN uint64
	for _, s := range patches {
		update += s.dur()
		refreshSum += s.d.refreshSum
		refreshN += s.d.refreshN
	}
	rec.set("core.refresh_s", ratio(refreshSum, float64(refreshN)), "s", int(refreshN))

	rec.set("client.self_s", bd.client, "s", bd.n)
	rec.set("client.batch_p50_s", median(pa.batch), "s", len(pa.batch))
	rec.set("cluster.proxy_s", bd.proxy, "s", bd.n)
	rec.set("cluster.failovers", float64(b1.failovers-a0.failovers), "count", 1)
	rec.set("serve.request_s", bd.request, "s", bd.n)
	rec.set("serve.solve_s", bd.job, "s", bd.n)
	rec.set("serve.wait_s", bd.wait, "s", bd.n)
	rec.set("serve.verify_s", bd.verify, "s", bd.n)
	rec.set("serve.codec_s", weightedMean(acc, tw.codec), "s", len(acc))
	rec.set("serve.update_s", ratio(update, float64(len(patches))), "s", len(patches))
	rec.set("serve.refreshed_per_update", ratio(sum(pb.refreshed), float64(len(pb.refreshed))), "count", len(pb.refreshed))
	hits := float64(b1.serve.CacheHits - a0.serve.CacheHits)
	misses := float64(b1.serve.CacheMisses - a0.serve.CacheMisses)
	rec.set("serve.cache_hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses))
	rec.set("serve.cold_prepares", misses, "count", 1)
	rec.set("serve.retries", float64(b1.serve.Retries-a0.serve.Retries), "count", 1)
	rec.set("serve.verify_failed", float64(b1.serve.VerifyFailed-a0.serve.VerifyFailed), "count", 1)

	rhs := float64(pa.rhs)
	rec.set("proc.cpu_s_per_rhs", ratio(a1.cpu-a0.cpu, rhs), "s", pa.rhs)
	rec.set("proc.alloc_mb_per_rhs", ratio(float64(a1.alloc-a0.alloc)/1e6, rhs), "MB", pa.rhs)
	rec.set("proc.gc_pause_s", float64(a1.pause-a0.pause)/1e9, "s", 1)

	rec.set("trace.overhead_share", ratio(median(pb.step), median(pa.step))-1, "ratio", len(pb.step))
	rec.set("trace.unaccounted_share", bd.unaccount, "ratio", bd.n)
	rec.set("trace.accounted_requests", float64(bd.n), "count", bd.n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// report prints the run's metadata, every metric with its sample count and
// percentile, the invariants and any failures, for a reader.
func report(w io.Writer, rec *record) {
	m := rec.Meta
	fmt.Fprintf(w, "workload %s seed %d seconds %d traced %v\n", m.Workload, m.Seed, m.Seconds, m.Traced)
	fmt.Fprintf(w, "host: %d cores, GOMAXPROCS %d, %s, %s, %.1f%% CPU stolen; commit %s, sources %s\n",
		m.HostCores, m.GOMAXPROCS, m.GoVersion, m.CPUModel, 100*m.StealShare, m.Commit, m.SourceDigest)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		mt, d := rec.Metrics[n], rec.Details[n]
		pct := ""
		if d.Percentile > 0 {
			pct = fmt.Sprintf(" at p%.4g", d.Percentile)
		}
		fmt.Fprintf(w, "  %-28s %14.6g %-6s (%d samples%s)\n", n, mt.Value, mt.Unit, d.Samples, pct)
	}
	inv := make([]string, 0, len(rec.Invariants))
	for n := range rec.Invariants {
		inv = append(inv, n)
	}
	sort.Strings(inv)
	for _, n := range inv {
		fmt.Fprintf(w, "  invariant %-28s %g\n", n, rec.Invariants[n])
	}
	for _, n := range []string{"serve.cold_prepares", "serve.retries", "serve.verify_failed", "cluster.failovers", "core.solveinto_allocs"} {
		if v, ok := rec.Invariants[n]; ok && v != 0 {
			fmt.Fprintf(w, "  INVARIANT VIOLATED: %s = %g, must be 0\n", n, v)
		}
	}
	if v, ok := rec.Metrics["trace.unaccounted_share"]; ok && v.Value > accountingTolerance {
		fmt.Fprintf(w, "  LAYER ACCOUNTING: %.1f%% of client wall time unaccounted (tolerance %.0f%%)\n",
			100*v.Value, 100*accountingTolerance)
	}
	for _, d := range rec.Drift {
		fmt.Fprintf(w, "  INVARIANT DRIFT: %s\n", d)
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed (failed_share %.4g); largest true relative residual %.3g\n",
		rec.Attempted, rec.Failed, ratio(float64(rec.Failed), float64(rec.Attempted)), rec.MaxRelRes)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}

func recordName(rec *record) string {
	mode := "run"
	if rec.Meta.Traced {
		mode = "traced"
	}
	return fmt.Sprintf("%s-%s-seed%d-%d.json", rec.Meta.Workload, mode, rec.Meta.Seed, time.Now().UnixNano())
}

func saveRecord(dir string, rec *record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, recordName(rec)), raw, 0o644)
}

// loadRecords reads every saved result in dir.
func loadRecords(dir string) ([]*record, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var out []*record
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		out = append(out, &rec)
	}
	return out, nil
}

// invariantDrift compares rec's exact counts with every saved run of the same
// sources, workload, seed and mode: a difference there is a deterministic
// change, never noise.
func invariantDrift(dir string, rec *record) []string {
	prev, err := loadRecords(dir)
	if err != nil {
		return []string{"reading earlier results: " + err.Error()}
	}
	var out []string
	for _, p := range prev {
		if p.Meta.SourceDigest != rec.Meta.SourceDigest || p.Meta.Workload != rec.Meta.Workload ||
			p.Meta.Seed != rec.Meta.Seed || p.Meta.Traced != rec.Meta.Traced {
			continue
		}
		for n, v := range rec.Invariants {
			if pv, ok := p.Invariants[n]; ok && pv != v {
				out = append(out, fmt.Sprintf("%s = %g, an earlier run of this seed read %g", n, v, pv))
			}
		}
	}
	sort.Strings(out)
	return out
}
