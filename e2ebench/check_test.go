package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ipusparse/internal/serve"
)

// corruptingProxy forwards requests to a shard and, when corrupt is set,
// perturbs one entry of every returned solution — a wrong answer the service
// itself served as good.
func corruptingProxy(t *testing.T, target string, corrupt func(x []float64)) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := http.NewRequest(r.Method, target+r.URL.Path, r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if strings.HasSuffix(r.URL.Path, "/solve") && resp.StatusCode == http.StatusOK {
			var sr serve.SolveResponse
			if err := json.Unmarshal(raw, &sr); err != nil {
				t.Error(err)
				return
			}
			corrupt(sr.X)
			raw, _ = json.Marshal(sr)
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(raw)
	}))
}

// TestCorruptedAnswerCaughtAndCounted feeds the benchmark answers corrupted
// after the service verified them and shows each is caught, counted in
// failed and listed by request, while a clean answer passes.
func TestCorruptedAnswerCaughtAndCounted(t *testing.T) {
	wl := &workload{name: "test", clients: 1, machine: smallMachine(), cfg: jacobiCG(1e-8), tol: 1e-8, shards: 1}
	m, err := specMatrix("poisson3d:8")
	if err != nil {
		t.Fatal(err)
	}
	systems := []*system{{spec: "poisson3d:8", base: m, m: m, gen: 1}}
	_, st, err := setup(context.Background(), wl, systems, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()

	var corrupt func(x []float64)
	proxy := corruptingProxy(t, st.base, func(x []float64) { corrupt(x) })
	defer proxy.Close()
	st.base = proxy.URL

	r := &runner{wl: wl, seed: 1, st: st, systems: systems, totalWeight: weights(systems), cur: newPhase()}
	c := &client{rng: newRand(1, 1)}
	ctx := context.Background()

	corrupt = func([]float64) {}
	if _, err := r.solve(ctx, c, 0); err != nil {
		t.Fatalf("clean answer rejected: %v", err)
	}
	cases := map[string]func(x []float64){
		"perturbed":  func(x []float64) { x[3] += 1e-3 },
		"not finite": func(x []float64) { x[0] = math.NaN() },
		"truncated":  func(x []float64) { x[len(x)-1] = 0 },
	}
	for name, f := range cases {
		corrupt = f
		c.ops++
		if _, err := r.solve(ctx, c, 0); err == nil {
			t.Errorf("%s answer passed the check", name)
		}
	}
	if r.tally.attempted != 1+len(cases) || r.tally.failed != len(cases) {
		t.Fatalf("tally: %d attempted, %d failed; want %d, %d", r.tally.attempted, r.tally.failed, 1+len(cases), len(cases))
	}
	failures := r.tally.failureList()
	if len(failures) != len(cases) || !strings.Contains(failures[0], "solve poisson3d:8") {
		t.Fatalf("failures not listed by request: %q", failures)
	}
	if r.cur.rhs != 1 || len(r.cur.solve) != 1 {
		t.Fatalf("failed answers entered the latency samples: %d answers, %d samples", r.cur.rhs, len(r.cur.solve))
	}
}

// TestCheckAnswerRejectsUnconverged covers the convergence flag, which a
// corrupting proxy cannot reach through the solution vector.
func TestCheckAnswerRejectsUnconverged(t *testing.T) {
	m, err := specMatrix("poisson2d:8")
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, m.N)
	for i := range x {
		x[i] = 1
	}
	b := make([]float64, m.N)
	m.MulVec(x, b)
	if _, err := checkAnswer(m, b, x, true, 1e-8); err != nil {
		t.Fatalf("exact answer rejected: %v", err)
	}
	if _, err := checkAnswer(m, b, x, false, 1e-8); err == nil {
		t.Fatal("unconverged answer passed")
	}
	if _, err := checkAnswer(m, b, x[1:], true, 1e-8); err == nil {
		t.Fatal("short answer passed")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// the spread the benchmark's steadiness is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
		{[]float64{4, 1, 2}, 1, 2, 4},
		// statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
		{[]float64{3, 1}, 0.5, 2, 3.5},
	} {
		q1, q2, q3 := quartiles(tc.v)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.v, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestTailNeedsTenSamplesAbove(t *testing.T) {
	for _, tc := range []struct {
		n   int
		pct float64
	}{{1000, 99}, {200, 95}, {30, 100 * (1 - 10.0/30)}, {15, 50}} {
		v := make([]float64, tc.n)
		for i := range v {
			v[i] = float64(i)
		}
		p, x := tail(v)
		if math.Abs(p-tc.pct) > 1e-9 {
			t.Errorf("%d samples: p%g, want p%g", tc.n, p, tc.pct)
		}
		if above := tc.n - 1 - int(math.Floor(x)); tc.n >= 20 && above != minTailSamples {
			t.Errorf("%d samples: %d above p%g, want %d", tc.n, above, p, minTailSamples)
		}
	}
}
