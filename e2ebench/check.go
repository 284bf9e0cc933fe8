package main

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"ipusparse/internal/sparse"
)

// residualSlack is how far above its solver tolerance an answer's true
// relative residual may land before the benchmark rejects it. The device
// works in float32 (unit roundoff 6e-8): solvers stop on their recursively
// updated residual, and the float64 true residual ‖b−Ax‖/‖b‖ of a converged
// answer lands near 1e-6 for Jacobi-CG at 1e-8 and near 1e-7 for MPIR at
// 1e-9. A factor of 1000 keeps those answers with margin, while a corrupted
// answer misses by orders of magnitude.
const residualSlack = 1000

// trueRelRes computes ‖b−Ax‖₂/‖b‖₂ in float64 from the benchmark's own copy of
// the matrix, independently of the service's host verification.
func trueRelRes(m *sparse.Matrix, x, b []float64) float64 {
	var rn, bn float64
	for i := 0; i < m.N; i++ {
		ax := m.Diag[i] * x[i]
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			ax += m.Vals[k] * x[m.Cols[k]]
		}
		d := b[i] - ax
		rn += d * d
		bn += b[i] * b[i]
	}
	return math.Sqrt(rn / bn)
}

// checkAnswer is the benchmark's correctness gate for one right-hand side: the
// answer must be present and finite, report convergence, and reach a true
// relative residual at or below tol × residualSlack. It returns the true
// relative residual it measured.
func checkAnswer(m *sparse.Matrix, b []float64, x []float64, converged bool, tol float64) (float64, error) {
	if len(x) != m.N {
		return math.Inf(1), fmt.Errorf("answer has %d entries, system has %d rows", len(x), m.N)
	}
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return math.Inf(1), fmt.Errorf("x[%d] = %v is not finite", i, v)
		}
	}
	if !converged {
		return math.Inf(1), fmt.Errorf("solver reports no convergence")
	}
	rr := trueRelRes(m, x, b)
	if !(rr <= tol*residualSlack) {
		return rr, fmt.Errorf("true relative residual %.3e above %.0e × %d", rr, tol, residualSlack)
	}
	return rr, nil
}

// tally counts attempted and failed operations across client goroutines and
// keeps every failure by request, so a miss is both counted and listed.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	maxRelRes float64
	failures  []string
}

// record accounts one operation: err is nil for a verified answer.
func (t *tally) record(req string, relres float64, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		t.failures = append(t.failures, fmt.Sprintf("%s: %v", req, err))
		return
	}
	if relres > t.maxRelRes {
		t.maxRelRes = relres
	}
}

// failureList returns the recorded failures in a stable order.
func (t *tally) failureList() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]string(nil), t.failures...)
	sort.Strings(out)
	return out
}
