package main

import (
	"math"
	"sort"
)

// minTailSamples is how many samples a tail metric keeps above its
// percentile.
const minTailSamples = 10

// percentile returns the p-th percentile (0..100) of sorted values by linear
// interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// median returns the median of values (which it does not modify).
func median(values []float64) float64 {
	return percentile(sortedCopy(values), 50)
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// tail returns the highest percentile with at least minTailSamples samples
// above it, 100·(1 − 10/n) for n samples, and its value. The percentile moves
// smoothly with the sample count, so a run a few samples longer than another
// does not jump to a different percentile. Below 20 samples it is the median.
func tail(values []float64) (pct, value float64) {
	s := sortedCopy(values)
	pct = math.Max(50, 100*(1-minTailSamples/float64(len(s))))
	return pct, percentile(s, pct)
}

// quartiles returns the first quartile, median and third quartile by the
// exclusive method of Python's statistics.quantiles(values, n=4), which is how
// run-to-run spread is judged.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		// statistics.quantiles, method="exclusive", transcribed.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}
