// Package benchkit holds the arithmetic, workload definitions and
// output format shared by the end-to-end program (perfbench/e2e) and the
// traced per-layer run (perfbench/layers). It imports only the lattecc
// facade, never lattecc/internal, so a refactor of the simulator's
// internals cannot break the end-to-end half of the benchmark.
package benchkit

import (
	"fmt"
	"math"
	"sort"
)

// MinBeyond is how many samples must lie above a reported tail
// percentile: with fewer, the tail is one or two outliers, not a
// property of the system.
const MinBeyond = 10

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs and how many samples lie strictly beyond its rank. xs is not
// modified.
func Percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// TailPercentile returns the p-th percentile of xs, or an error when
// fewer than MinBeyond samples lie beyond it — the sample is then too
// small to say anything about that tail.
func TailPercentile(xs []float64, p float64) (float64, error) {
	v, beyond := Percentile(xs, p)
	if beyond < MinBeyond {
		return v, fmt.Errorf("p%g of %d samples has %d beyond it, need >= %d", p, len(xs), beyond, MinBeyond)
	}
	return v, nil
}

// Median is the 50th percentile by linear interpolation between the two
// middle samples (the conventional median, unlike Percentile's
// nearest rank).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// MidMean is the interquartile mean: the mean of xs after the lowest
// and the highest quarter (rounded down) are dropped. Like the median it
// ignores a disturbed sample or two; unlike the median it does not jump
// between two clusters when the samples fall into two.
func MidMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := len(s) / 4
	var sum float64
	for _, x := range s[cut : len(s)-cut] {
		sum += x
	}
	return sum / float64(len(s)-2*cut)
}

// Geomean is the geometric mean of positive xs; it returns NaN when xs
// is empty or holds a value <= 0, so a broken ratio cannot pass as a
// plausible number.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var logSum float64
	for _, x := range xs {
		if !(x > 0) {
			return math.NaN()
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}
