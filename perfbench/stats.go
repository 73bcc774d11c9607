package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (sorted or not)
// and fails when fewer than minBeyond samples lie beyond it, so a tail
// is never read off a handful of requests.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("no samples")
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", q*100, minBeyond, beyond, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// loosePercentile is percentile for per-layer figures, where a short
// sample is reported as 0 rather than failing the run.
func loosePercentile(xs []float64, q float64) float64 {
	v, err := percentile(xs, q)
	if err != nil {
		return 0
	}
	return v
}

// windows is how many equal time slices a phase is cut into: its goodput
// and latency percentiles are medians over the slices, so a burst of
// outside load on the machine in a few slices does not move them.
const windows = 10

// slices buckets samples into k equal slices of span seconds; a request
// still in flight at the end of the phase counts in the last slice.
func slices(samples []sample, span float64, k int) [][]float64 {
	out := make([][]float64, k)
	w := span / float64(k)
	for _, s := range samples {
		i := int(s.at / w)
		if i >= k {
			i = k - 1
		}
		out[i] = append(out[i], s.ms)
	}
	return out
}

// windowedGoodput is the median over the slices of requests completed per
// second.
func windowedGoodput(samples []sample, span float64) float64 {
	counts := make([]float64, windows)
	for i, sl := range slices(samples, span, windows) {
		counts[i] = float64(len(sl)) / (span / windows)
	}
	return median(counts)
}

// windowedPercentile is the median over time slices of each slice's
// q-quantile. It uses the most slices, at most windows, in which every
// slice has minBeyond samples beyond its quantile, and returns that count;
// it fails when even the whole phase has too few.
func windowedPercentile(samples []sample, span, q float64) (float64, int, error) {
	all := make([]float64, len(samples))
	for i, s := range samples {
		all[i] = s.ms
	}
	whole, err := percentile(all, q)
	if err != nil {
		return 0, 0, err
	}
	k := min(windows, int(float64(len(samples))*(1-q)/minBeyond))
	for ; k > 1; k-- {
		vals := make([]float64, 0, k)
		for _, sl := range slices(samples, span, k) {
			v, err := percentile(sl, q)
			if err != nil {
				break
			}
			vals = append(vals, v)
		}
		if len(vals) == k {
			return median(vals), k, nil
		}
	}
	return whole, 1, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of xs, or 0 when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
