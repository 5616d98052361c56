package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: fewer
// and the number is one outlier's position, not a property of the system.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1, nearest rank) of samples and
// refuses when fewer than minBeyond samples lie beyond it.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	rank := int(math.Ceil(p * float64(n)))
	if n-rank < minBeyond {
		return 0, fmt.Errorf("bench: p%g of %d samples has %d beyond it, want at least %d", p*100, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the plain middle value, for probe repetitions too few to guard.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) does (the default "exclusive" method),
// so the A/A tool computes the spread the driver computes.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / median(values)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// msSamples converts durations to milliseconds.
func msSamples(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// timeReps runs fn reps times and returns each wall time.
func timeReps(reps int, fn func()) []time.Duration {
	out := make([]time.Duration, reps)
	for i := range out {
		t0 := time.Now()
		fn()
		out[i] = time.Since(t0)
	}
	return out
}
