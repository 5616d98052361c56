// Package stats implements the statistics substrate the optimizer cost model
// relies on (§3.2): uniform row samples, sampling-based distinct-value
// estimation (the paper points at Haas, Naughton, Seshadri & Stokes, VLDB
// 1995, for this), per-column-set statistics with creation-time accounting
// (§6.7 measures that overhead), and equi-depth histograms for selection
// selectivity.
package stats

import (
	"fmt"
	"math"
)

// Estimator selects the distinct-value extrapolation method applied to a
// sample frequency profile.
type Estimator int

const (
	// GEE is the Guaranteed-Error Estimator: D̂ = sqrt(N/n)·f1 + Σ_{j≥2} fj.
	GEE Estimator = iota
	// Shlosser is the Shlosser estimator from Haas et al. 1995, accurate for
	// skewed data.
	Shlosser
	// Chao is the Chao84 estimator: D̂ = d + f1²/(2·f2).
	Chao
	// Exact scans the full table instead of extrapolating from a sample. It
	// exists for tests and for calibrating the sampling estimators.
	Exact
)

// String names the estimator.
func (e Estimator) String() string {
	switch e {
	case GEE:
		return "GEE"
	case Shlosser:
		return "Shlosser"
	case Chao:
		return "Chao"
	case Exact:
		return "Exact"
	default:
		return fmt.Sprintf("Estimator(%d)", int(e))
	}
}

// Profile is the frequency profile of a sample: d distinct combinations were
// observed in a sample of n rows drawn from N rows, and Freq[j] combinations
// occurred exactly j times (Freq is as long as the largest j seen requires).
type Profile struct {
	N    int // total rows in the relation
	n    int // sample size
	d    int // distinct combinations in the sample
	Freq []int
}

// f returns Freq[j], 0 beyond the largest multiplicity seen.
func (p Profile) f(j int) int {
	if j < len(p.Freq) {
		return p.Freq[j]
	}
	return 0
}

// Distinct returns the number of distinct combinations in the sample.
func (p Profile) Distinct() int { return p.d }

// SampleSize returns the number of sampled rows.
func (p Profile) SampleSize() int { return p.n }

// Estimate extrapolates the profile to a full-relation NDV estimate with the
// chosen estimator. Results are clamped to [d, N]: the true NDV is at least
// the observed distinct count and at most the row count.
func (p Profile) Estimate(e Estimator) float64 {
	if p.n == 0 || p.d == 0 {
		return 0
	}
	if p.n >= p.N {
		// The sample is the whole relation; the observed count is exact.
		return float64(p.d)
	}
	var est float64
	f1 := float64(p.f(1))
	switch e {
	case GEE:
		rest := float64(p.d - p.f(1))
		est = math.Sqrt(float64(p.N)/float64(p.n))*f1 + rest
	case Chao:
		f2 := float64(p.f(2))
		if f2 == 0 {
			// Standard bias-corrected fallback when no doubletons were seen.
			est = float64(p.d) + f1*(f1-1)/2
		} else {
			est = float64(p.d) + f1*f1/(2*f2)
		}
	case Shlosser:
		est = p.shlosser()
	case Exact:
		// Exact estimation is handled by the Service (full scan); if asked to
		// extrapolate a sample exactly, the observed count is the best answer.
		est = float64(p.d)
	default:
		est = float64(p.d)
	}
	return clamp(est, float64(p.d), float64(p.N))
}

// shlosser computes the Shlosser 1981 estimator:
//
//	D̂ = d + f1 · Σ_i (1-q)^i·f_i / Σ_i i·q·(1-q)^(i-1)·f_i,  q = n/N.
func (p Profile) shlosser() float64 {
	q := float64(p.n) / float64(p.N)
	var num, den float64
	for i, fi := range p.Freq {
		if fi == 0 {
			continue
		}
		f := float64(fi)
		num += math.Pow(1-q, float64(i)) * f
		den += float64(i) * q * math.Pow(1-q, float64(i-1)) * f
	}
	if den == 0 {
		return float64(p.d)
	}
	return float64(p.d) + float64(p.f(1))*num/den
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
