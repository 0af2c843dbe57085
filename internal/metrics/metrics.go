// Package metrics provides the small statistics toolkit used by the
// experiment harness: summaries (Welford moments plus retained samples
// for percentiles) and plain-text / Markdown / CSV table rendering.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates scalar observations and reports basic statistics.
// The zero value is ready to use. It retains every sample for
// percentiles.
type Summary struct {
	samples []float64
	sorted  bool

	n        int
	mean, m2 float64
	min, max float64
}

// NewSummary returns an empty Summary.
func NewSummary() *Summary { return &Summary{min: math.Inf(1), max: math.Inf(-1)} }

// Add records one observation.
func (s *Summary) Add(v float64) {
	if s.n == 0 && s.min == 0 && s.max == 0 { // zero-value Summary
		s.min, s.max = math.Inf(1), math.Inf(-1)
	}
	s.n++
	d := v - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (v - s.mean)
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.samples = append(s.samples, v)
	s.sorted = false
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Summary) Mean() float64 { return s.mean }

// Sum returns the sum of all observations.
func (s *Summary) Sum() float64 { return s.mean * float64(s.n) }

// Var returns the unbiased sample variance.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation, or +Inf with no observations.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or -Inf with no observations.
func (s *Summary) Max() float64 { return s.max }

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) by linear
// interpolation, or NaN with no observations.
func (s *Summary) Percentile(p float64) float64 {
	if len(s.samples) == 0 {
		return math.NaN()
	}
	if !s.sorted {
		sort.Float64s(s.samples)
		s.sorted = true
	}
	if p <= 0 {
		return s.samples[0]
	}
	if p >= 100 {
		return s.samples[len(s.samples)-1]
	}
	rank := p / 100 * float64(len(s.samples)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.samples[lo]
	}
	frac := rank - float64(lo)
	return s.samples[lo]*(1-frac) + s.samples[hi]*frac
}

// Median returns the 50th percentile.
func (s *Summary) Median() float64 { return s.Percentile(50) }

// String formats the summary compactly.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f std=%.3f min=%.3f max=%.3f", s.n, s.Mean(), s.Std(), s.min, s.max)
}
