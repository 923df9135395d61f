package main

import (
	"math"
	"sort"
)

// summary is the order statistics of one metric's samples (one sample
// per timed pass for host metrics).
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// summarize computes the order statistics of xs. Quartiles follow
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), the
// rule the acceptance check applies, so a spread computed here and one
// computed by the driver agree. Fewer than two samples have no spread:
// every statistic is the sample.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	out := summary{N: m, Min: s[0], Max: s[m-1]}
	if m == 1 {
		out.Q1, out.Median, out.Q3 = s[0], s[0], s[0]
		return out
	}
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4 // outside [0, 4] at the ends: extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	out.Q1, out.Median, out.Q3 = q(1), q(2), q(3)
	return out
}

func median(xs []float64) float64 { return summarize(xs).Median }

// spread is the interquartile distance as a share of the median, the
// run-to-run noise figure a metric's bound is judged against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// splitmix is the benchmark's input generator: a seeded stream that is
// the same on every Go version, so a seed names one set of inputs.
type splitmix uint64

func (r *splitmix) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// unit returns a uniform draw in [0, 1).
func (r *splitmix) unit() float64 { return float64(r.next()>>11) / (1 << 53) }

// between returns a uniform draw in [lo, hi).
func (r *splitmix) between(lo, hi float64) float64 { return lo + (hi-lo)*r.unit() }
