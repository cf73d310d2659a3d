package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// us and ms convert a duration to microseconds and milliseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tailPercentiles are the candidates for a reported tail, highest first.
// The list stops at p99: on a shared two-vCPU host p99.9 swings by more
// than any useful regression bound.
var tailPercentiles = []float64{99, 95, 90, 75, 50}

// percentile returns the nearest-rank q-th percentile (0 < q <= 100) of
// sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q / 100 * float64(len(sorted))))
	return sorted[max(rank, 1)-1]
}

// tail reports the highest of tailPercentiles that has at least ten
// samples beyond it, so a tail is never read off a handful of outliers.
// When even the median lacks ten samples beyond it, the maximum is
// reported with q = 100.
func tail(sorted []float64) (q, v float64) {
	n := len(sorted)
	for _, q := range tailPercentiles {
		rank := int(math.Ceil(q / 100 * float64(n)))
		if n-rank >= 10 {
			return q, sorted[rank-1]
		}
	}
	if n == 0 {
		return 100, math.NaN()
	}
	return 100, sorted[n-1]
}

// latencySummary is a latency sample reduced to the reported figures.
type latencySummary struct {
	N      int
	Slices int // slices the figures are medians over (0 or 1: none)
	P50    float64
	TailQ  float64
	Tail   float64
}

func summarize(values []float64) latencySummary {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q, t := tail(s)
	return latencySummary{N: len(s), P50: percentile(s, 50), TailQ: q, Tail: t}
}

// sliceSamples is the fewest samples one slice of summarizeSliced holds,
// enough for its p99 to have ten samples beyond it.
const sliceSamples = 1000

// summarizeSliced summarizes time-ordered values as the medians, over
// up to ten equal consecutive slices of at least sliceSamples values
// each, of every slice's median and tail. A few seconds in which other
// tenants stalled the host then shift one slice, not the result.
func summarizeSliced(values []float64) latencySummary {
	k := max(1, min(10, len(values)/sliceSamples))
	var p50s, tails []float64
	out := latencySummary{N: len(values), Slices: k, TailQ: 100}
	for i := 0; i < k; i++ {
		s := summarize(values[i*len(values)/k : (i+1)*len(values)/k])
		p50s, tails = append(p50s, s.P50), append(tails, s.Tail)
		out.TailQ = min(out.TailQ, s.TailQ)
	}
	out.P50, out.Tail = median(p50s), median(tails)
	return out
}

// tailNote is the annotation printed after a tail metric: which
// percentile it is and how many samples it rests on.
func (l latencySummary) tailNote() string {
	q := fmt.Sprintf("p%g", l.TailQ)
	if l.TailQ == 100 {
		q = "max"
	}
	if l.Slices > 1 {
		return fmt.Sprintf("%s, median over %d slices, n=%d", q, l.Slices, l.N)
	}
	return fmt.Sprintf("%s of n=%d", q, l.N)
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (its default "exclusive"
// method), so spreads printed here match ones computed with Python.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

func geomean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range values {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(values)))
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}
