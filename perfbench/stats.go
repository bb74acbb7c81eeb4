package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a tail read from fewer samples is one or two outliers,
// not a property of the system.
const minBeyond = 10

// tailLadder lists the percentiles tailPercentile may fall back to,
// highest first.
var tailLadder = []float64{99, 95, 90, 75, 50}

// rankIndex is the nearest-rank index of percentile p in n sorted
// samples.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n)/100)) - 1
	return max(0, min(i, n-1))
}

// beyond is how many of n sorted samples lie strictly after the
// nearest-rank position of percentile p.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, p)
}

// tailPercentile returns want if n samples leave at least minBeyond
// beyond it, otherwise the highest ladder percentile below want that
// does, and false when not even the median qualifies.
func tailPercentile(n int, want float64) (float64, bool) {
	if beyond(n, want) >= minBeyond {
		return want, true
	}
	for _, p := range tailLadder {
		if p < want && beyond(n, p) >= minBeyond {
			return p, true
		}
	}
	return 50, false
}

// sample is an append-only set of float64 observations stored in
// fixed-size chunks, so recording inside a measured window allocates
// one chunk per sampleChunk observations instead of regrowing (and
// copying) one large slice.
type sample struct {
	chunks [][]float64
}

const sampleChunk = 1 << 14

func (s *sample) add(v float64) {
	if n := len(s.chunks); n == 0 || len(s.chunks[n-1]) == sampleChunk {
		s.chunks = append(s.chunks, make([]float64, 0, sampleChunk))
	}
	last := &s.chunks[len(s.chunks)-1]
	*last = append(*last, v)
}

func (s *sample) addDuration(d time.Duration, unit time.Duration) {
	s.add(float64(d) / float64(unit))
}

func (s *sample) len() int {
	n := 0
	for _, c := range s.chunks {
		n += len(c)
	}
	return n
}

func (s *sample) merge(o *sample) {
	for _, c := range o.chunks {
		for _, v := range c {
			s.add(v)
		}
	}
}

// sorted returns the observations in ascending order.
func (s *sample) sorted() []float64 {
	out := make([]float64, 0, s.len())
	for _, c := range s.chunks {
		out = append(out, c...)
	}
	slices.Sort(out)
	return out
}

// summary is a sorted sample with its percentile accessors.
type summary struct{ v []float64 }

func (s *sample) summary() summary { return summary{s.sorted()} }

func (s summary) n() int { return len(s.v) }

// pct is the nearest-rank percentile p; 0 for an empty sample.
func (s summary) pct(p float64) float64 {
	if len(s.v) == 0 {
		return 0
	}
	return s.v[rankIndex(len(s.v), p)]
}

func (s summary) mean() float64 {
	if len(s.v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.v {
		sum += x
	}
	return sum / float64(len(s.v))
}

// ratio is num/den, defined as 0 when den is 0 so an idle layer reads
// as zero rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perSecond converts a count over a window to a rate.
func perSecond(count float64, window time.Duration) float64 {
	return ratio(count, window.Seconds())
}

// mibPerSecond converts bytes over a duration to MiB/s.
func mibPerSecond(bytes int64, d time.Duration) float64 {
	return ratio(float64(bytes)/mib, d.Seconds())
}

const (
	mib = 1 << 20
	gib = 1 << 30
)

// overhead is the share of untraced throughput lost with tracing on.
func overhead(untraced, traced float64) float64 {
	return ratio(untraced-traced, untraced)
}
