package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail latency may be reported at.
// Which one is reported follows from the sample count, so closed-loop
// workloads cap their latency sample at a fixed size (see
// phase.opMs): a faster program then completes more operations without
// moving the tail to another percentile.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie above a tail percentile's rank
// for that percentile to be reported.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of percentile p in a
// sample of n: ceil(p/100 · n), clamped to [1, n].
func rank(p float64, n int) int {
	// The epsilon absorbs representation error (99.9·1000/100 must be
	// 999, not 999.0000000000001 rounded up to 1000).
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// nearestRank returns the p-th percentile of an ascending sample by the
// nearest-rank method (0 for an empty sample).
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// tailPercentile returns the highest ladder percentile that leaves at
// least minBeyond of n samples beyond its rank. ok is false when even
// the median does not, in which case the median is returned.
func tailPercentile(n int) (p float64, ok bool) {
	p = tailLadder[0]
	for _, q := range tailLadder {
		if n-rank(q, n) >= minBeyond {
			p, ok = q, true
		}
	}
	return p, ok
}

// latencySummary is the median and tail of one latency sample.
type latencySummary struct {
	N      int
	P50    float64
	TailP  float64 // the percentile the tail is reported at
	Tail   float64
	TailOK bool // false when the sample is too small for any tail
}

func summarize(xs []float64) latencySummary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p, ok := tailPercentile(len(s))
	return latencySummary{N: len(s), P50: nearestRank(s, 50), TailP: p, Tail: nearestRank(s, p), TailOK: ok}
}

// median returns the nearest-rank median of xs (0 for none).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return nearestRank(s, 50)
}
