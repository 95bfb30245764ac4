package main

import (
	"math"
	"sort"
)

// hist is a fixed-size latency histogram: log-spaced buckets 0.5% wide from
// 1 ns to ~100 s. Its memory does not grow with the request count, so a
// faster engine does not make the benchmark hold more memory just by being
// measured more often.
type hist struct {
	counts []int64
	n      int64
	sumNs  float64
}

const (
	histGrowth  = 1.005
	histBuckets = 5100
)

var histLogGrowth = math.Log(histGrowth)

func newHist() *hist { return &hist{counts: make([]int64, histBuckets)} }

func (h *hist) reset() {
	clear(h.counts)
	h.n, h.sumNs = 0, 0
}

func (h *hist) add(ns int64) {
	if ns < 1 {
		ns = 1
	}
	i := int(math.Log(float64(ns)) / histLogGrowth)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.counts[i]++
	h.n++
	h.sumNs += float64(ns)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sumNs += o.sumNs
}

// quantile returns the q-quantile in nanoseconds, interpolated linearly
// inside the bucket that holds rank q·n. 0 when the histogram is empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo := math.Pow(histGrowth, float64(i))
			hi := lo * histGrowth
			frac := (rank - float64(cum)) / float64(c)
			return lo + (hi-lo)*math.Max(0, math.Min(1, frac))
		}
		cum += c
	}
	return math.Pow(histGrowth, histBuckets)
}

// tailLadder is the set of percentiles a tail latency is chosen from.
var tailLadder = []float64{0.50, 0.75, 0.90, 0.95, 0.99}

// tailLevel applies the reporting rule for tail latency: the highest
// percentile of the ladder that still has at least ten samples beyond it.
// ok is false when not even the lowest rung qualifies.
func tailLevel(n int64, ladder []float64) (q float64, ok bool) {
	for i := len(ladder) - 1; i >= 0; i-- {
		if float64(n)*(1-ladder[i]) >= 10-1e-9 {
			return ladder[i], true
		}
	}
	return 0, false
}

// minSamplesFor is the smallest sample count at which tailLevel reaches q.
func minSamplesFor(q float64) int64 { return int64(math.Ceil(10/(1-q) - 1e-9)) }

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tally counts attempted operations and their failures. An operation fails
// when the call returned an error or its output did not match the oracle;
// one operation is counted at most once even if both happen.
type tally struct {
	attempted, errors, mismatches int64
}

func (t *tally) record(err error, matched bool) {
	t.attempted++
	switch {
	case err != nil:
		t.errors++
	case !matched:
		t.mismatches++
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.errors += o.errors
	t.mismatches += o.mismatches
}

func (t tally) failed() int64 { return t.errors + t.mismatches }

// failRatio is (errors + oracle mismatches) / attempts.
func (t tally) failRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.attempted)
}
