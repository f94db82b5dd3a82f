package main

import (
	"math/bits"
	"sort"
)

// subBits sets the histogram resolution: 2^subBits linear sub-buckets per
// power of two, so a bucket spans under 0.8% of its values.
const subBits = 7

// hist is a log-linear latency histogram in nanoseconds. Quantiles
// interpolate by rank inside a bucket, so they vary continuously from run
// to run instead of snapping to bucket edges. Not safe for concurrent use:
// each client goroutine records into its own and they are merged after.
type hist struct {
	counts []uint64
	n      uint64
}

func newHist() *hist { return &hist{counts: make([]uint64, (64-subBits)<<subBits)} }

func bucketOf(v int64) int {
	if v < 1<<subBits {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - subBits - 1
	return (shift+1)<<subBits + int(uint64(v)>>shift) - 1<<subBits
}

// bucketRange returns the lowest value of bucket i and its width.
func bucketRange(i int) (lo, width float64) {
	if i < 1<<subBits {
		return float64(i), 1
	}
	shift := i>>subBits - 1
	top := uint64(i&(1<<subBits-1)) + 1<<subBits
	return float64(top << shift), float64(uint64(1) << shift)
}

func (h *hist) record(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			lo, w := bucketRange(i)
			return lo + w*(target-cum)/float64(c)
		}
		cum = next
	}
	lo, w := bucketRange(len(h.counts) - 1)
	return lo + w
}

// usAt returns the q-quantile in microseconds.
func (h *hist) usAt(q float64) float64 { return h.quantile(q) / 1e3 }

// median returns the median of xs (0 when empty); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
