package main

import "math/bits"

// hist is a log-linear latency histogram over nanosecond durations: each
// power of two is split into subBuckets linear sub-buckets, so a recorded
// value lands in a bucket at most 1/subBuckets of its size wide. Quantiles
// interpolate linearly inside the bucket that holds the rank. One hist is
// owned by one goroutine; merge combines them after the run.
type hist struct {
	counts [numBuckets]uint64
	n      uint64
}

const (
	subBits    = 6
	subBuckets = 1 << subBits
	numBuckets = (64-subBits)*subBuckets/2 + subBuckets
)

// bucketOf maps v to its bucket index; bucketLow/bucketHigh invert it.
func bucketOf(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	e := bits.Len64(v) - subBits // v>>e lies in [subBuckets/2, subBuckets)
	return e*subBuckets/2 + int(v>>uint(e))
}

func bucketLow(i int) uint64 {
	if i < subBuckets {
		return uint64(i)
	}
	e := (i - subBuckets/2) / (subBuckets / 2)
	m := uint64(i - e*subBuckets/2)
	return m << uint(e)
}

func bucketHigh(i int) uint64 { return bucketLow(i+1) - 1 }

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolated inside its
// bucket; 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := float64(bucketLow(i)), float64(bucketHigh(i)+1)
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	for i := len(h.counts) - 1; ; i-- { // rounding left rank past the end
		if h.counts[i] != 0 {
			return float64(bucketHigh(i))
		}
	}
}
