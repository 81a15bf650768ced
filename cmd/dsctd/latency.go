package main

import (
	"math"
	"math/bits"
	"time"
)

// latencyHist is a log-bucketed histogram of flush latencies in fixed
// memory (960 counters), however long the daemon runs. Durations below
// 32 ns get one bucket per nanosecond; above that each power of two splits
// into 16 equal buckets, so a bucket is at most 1/16 of its lower edge
// wide. quantile reports the bucket's largest value: an upper bound at
// most 6.25% above the true nearest-rank percentile.
type latencyHist struct {
	n      int
	total  time.Duration
	max    time.Duration
	counts [histBuckets]int
}

const (
	histSubBits = 4 // 2^4 buckets per power of two
	histBuckets = (63 - histSubBits + 1) << histSubBits
)

// histBucket maps d >= 0 to its bucket: d itself below 2^(histSubBits+1),
// else the power of two e and the next histSubBits bits below its leading
// one.
func histBucket(d time.Duration) int {
	v := uint64(d)
	if v < 1<<(histSubBits+1) {
		return int(v)
	}
	e := bits.Len64(v) - 1
	sub := int(v>>(e-histSubBits)) - 1<<histSubBits
	return (e-histSubBits+1)<<histSubBits + sub
}

// histUpper is the largest duration in bucket i.
func histUpper(i int) time.Duration {
	if i < 1<<(histSubBits+1) {
		return time.Duration(i)
	}
	e := i>>histSubBits + histSubBits - 1
	sub := i & (1<<histSubBits - 1)
	return time.Duration(uint64(sub+1<<histSubBits+1)<<(e-histSubBits) - 1)
}

// record adds one latency; negative durations count as zero.
func (h *latencyHist) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.n++
	h.total += d
	if d > h.max {
		h.max = d
	}
	h.counts[histBucket(d)]++
}

// quantile returns the nearest-rank q-th percentile (0 < q <= 100) as its
// bucket's upper bound capped at the largest latency seen; q = 100 is the
// exact maximum. It returns 0 before the first record.
func (h *latencyHist) quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := max(int(math.Ceil(q/100*float64(h.n))), 1)
	seen := 0
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return min(histUpper(i), h.max)
		}
	}
	return h.max
}
