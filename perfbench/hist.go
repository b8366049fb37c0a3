package main

import "math/bits"

// hist is a log-linear latency histogram: exact below 2^(histSubBits+1)
// ns, and above that histSubBits bits of mantissa per power of two, so a
// reported percentile is within 0.2% of the true value. It has a fixed
// size, so recording an operation neither allocates nor grows the
// harness's memory with the run's length.
type hist struct {
	counts [histBuckets]uint32
	n      int64
}

const (
	histSubBits = 9
	histSub     = 1 << histSubBits
	histMaxBits = 40 // latencies up to ~18 minutes
	histBuckets = 2*histSub + (histMaxBits-histSubBits-1)*histSub
)

func histIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < 2*histSub {
		return int(u)
	}
	shift := bits.Len64(u) - histSubBits - 1
	if shift > histMaxBits-histSubBits-1 {
		return histBuckets - 1
	}
	return 2*histSub + (shift-1)*histSub + int(u>>shift) - histSub
}

// histValue returns the middle of bucket i.
func histValue(i int) int64 {
	if i < 2*histSub {
		return int64(i)
	}
	shift := (i-2*histSub)/histSub + 1
	m := int64((i-2*histSub)%histSub + histSub)
	return m<<shift + int64(1)<<(shift-1)
}

func (h *hist) add(v int64) {
	h.counts[histIndex(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 < q <= 1) by the nearest-rank
// method, or 0 for an empty histogram.
func (h *hist) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := max(1, min(int64(q*float64(h.n)+0.999999999), h.n))
	var seen int64
	for i, c := range h.counts {
		seen += int64(c)
		if seen >= rank {
			return histValue(i)
		}
	}
	return histValue(histBuckets - 1)
}
