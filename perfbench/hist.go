package main

import "time"

// latHist records latencies in fixed memory: 10 ns buckets up to
// latHistMax, longer latencies one by one. A growing slice of samples
// would add its own pages to the peak_rss_mb it is measuring.
type latHist struct {
	counts []uint32
	over   []time.Duration
	n      int
}

const (
	latHistBucket = 10 * time.Nanosecond
	latHistMax    = time.Millisecond
)

func newLatHist() *latHist {
	return &latHist{counts: make([]uint32, latHistMax/latHistBucket)}
}

func (h *latHist) add(d time.Duration) {
	h.n++
	if d >= latHistMax {
		h.over = append(h.over, d)
		return
	}
	h.counts[d/latHistBucket]++
}

// quantile returns the q-quantile (nearest rank), to within a bucket.
func (h *latHist) quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := int(q * float64(h.n-1))
	for i, c := range h.counts {
		if rank < int(c) {
			return time.Duration(i)*latHistBucket + latHistBucket/2
		}
		rank -= int(c)
	}
	return quantileDur(h.over, float64(rank)/float64(max(len(h.over)-1, 1)))
}
