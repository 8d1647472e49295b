package stats

import (
	"fmt"
	"strings"
)

// Histogram counts observations in fixed-width bins over [lo, hi), with
// overflow and underflow buckets: the mergeable building block for
// response-time and slack-consumption distributions, which no experiment
// in the registry (internal/experiment) reports yet.
type Histogram struct {
	lo, hi   float64
	width    float64
	bins     []int64
	under    int64
	over     int64
	observed Welford
}

// NewHistogram returns a histogram over [lo, hi) with n equal bins.
// It panics if n <= 0 or hi <= lo; histogram shape is a programming
// decision, not an input.
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 {
		panic("stats: NewHistogram with n <= 0")
	}
	if hi <= lo {
		panic("stats: NewHistogram with hi <= lo")
	}
	return &Histogram{
		lo:    lo,
		hi:    hi,
		width: (hi - lo) / float64(n),
		bins:  make([]int64, n),
	}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.observed.Add(x)
	switch {
	case x < h.lo:
		h.under++
	case x >= h.hi:
		h.over++
	default:
		i := int((x - h.lo) / h.width)
		if i == len(h.bins) { // guard against floating-point edge
			i--
		}
		h.bins[i]++
	}
}

// N returns the number of observations.
func (h *Histogram) N() int64 { return h.observed.N() }

// Mean returns the sample mean of all observations.
func (h *Histogram) Mean() float64 { return h.observed.Mean() }

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) by linear
// scan of the bins; observations in the overflow bucket clamp to hi and
// underflow to lo.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(h.observed.N()))
	cum := h.under
	if cum > target {
		return h.lo
	}
	for i, c := range h.bins {
		cum += c
		if cum > target {
			// Midpoint of the containing bin.
			return h.lo + (float64(i)+0.5)*h.width
		}
	}
	return h.hi
}

// Merge combines another histogram's counts into h, as if all of o's
// observations had been added to h. The two histograms must share their
// range and bin count; it is the per-replication aggregation primitive
// the scenario engine uses alongside Welford.Merge and Ratio.Merge.
func (h *Histogram) Merge(o *Histogram) error {
	if o.lo != h.lo || o.hi != h.hi || len(o.bins) != len(h.bins) {
		return fmt.Errorf("stats: cannot merge histograms over [%v,%v)/%d and [%v,%v)/%d",
			h.lo, h.hi, len(h.bins), o.lo, o.hi, len(o.bins))
	}
	for i, c := range o.bins {
		h.bins[i] += c
	}
	h.under += o.under
	h.over += o.over
	h.observed.Merge(&o.observed)
	return nil
}

// String renders a compact ASCII bar chart of the histogram.
func (h *Histogram) String() string {
	var max int64
	for _, c := range h.bins {
		if c > max {
			max = c
		}
	}
	var b strings.Builder
	for i, c := range h.bins {
		bar := 0
		if max > 0 {
			bar = int(40 * c / max)
		}
		fmt.Fprintf(&b, "[%8.3f,%8.3f) %8d %s\n",
			h.lo+float64(i)*h.width, h.lo+float64(i+1)*h.width, c,
			strings.Repeat("#", bar))
	}
	if h.under > 0 {
		fmt.Fprintf(&b, "underflow %d\n", h.under)
	}
	if h.over > 0 {
		fmt.Fprintf(&b, "overflow %d\n", h.over)
	}
	return b.String()
}
