// Package metrics provides the measurement primitives the simulator fills
// on every run: named counters and fixed-bucket histograms. Unlike the
// aggregate counters in core.Stats, histograms capture *distributions* —
// fragment length, fragment-buffer residency, squash depth — which is what
// the paper's microarchitectural claims (§3.2 buffer occupancy, §4.3 squash
// behaviour) are actually about.
//
// Everything here is allocation-free after construction: Observe is two
// array index operations, so the simulator keeps histograms hot on every
// run, sink or no sink.
package metrics

import (
	"fmt"
	"strings"
)

// Counter is a named monotonic tally.
type Counter struct {
	name string
	v    int64
}

// NewCounter creates a named counter at zero.
func NewCounter(name string) *Counter { return &Counter{name: name} }

// Name returns the counter's name.
func (c *Counter) Name() string { return c.name }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v++ }

// Value returns the current tally.
func (c *Counter) Value() int64 { return c.v }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.v = 0 }

// Histogram is a fixed-bucket linear histogram: nbuckets buckets of equal
// width plus an implicit overflow bucket. Bucket i covers
// [i*width, (i+1)*width); values at or beyond nbuckets*width land in the
// overflow bucket. Negative observations clamp to bucket 0.
type Histogram struct {
	name    string
	width   int64
	buckets []int64 // len = nbuckets+1; last entry is overflow
	count   int64
	sum     int64
	max     int64
}

// NewHistogram creates a histogram with nbuckets linear buckets of the
// given width (both forced to at least 1).
func NewHistogram(name string, nbuckets int, width int64) *Histogram {
	if nbuckets < 1 {
		nbuckets = 1
	}
	if width < 1 {
		width = 1
	}
	return &Histogram{name: name, width: width, buckets: make([]int64, nbuckets+1)}
}

// Name returns the histogram's name.
func (h *Histogram) Name() string { return h.name }

// BucketWidth returns the linear bucket width.
func (h *Histogram) BucketWidth() int64 { return h.width }

// NumBuckets returns the number of regular buckets (overflow excluded).
func (h *Histogram) NumBuckets() int { return len(h.buckets) - 1 }

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	i := v / h.width
	switch {
	case i < 0:
		i = 0
	case i >= int64(len(h.buckets)-1):
		i = int64(len(h.buckets) - 1)
	}
	h.buckets[i]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum }

// Max returns the largest observed value (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the average observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Bucket returns bucket i's lower bound (inclusive), upper bound
// (exclusive; -1 for the overflow bucket) and count.
func (h *Histogram) Bucket(i int) (lo, hi, count int64) {
	lo = int64(i) * h.width
	if i == len(h.buckets)-1 {
		hi = -1
	} else {
		hi = lo + h.width
	}
	return lo, hi, h.buckets[i]
}

// Overflow returns the overflow bucket's count.
func (h *Histogram) Overflow() int64 { return h.buckets[len(h.buckets)-1] }

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) assuming
// values are spread within buckets: the exclusive upper edge of the bucket
// where the q-th observation falls. Empty histograms return 0.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	target := int64(q * float64(h.count))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i, c := range h.buckets {
		seen += c
		if seen >= target {
			if i == len(h.buckets)-1 {
				return h.max
			}
			return int64(i+1) * h.width
		}
	}
	return h.max
}

// Reset zeroes every bucket and summary statistic.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.count, h.sum, h.max = 0, 0, 0
}

// Merge accumulates o's observations into h. The histograms must have the
// same shape (bucket count and width); mismatched shapes are a programming
// error and panic.
func (h *Histogram) Merge(o *Histogram) {
	if len(h.buckets) != len(o.buckets) || h.width != o.width {
		panic(fmt.Sprintf("metrics: merging mismatched histograms %s (%d×%d) and %s (%d×%d)",
			h.name, len(h.buckets)-1, h.width, o.name, len(o.buckets)-1, o.width))
	}
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// String renders a compact one-line summary.
func (h *Histogram) String() string {
	return fmt.Sprintf("%s: n=%d mean=%.2f p90<=%d max=%d", h.name, h.count, h.Mean(), h.Quantile(0.9), h.max)
}

// Pipeline bundles the per-run pipeline distributions the simulator always
// collects. All observations happen at fragment granularity (one per ~12
// instructions) or rarer, so the cost is negligible against a cycle loop.
type Pipeline struct {
	// FragLen is the length in instructions of each predicted fragment,
	// observed at prediction time (wrong path included).
	FragLen *Histogram

	// BufResidency is the number of cycles each fragment spent in flight
	// between entering the fragment queue and finishing rename — the
	// buffer occupancy behind §3.2's reuse claims.
	BufResidency *Histogram

	// SquashDepth is the number of window entries removed per squash,
	// split by nothing — causes are on the event stream.
	SquashDepth *Histogram
}

// NewPipeline creates the standard pipeline histogram set: fragment length
// in single-instruction buckets up to 32, residency in 8-cycle buckets up
// to 256, squash depth in 16-op buckets up to 256 (the window size).
func NewPipeline() *Pipeline {
	return &Pipeline{
		FragLen:      NewHistogram("fragment-length", 32, 1),
		BufResidency: NewHistogram("buffer-residency-cycles", 32, 8),
		SquashDepth:  NewHistogram("squash-depth-ops", 16, 16),
	}
}

// Reset zeroes all histograms (the simulator calls this when measurement
// starts so warmup does not pollute the distributions).
func (p *Pipeline) Reset() {
	p.FragLen.Reset()
	p.BufResidency.Reset()
	p.SquashDepth.Reset()
}

// Merge accumulates o's distributions into p — combining the measurement
// windows of a sampled run into one logical run's histograms.
func (p *Pipeline) Merge(o *Pipeline) {
	p.FragLen.Merge(o.FragLen)
	p.BufResidency.Merge(o.BufResidency)
	p.SquashDepth.Merge(o.SquashDepth)
}

// All returns the histograms in presentation order.
func (p *Pipeline) All() []*Histogram {
	return []*Histogram{p.FragLen, p.BufResidency, p.SquashDepth}
}

// Summary renders the one-line summaries of every histogram.
func (p *Pipeline) Summary() string {
	var b strings.Builder
	for _, h := range p.All() {
		fmt.Fprintf(&b, "%s\n", h)
	}
	return b.String()
}
