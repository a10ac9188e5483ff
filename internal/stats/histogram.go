package stats

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Histogram records latency samples with exact quantile computation. Runs in
// the discrete-event simulator are modest in sample count, so we keep raw
// samples; Quantile sorts lazily. All methods are safe for concurrent use —
// the telemetry endpoint reads histograms from HTTP goroutines while the
// simulation records into them.
type Histogram struct {
	mu      sync.Mutex
	name    string
	samples []time.Duration
	sorted  bool
	sum     time.Duration
	min     time.Duration
	max     time.Duration
}

// NewHistogram creates an empty named histogram.
func NewHistogram(name string) *Histogram {
	return &Histogram{name: name, min: math.MaxInt64}
}

// Name returns the histogram name.
func (h *Histogram) Name() string { return h.name }

// Record adds one latency sample.
func (h *Histogram) Record(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.samples = append(h.samples, d)
	h.sorted = false
	h.sum += d
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Samples returns a copy of the raw samples. Order is unspecified: Quantile
// sorts the histogram's backing storage in place, so samples recorded before
// a Quantile call may no longer be in recording order. The copy is the
// caller's to keep — later Record or Quantile calls never mutate it.
func (h *Histogram) Samples() []time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]time.Duration, len(h.samples))
	copy(out, h.samples)
	return out
}

// Clone returns an independent copy of the histogram — a consistent snapshot
// readers can sort and quantile without holding up writers.
func (h *Histogram) Clone() *Histogram {
	h.mu.Lock()
	defer h.mu.Unlock()
	c := &Histogram{
		name:    h.name,
		samples: append([]time.Duration(nil), h.samples...),
		sorted:  h.sorted,
		sum:     h.sum,
		min:     h.min,
		max:     h.max,
	}
	return c
}

// Merge adds every sample of other into h. The other histogram is unchanged.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	// Snapshot other before locking h, so Merge never holds two histogram
	// locks at once (and self-merge cannot deadlock).
	other.mu.Lock()
	samples := append([]time.Duration(nil), other.samples...)
	sum, min, max := other.sum, other.min, other.max
	other.mu.Unlock()
	if len(samples) == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.samples = append(h.samples, samples...)
	h.sorted = false
	h.sum += sum
	if min < h.min {
		h.min = min
	}
	if max > h.max {
		h.max = max
	}
}

// Sum returns the total of all samples.
func (h *Histogram) Sum() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the average sample, or 0 when empty.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / time.Duration(len(h.samples))
}

// Min returns the smallest sample, or 0 when empty.
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile returns the q-th quantile (0 <= q <= 1) using nearest-rank on the
// sorted samples; 0 when empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
	if q <= 0 {
		return h.samples[0]
	}
	if q >= 1 {
		return h.samples[n-1]
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return h.samples[idx]
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	if h.Count() == 0 {
		return fmt.Sprintf("%s: empty", h.name)
	}
	return fmt.Sprintf("%s: n=%d mean=%v p50=%v p99=%v max=%v",
		h.name, h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
}
