package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"kvcsd/internal/sim"
	"kvcsd/internal/stats"
)

// Registry is a named collection of gauges, histograms and counters, plus an
// optional view over an IOStats counter block. It is the aggregation side of
// the observability layer: the tracer feeds per-op stage histograms into it,
// the SSD and engine publish gauges and counters, and cmd tools dump it after
// a run.
//
// A registry can hand out namespaced views (Namespace) that share its
// backing maps but prefix every metric name — how a multi-device array keeps
// one registry while each device publishes gauges under "dev<N>/".
//
// Registration and lookup are safe for concurrent use: the live telemetry
// endpoint walks the registry from HTTP goroutines while the simulation
// registers metrics. All views share one lock, so a namespaced view and its
// root never race on the common maps.
type Registry struct {
	env      *sim.Env
	prefix   string        // name prefix of this view ("" for the root)
	mu       *sync.RWMutex // shared across all views of one registry
	gauges   map[string]*sim.Gauge
	hists    map[string]*stats.Histogram
	counters map[string]*stats.Counter
	io       *stats.IOStats
}

// NewRegistry creates an empty registry bound to the environment.
func NewRegistry(env *sim.Env) *Registry {
	return &Registry{
		env:      env,
		mu:       &sync.RWMutex{},
		gauges:   make(map[string]*sim.Gauge),
		hists:    make(map[string]*stats.Histogram),
		counters: make(map[string]*stats.Counter),
	}
}

// AttachIOStats includes an IOStats block in the registry's dump, so one
// registry subsumes the run's counters, gauges, and latency breakdowns.
func (r *Registry) AttachIOStats(st *stats.IOStats) { r.io = st }

// IOStats returns the attached counter block (nil if none).
func (r *Registry) IOStats() *stats.IOStats { return r.io }

// Namespace returns a view of the registry that prefixes every gauge and
// histogram name with prefix (e.g. "dev3/"). The view shares the registry's
// backing maps, so metrics registered through it appear in the root's dump
// under their full names. An empty prefix returns the receiver unchanged.
func (r *Registry) Namespace(prefix string) *Registry {
	if prefix == "" {
		return r
	}
	return &Registry{
		env:      r.env,
		prefix:   r.prefix + prefix,
		mu:       r.mu,
		gauges:   r.gauges,
		hists:    r.hists,
		counters: r.counters,
	}
}

// Prefix returns the name prefix of this registry view ("" for the root).
func (r *Registry) Prefix() string { return r.prefix }

// Gauge returns the named gauge, creating it at zero on first use.
func (r *Registry) Gauge(name string) *sim.Gauge {
	name = r.prefix + name
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = sim.NewGauge(r.env)
		r.gauges[name] = g
	}
	return g
}

// AddGauge adopts an existing gauge under the given name (for components
// that created their gauge before a registry was attached).
func (r *Registry) AddGauge(name string, g *sim.Gauge) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[r.prefix+name] = g
}

// AddCounter publishes a counter its owner keeps incrementing (e.g. the
// engine's index-cache hits). Re-adding a name replaces the earlier counter,
// which is what a restarted engine wants.
func (r *Registry) AddCounter(name string, c *stats.Counter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters[r.prefix+name] = c
}

// Histogram returns the named histogram, creating it empty on first use.
func (r *Registry) Histogram(name string) *stats.Histogram {
	name = r.prefix + name
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = stats.NewHistogram(name)
		r.hists[name] = h
	}
	return h
}

// StageHistogram returns the latency histogram for one (op, stage) pair,
// named "op/stage" — e.g. "Store/queue", "BulkStore/media".
func (r *Registry) StageHistogram(op, stage string) *stats.Histogram {
	return r.Histogram(op + "/" + stage)
}

// visibleNames returns the keys of m under the view's prefix, sorted.
func visibleNames[V any](r *Registry, m map[string]V) []string {
	r.mu.RLock()
	names := make([]string, 0, len(m))
	for n := range m {
		if strings.HasPrefix(n, r.prefix) {
			names = append(names, n)
		}
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// GaugeNames returns all gauge names visible from this view (full names,
// filtered by the view's prefix), sorted.
func (r *Registry) GaugeNames() []string { return visibleNames(r, r.gauges) }

// HistogramNames returns all histogram names visible from this view (full
// names, filtered by the view's prefix), sorted.
func (r *Registry) HistogramNames() []string { return visibleNames(r, r.hists) }

// CounterNames returns all counter names visible from this view (full names,
// filtered by the view's prefix), sorted.
func (r *Registry) CounterNames() []string { return visibleNames(r, r.counters) }

// LookupGauge returns the named gauge (full name) or nil — a read-only probe
// that never registers.
func (r *Registry) LookupGauge(name string) *sim.Gauge {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.gauges[name]
}

// LookupHistogram returns the named histogram (full name) or nil — a
// read-only probe that never registers.
func (r *Registry) LookupHistogram(name string) *stats.Histogram {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.hists[name]
}

// LookupCounter returns the named counter (full name) or nil.
func (r *Registry) LookupCounter(name string) *stats.Counter {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.counters[name]
}

// Dump renders the registry: attached IOStats counters (non-zero ones), then
// published counters, then gauges (current, time-weighted mean, max), then
// histograms (count, mean, p50, p99, max). Output order is sorted by name, so
// dumps are deterministic.
func (r *Registry) Dump(w io.Writer) error {
	if r.io != nil {
		snap := r.io.Snapshot()
		names := make([]string, 0, len(snap))
		for n := range snap {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if snap[n] == 0 {
				continue
			}
			if _, err := fmt.Fprintf(w, "counter %-28s %d\n", n, snap[n]); err != nil {
				return err
			}
		}
	}
	for _, n := range r.CounterNames() {
		if _, err := fmt.Fprintf(w, "counter %-28s %d\n", n, r.LookupCounter(n).Value()); err != nil {
			return err
		}
	}
	for _, n := range r.GaugeNames() {
		g := r.LookupGauge(n)
		if _, err := fmt.Fprintf(w, "gauge   %-28s cur=%.6g mean=%.6g max=%.6g\n",
			n, g.Value(), g.Mean(), g.Max()); err != nil {
			return err
		}
	}
	for _, n := range r.HistogramNames() {
		h := r.LookupHistogram(n)
		if h.Count() == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "hist    %-28s n=%d mean=%v p50=%v p99=%v max=%v\n",
			n, h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max()); err != nil {
			return err
		}
	}
	return nil
}
