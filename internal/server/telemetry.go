package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"

	"kvcsd/internal/wire"
)

// Telemetry is the live observability sidecar: a plain HTTP endpoint beside
// the wire-protocol listener serving
//
//	/metrics  Prometheus text exposition — RPC counters, per-opcode
//	          dual-clock service summaries, sim registry gauges, counters
//	          and stage histograms, and engine I/O counters
//	/healthz  liveness + drain state as JSON
//	/slowops  the bounded ring of over-budget ops with stage breakdowns
//	/debug/pprof/...  the standard Go profiler handlers
//
// Everything it reads is mutex- or atomic-guarded, so scraping while the
// simulation runs is safe; readings are per-metric consistent, not a global
// snapshot.

// telemetryServer is the lifecycle wrapper around the sidecar listener.
type telemetryServer struct {
	ln  net.Listener
	srv *http.Server
}

func (t *telemetryServer) close() {
	t.srv.Close()
	t.ln.Close()
}

// ServeTelemetry binds addr (e.g. "127.0.0.1:0") and serves the telemetry
// endpoints until the server is closed. It returns the bound address.
func (s *Server) ServeTelemetry(addr string) (net.Addr, error) {
	if s.telemetry != nil {
		return nil, fmt.Errorf("server: telemetry already serving on %s", s.telemetry.ln.Addr())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: s.TelemetryHandler(), ReadHeaderTimeout: 5 * time.Second}
	s.telemetry = &telemetryServer{ln: ln, srv: srv}
	go srv.Serve(ln)
	return ln.Addr(), nil
}

// TelemetryHandler returns the sidecar's HTTP handler (also usable under a
// caller-owned server or in tests without a socket).
func (s *Server) TelemetryHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/slowops", s.handleSlowOps)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.connMu.Lock()
	conns := len(s.conns)
	s.connMu.Unlock()
	json.NewEncoder(w).Encode(map[string]any{
		"status":   "ok",
		"draining": s.draining.Load(),
		"inflight": s.inflight.Load(),
		"conns":    conns,
	})
}

func (s *Server) handleSlowOps(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	ring := s.met.slowOpsSnapshot()
	if ring == nil {
		ring = []SlowOp{}
	}
	json.NewEncoder(w).Encode(map[string]any{
		"threshold_ns": int64(s.cfg.SlowOpThreshold),
		"slow_ops":     ring,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writePrometheus(w)
}

// promQuantiles are the summary quantiles exposed per opcode.
var promQuantiles = []float64{0.5, 0.9, 0.99}

func secs(d time.Duration) float64 { return float64(d) / 1e9 }

// escapeLabel escapes a Prometheus label value.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// writePrometheus renders the full text exposition.
func (s *Server) writePrometheus(w io.Writer) {
	sn := s.met.snapshot()

	fmt.Fprint(w, "# HELP kvcsd_rpc_requests_total RPC requests handled, by opcode.\n")
	fmt.Fprint(w, "# TYPE kvcsd_rpc_requests_total counter\n")
	ops := sn.ops()
	for _, op := range ops {
		fmt.Fprintf(w, "kvcsd_rpc_requests_total{op=%q} %d\n", op, sn.PerOp[op].Count)
	}
	fmt.Fprint(w, "# HELP kvcsd_rpc_errors_total RPC requests answered with a non-OK status, by opcode.\n")
	fmt.Fprint(w, "# TYPE kvcsd_rpc_errors_total counter\n")
	for _, op := range ops {
		fmt.Fprintf(w, "kvcsd_rpc_errors_total{op=%q} %d\n", op, sn.PerOp[op].Errs)
	}

	fmt.Fprint(w, "# HELP kvcsd_rpc_stage_seconds_total Cumulative per-stage time, by opcode. decode/queue/service/write are wall clock; service_virtual is virtual device time.\n")
	fmt.Fprint(w, "# TYPE kvcsd_rpc_stage_seconds_total counter\n")
	for _, op := range ops {
		st := sn.PerOp[op]
		for _, stage := range []struct {
			name string
			d    time.Duration
		}{
			{"decode", st.Decode}, {"queue", st.Queue}, {"service", st.Service},
			{"service_virtual", st.Virtual}, {"write", st.Write},
		} {
			fmt.Fprintf(w, "kvcsd_rpc_stage_seconds_total{op=%q,stage=%q} %g\n", op, stage.name, secs(stage.d))
		}
	}

	// Dual-clock service summaries: the wall-clock figure is what a remote
	// client experiences; the virtual figure is comparable to the in-process
	// benchmarks and is deterministic for a given workload.
	for _, clock := range []struct {
		metric string
		help   string
		pick   func(st rpcStats) *histView
	}{
		{"kvcsd_rpc_service_seconds", "RPC service latency, wall clock.",
			func(st rpcStats) *histView { return newHistView(st.RealHist.Samples()) }},
		{"kvcsd_rpc_service_virtual_seconds", "RPC service latency, virtual device clock.",
			func(st rpcStats) *histView { return newHistView(st.VirtHist.Samples()) }},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n", clock.metric, clock.help)
		fmt.Fprintf(w, "# TYPE %s summary\n", clock.metric)
		for _, op := range ops {
			h := clock.pick(sn.PerOp[op])
			for _, q := range promQuantiles {
				fmt.Fprintf(w, "%s{op=%q,quantile=\"%g\"} %g\n", clock.metric, op, q, secs(h.quantile(q)))
			}
			fmt.Fprintf(w, "%s_sum{op=%q} %g\n", clock.metric, op, secs(h.sum()))
			fmt.Fprintf(w, "%s_count{op=%q} %d\n", clock.metric, op, h.count())
		}
	}

	for _, c := range []struct {
		name, help string
		v          int64
	}{
		{"kvcsd_rpc_accepted_total", "Requests admitted past the admission pool.", sn.Accepted},
		{"kvcsd_rpc_shed_total", "Requests shed with StatusOverloaded.", sn.Shed},
		{"kvcsd_rpc_refused_total", "Requests refused while draining.", sn.Refused},
		{"kvcsd_rpc_bad_frames_total", "Malformed frames that killed a connection.", sn.BadFrames},
		{"kvcsd_rpc_coalesced_puts_total", "Puts absorbed into coalesced bulk submissions.", sn.Coalesced},
		{"kvcsd_rpc_coalesced_batches_total", "Coalesced bulk submissions issued.", sn.Batches},
		{"kvcsd_rpc_slow_ops_total", "Ops over the slow-op virtual-time budget.", sn.SlowOps},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n", c.name, c.help)
		fmt.Fprintf(w, "# TYPE %s counter\n", c.name)
		fmt.Fprintf(w, "%s %d\n", c.name, c.v)
	}

	fmt.Fprint(w, "# HELP kvcsd_inflight_requests Admitted requests not yet answered.\n")
	fmt.Fprint(w, "# TYPE kvcsd_inflight_requests gauge\n")
	fmt.Fprintf(w, "kvcsd_inflight_requests %d\n", s.inflight.Load())

	// Per-tenant QoS accounting from the session manager: admission outcomes
	// and queue depth per (tenant, lane), shed causes, open sessions, and
	// persistent backlog bytes.
	tenants := s.mgr.WireStats()
	for _, c := range []struct {
		metric, help string
		pick         func(l wire.LaneStats) int64
		gauge        bool
	}{
		{"kvcsd_tenant_admitted_total", "Requests admitted into the fair scheduler, by tenant and lane.",
			func(l wire.LaneStats) int64 { return l.Admitted }, false},
		{"kvcsd_tenant_completed_total", "Responses written or spilled to a session backlog, by tenant and lane.",
			func(l wire.LaneStats) int64 { return l.Completed }, false},
		{"kvcsd_tenant_shed_total", "Requests shed, by tenant and lane (any cause).",
			func(l wire.LaneStats) int64 { return l.Shed }, false},
		{"kvcsd_tenant_queued", "Requests currently parked in the fair scheduler, by tenant and lane.",
			func(l wire.LaneStats) int64 { return l.Queued }, true},
	} {
		kind := "counter"
		if c.gauge {
			kind = "gauge"
		}
		fmt.Fprintf(w, "# HELP %s %s\n", c.metric, c.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", c.metric, kind)
		for _, ts := range tenants {
			for _, l := range ts.Lanes {
				fmt.Fprintf(w, "%s{tenant=\"%s\",lane=%q} %d\n",
					c.metric, escapeLabel(ts.Tenant), wire.Lane(l.Lane), c.pick(l))
			}
		}
	}
	fmt.Fprint(w, "# HELP kvcsd_tenant_shed_cause_total Requests shed, by tenant and shed cause.\n")
	fmt.Fprint(w, "# TYPE kvcsd_tenant_shed_cause_total counter\n")
	for _, ts := range tenants {
		for _, c := range []struct {
			cause string
			v     int64
		}{
			{"session-cap", ts.ShedSession}, {"tenant-cap", ts.ShedTenant},
			{"global-cap", ts.ShedGlobal}, {"backlog-full", ts.ShedBacklog},
		} {
			fmt.Fprintf(w, "kvcsd_tenant_shed_cause_total{tenant=\"%s\",cause=%q} %d\n",
				escapeLabel(ts.Tenant), c.cause, c.v)
		}
	}
	fmt.Fprint(w, "# HELP kvcsd_tenant_sessions Open sessions per tenant.\n")
	fmt.Fprint(w, "# TYPE kvcsd_tenant_sessions gauge\n")
	for _, ts := range tenants {
		fmt.Fprintf(w, "kvcsd_tenant_sessions{tenant=\"%s\"} %d\n", escapeLabel(ts.Tenant), ts.Sessions)
	}
	fmt.Fprint(w, "# HELP kvcsd_tenant_backlog_bytes Persistent per-session response backlog, summed per tenant.\n")
	fmt.Fprint(w, "# TYPE kvcsd_tenant_backlog_bytes gauge\n")
	for _, ts := range tenants {
		fmt.Fprintf(w, "kvcsd_tenant_backlog_bytes{tenant=\"%s\"} %d\n", escapeLabel(ts.Tenant), ts.BacklogBytes)
	}

	// Simulation registry: gauges and stage histograms published by the
	// engine and device layers. Mean needs the sim's current time and is not
	// safe to read concurrently, so only current value and max are exposed.
	reg := s.backend.Registry()
	if reg != nil {
		if gauges := reg.GaugeNames(); len(gauges) > 0 {
			fmt.Fprint(w, "# HELP kvcsd_sim_gauge Current value of a simulation gauge.\n")
			fmt.Fprint(w, "# TYPE kvcsd_sim_gauge gauge\n")
			for _, n := range gauges {
				fmt.Fprintf(w, "kvcsd_sim_gauge{name=\"%s\"} %g\n", escapeLabel(n), reg.LookupGauge(n).Value())
			}
			fmt.Fprint(w, "# HELP kvcsd_sim_gauge_max Maximum value a simulation gauge reached.\n")
			fmt.Fprint(w, "# TYPE kvcsd_sim_gauge_max gauge\n")
			for _, n := range gauges {
				fmt.Fprintf(w, "kvcsd_sim_gauge_max{name=\"%s\"} %g\n", escapeLabel(n), reg.LookupGauge(n).Max())
			}
		}
		if hists := reg.HistogramNames(); len(hists) > 0 {
			fmt.Fprint(w, "# HELP kvcsd_sim_latency_seconds Simulation latency histogram (virtual time), by stage histogram name.\n")
			fmt.Fprint(w, "# TYPE kvcsd_sim_latency_seconds summary\n")
			for _, n := range hists {
				h := reg.LookupHistogram(n).Clone()
				if h.Count() == 0 {
					continue
				}
				for _, q := range promQuantiles {
					fmt.Fprintf(w, "kvcsd_sim_latency_seconds{name=\"%s\",quantile=\"%g\"} %g\n",
						escapeLabel(n), q, secs(h.Quantile(q)))
				}
				fmt.Fprintf(w, "kvcsd_sim_latency_seconds_sum{name=\"%s\"} %g\n", escapeLabel(n), secs(h.Sum()))
				fmt.Fprintf(w, "kvcsd_sim_latency_seconds_count{name=\"%s\"} %d\n", escapeLabel(n), h.Count())
			}
		}
		// A registry counter "<scope>/<base>" is a sample of the family
		// kvcsd_<base>_total labelled by scope ("engine", or "dev3/engine"
		// in an array); sorting by base keeps each family's samples together.
		counters := reg.CounterNames()
		base := func(n string) string { return n[strings.LastIndexByte(n, '/')+1:] }
		sort.SliceStable(counters, func(i, j int) bool { return base(counters[i]) < base(counters[j]) })
		for i, n := range counters {
			b := base(n)
			if i == 0 || b != base(counters[i-1]) {
				fmt.Fprintf(w, "# HELP kvcsd_%s_total Simulation counter %s, by the component that publishes it.\n", b, b)
				fmt.Fprintf(w, "# TYPE kvcsd_%s_total counter\n", b)
			}
			fmt.Fprintf(w, "kvcsd_%s_total{scope=\"%s\"} %d\n", b,
				escapeLabel(strings.TrimSuffix(n, "/"+b)), reg.LookupCounter(n).Value())
		}
		if io := reg.IOStats(); io != nil {
			snap := io.Snapshot()
			names := make([]string, 0, len(snap))
			for n := range snap {
				names = append(names, n)
			}
			sort.Strings(names)
			fmt.Fprint(w, "# HELP kvcsd_io_total Engine I/O counters (bytes and operation counts).\n")
			fmt.Fprint(w, "# TYPE kvcsd_io_total counter\n")
			for _, n := range names {
				fmt.Fprintf(w, "kvcsd_io_total{counter=\"%s\"} %d\n", escapeLabel(n), snap[n])
			}
		}
	}
}

// histView computes summary statistics over one consistent sample snapshot,
// so the quantile/sum/count triple exposed for a metric is self-consistent.
type histView struct{ samples []time.Duration }

func newHistView(samples []time.Duration) *histView {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return &histView{samples: samples}
}

func (h *histView) count() int { return len(h.samples) }

func (h *histView) sum() time.Duration {
	var s time.Duration
	for _, d := range h.samples {
		s += d
	}
	return s
}

func (h *histView) quantile(q float64) time.Duration {
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	idx := int(float64(n)*q+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return h.samples[idx]
}
