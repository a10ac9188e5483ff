package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"kvcsd/internal/client"
	"kvcsd/internal/device"
	"kvcsd/internal/keyenc"
	"kvcsd/internal/obs"
	"kvcsd/internal/remote"
	"kvcsd/internal/sim"
	"kvcsd/internal/wire"
)

// startTracedServer runs a device server with tracing and metrics on, a tiny
// slow-op budget, and a traced remote client that performs a put and a get.
func startTracedServer(t *testing.T, slowLog *bytes.Buffer) (*Server, *obs.WallTracer) {
	t.Helper()
	opts := device.DefaultOptions()
	opts.Seed = 11
	opts.Trace = true
	opts.Metrics = true
	cfg := DefaultConfig()
	cfg.SlowOpThreshold = 1 * time.Nanosecond // flag everything
	cfg.SlowOpLog = slowLog
	srv := NewDevice(opts, cfg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}

	wt := obs.NewWallTracer(11)
	ropts := remote.DefaultOptions()
	ropts.Tracer = wt
	rc, err := remote.Dial(addr.String(), ropts)
	if err != nil {
		srv.Close()
		t.Fatalf("dial: %v", err)
	}
	defer rc.Close()

	ks, err := rc.CreateKeyspace("tele")
	if err != nil {
		t.Fatalf("create keyspace: %v", err)
	}
	if err := ks.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := ks.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := ks.WaitCompacted(); err != nil {
		t.Fatalf("wait compacted: %v", err)
	}
	if _, _, err := ks.Get([]byte("k1")); err != nil {
		t.Fatalf("get: %v", err)
	}
	return srv, wt
}

// TestRemoteTraceAncestry is the tentpole acceptance test: a remote put/get
// must yield server-side rpc spans whose remote parent is the client's wall
// span, with the device command spans as their descendants, all sharing the
// propagated trace id — one causally-linked timeline across the two clocks.
func TestRemoteTraceAncestry(t *testing.T) {
	var slowLog bytes.Buffer
	srv, wt := startTracedServer(t, &slowLog)
	tr := srv.Backend().Tracer()
	srv.Close() // sim finished: safe to walk the tracer

	clientByID := make(map[uint64]*obs.WallSpan)
	clientByTrace := make(map[uint64]*obs.WallSpan)
	for _, ws := range wt.Finished() {
		clientByID[ws.ID()] = ws
		clientByTrace[ws.TraceID()] = ws
	}
	if len(clientByID) < 3 { // create + put + get
		t.Fatalf("client wall spans = %d, want >= 3", len(clientByID))
	}

	linked := 0
	cmdUnderRPC := 0
	for _, s := range tr.Finished() {
		if !s.IsRoot() {
			continue
		}
		if strings.HasPrefix(s.Name(), "rpc:") && s.RemoteParent() != 0 {
			c, ok := clientByID[s.RemoteParent()]
			if !ok {
				t.Errorf("rpc span %s has unknown remote parent %d", s.Name(), s.RemoteParent())
				continue
			}
			if c.TraceID() != s.TraceID() {
				t.Errorf("rpc span %s trace id %#x != client span trace id %#x",
					s.Name(), s.TraceID(), c.TraceID())
			}
			if want := "remote:" + strings.TrimPrefix(s.Name(), "rpc:"); c.Name() != want {
				t.Errorf("rpc span %s linked to client span %s, want %s", s.Name(), c.Name(), want)
			}
			linked++
		}
		// Device command spans must sit under an rpc span and inherit its
		// propagated trace id.
		if strings.HasPrefix(s.Name(), "cmd:") {
			p := s.Parent()
			for p != nil && !strings.HasPrefix(p.Name(), "rpc:") {
				p = p.Parent()
			}
			if p == nil {
				t.Errorf("device span %s has no rpc ancestor", s.Name())
				continue
			}
			if s.TraceID() == 0 || s.TraceID() != p.TraceID() {
				t.Errorf("device span %s trace id %#x != rpc ancestor trace id %#x",
					s.Name(), s.TraceID(), p.TraceID())
			}
			if _, ok := clientByTrace[s.TraceID()]; !ok {
				t.Errorf("device span %s trace id %#x unknown to the client tracer", s.Name(), s.TraceID())
			}
			cmdUnderRPC++
		}
	}
	if linked == 0 {
		t.Error("no rpc span linked to a client wall span")
	}
	if cmdUnderRPC == 0 {
		t.Error("no device command span found under an rpc span")
	}

	// The merged export must render both processes and at least one flow
	// arrow per linked rpc.
	var merged bytes.Buffer
	if err := obs.WriteMergedChromeTrace(&merged, wt, tr); err != nil {
		t.Fatalf("merged export: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(merged.Bytes(), &doc); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	flows := 0
	pids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		pids[ev.Pid] = true
		if ev.Ph == "s" {
			flows++
		}
	}
	if flows < linked {
		t.Errorf("merged trace flow starts = %d, want >= %d", flows, linked)
	}
	if !pids[1] || !pids[2] {
		t.Errorf("merged trace missing a process: %v", pids)
	}
}

// promLine matches one Prometheus text-exposition sample.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? ([-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|NaN|[-+]?Inf)$`)

func TestTelemetryEndpoints(t *testing.T) {
	var slowLog bytes.Buffer
	srv, _ := startTracedServer(t, &slowLog)
	defer srv.Close()
	h := srv.TelemetryHandler()

	// /metrics must be valid Prometheus text exposition.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type = %q", ct)
	}
	body := rec.Body.String()
	sc := bufio.NewScanner(strings.NewReader(body))
	samples := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("invalid exposition line: %q", line)
		}
		samples++
	}
	if samples == 0 {
		t.Fatal("no samples in /metrics output")
	}
	for _, want := range []string{
		`kvcsd_rpc_requests_total{op="Put"}`,
		`kvcsd_rpc_requests_total{op="Get"}`,
		`kvcsd_rpc_service_virtual_seconds{op="Put",quantile="0.99"}`,
		"kvcsd_rpc_accepted_total",
		"kvcsd_rpc_slow_ops_total",
		"kvcsd_sim_gauge{",
		// One get so far, answered from the PIDX block the compaction
		// admitted into the cache: no index block was read from media.
		`kvcsd_idxcache_hits_total{scope="engine"} 1`,
		`kvcsd_idxcache_misses_total{scope="engine"} 0`,
		`kvcsd_idxcache_admitted_total{scope="engine"} 1`,
		// The cache fits: nothing evicted, no record kept.
		`kvcsd_idxcache_record_hits_total{scope="engine"} 0`,
		`kvcsd_sim_gauge{name="engine/idxcache_records"} 0`,
		`kvcsd_meta_frames_total{scope="engine"} `,  // the metadata log's cost
		`kvcsd_sidx_joined_total{scope="engine"} 0`, // no index built
		`kvcsd_meta_bytes_total{scope="engine"} `,
		"kvcsd_io_total{",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /healthz reports liveness.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var health struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatalf("/healthz not JSON: %v", err)
	}
	if health.Status != "ok" || health.Draining {
		t.Errorf("/healthz = %+v", health)
	}

	// /slowops carries the over-budget ops (threshold 1ns flags everything).
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/slowops", nil))
	var slow struct {
		ThresholdNs int64    `json:"threshold_ns"`
		SlowOps     []SlowOp `json:"slow_ops"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &slow); err != nil {
		t.Fatalf("/slowops not JSON: %v", err)
	}
	if len(slow.SlowOps) == 0 {
		t.Fatal("no slow ops recorded despite 1ns threshold")
	}
	found := false
	for _, op := range slow.SlowOps {
		if op.Op == "Put" {
			found = true
			if op.VirtualNs <= 0 {
				t.Errorf("slow op virtual_ns = %d", op.VirtualNs)
			}
			if len(op.Stages) == 0 {
				t.Error("slow Put carries no stage breakdown")
			}
		}
	}
	if !found {
		t.Error("Put not flagged as slow")
	}

	// pprof index answers.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("/debug/pprof/ status=%d", rec.Code)
	}

	// The structured slow-op log is JSON lines with stage breakdowns.
	lines := 0
	lsc := bufio.NewScanner(bytes.NewReader(slowLog.Bytes()))
	for lsc.Scan() {
		var rec SlowOp
		if err := json.Unmarshal(lsc.Bytes(), &rec); err != nil {
			t.Fatalf("slow-op log line %d not JSON: %v", lines+1, err)
		}
		if rec.ThresholdNs != 1 {
			t.Errorf("slow-op threshold_ns = %d, want 1", rec.ThresholdNs)
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("slow-op log empty")
	}
}

// The index-cache lines of /metrics explain the hit ratio: a get answered
// from a record the cache kept after evicting its block is a hit and a record
// hit, and the gauge shows the records the cache holds.
func TestTelemetryIndexCacheRecords(t *testing.T) {
	opts := device.DefaultOptions()
	opts.Seed = 11
	opts.Metrics = true
	opts.Engine.IndexCacheBytes = int64(opts.Engine.BlockBytes) + 512 // one PIDX block and a few records
	srv := NewDevice(opts, DefaultConfig())
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer srv.Close()
	rc, err := remote.Dial(addr.String(), remote.DefaultOptions())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer rc.Close()
	ks, err := rc.CreateKeyspace("cache")
	if err != nil {
		t.Fatalf("create keyspace: %v", err)
	}
	const n = 1000 // several PIDX blocks
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
	for i := 0; i < n; i++ {
		if err := ks.BulkPut(key(i), []byte("v")); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if err := ks.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := ks.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := ks.WaitCompacted(); err != nil {
		t.Fatalf("wait compacted: %v", err)
	}
	// The compaction admits the first key's block only; the last key's block,
	// read from media, evicts it, which leaves the first key's record.
	for _, k := range [][]byte{key(0), key(n - 1), key(0)} {
		if _, ok, err := ks.Get(k); err != nil || !ok {
			t.Fatalf("get %s: %v %v", k, ok, err)
		}
	}
	rec := httptest.NewRecorder()
	srv.TelemetryHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`kvcsd_idxcache_admitted_total{scope="engine"} 1`,
		`kvcsd_idxcache_hits_total{scope="engine"} 2`,
		`kvcsd_idxcache_record_hits_total{scope="engine"} 1`,
		`kvcsd_idxcache_misses_total{scope="engine"} 1`,
		`kvcsd_sim_gauge{name="engine/idxcache_records"} 1`,
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestTelemetrySidxJoined: /metrics counts the index builds that rode a
// compaction's value pass. Two indexes declared with the compaction join it;
// one requested once it has finished is built on its own and not counted.
func TestTelemetrySidxJoined(t *testing.T) {
	opts := device.DefaultOptions()
	opts.Seed = 11
	opts.Metrics = true
	srv := NewDevice(opts, DefaultConfig())
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer srv.Close()
	rc, err := remote.Dial(addr.String(), remote.DefaultOptions())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer rc.Close()
	ks, err := rc.CreateKeyspace("joined")
	if err != nil {
		t.Fatalf("create keyspace: %v", err)
	}
	for i := 0; i < 500; i++ {
		if err := ks.BulkPut([]byte(fmt.Sprintf("key-%06d", i)), []byte(fmt.Sprintf("value-%06d", i))); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if err := ks.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	spec := func(name string, off int) client.IndexSpec {
		return client.IndexSpec{Name: name, Offset: off, Length: 4, Type: keyenc.TypeBytes}
	}
	if err := ks.CompactWithIndexes([]client.IndexSpec{spec("a", 0), spec("b", 6)}); err != nil {
		t.Fatalf("compact with indexes: %v", err)
	}
	if err := ks.WaitCompacted(); err != nil {
		t.Fatalf("wait compacted: %v", err)
	}
	if err := ks.BuildSecondaryIndex(spec("c", 8)); err != nil {
		t.Fatalf("build index: %v", err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if err := ks.WaitIndexBuilt(name); err != nil {
			t.Fatalf("wait index %s: %v", name, err)
		}
	}
	rec := httptest.NewRecorder()
	srv.TelemetryHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if want := `kvcsd_sidx_joined_total{scope="engine"} 2`; !strings.Contains(rec.Body.String(), want+"\n") {
		t.Errorf("/metrics missing %q", want)
	}
}

// TestTelemetryQuantileNearestRank pins the quantile rule of the per-opcode
// service summaries to stats.Histogram's nearest rank, the rule
// kvcsd_sim_latency_seconds uses: of 16 samples of 1..16 µs the 0.9 quantile
// is the 15th (⌈16·0.9⌉ = 15), not the 14th a rounded index picks.
func TestTelemetryQuantileNearestRank(t *testing.T) {
	srv := New(sim.NewEnv(), newGateBackend(), DefaultConfig())
	for i := 16; i >= 1; i-- {
		d := time.Duration(i) * time.Microsecond
		srv.met.observeService(wire.OpGet, 0, d, d, wire.StatusOK)
	}
	rec := httptest.NewRecorder()
	srv.TelemetryHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, metric := range []string{"kvcsd_rpc_service_seconds", "kvcsd_rpc_service_virtual_seconds"} {
		for _, want := range []string{
			fmt.Sprintf(`%s{op="Get",quantile="0.5"} %g`, metric, secs(8*time.Microsecond)),
			fmt.Sprintf(`%s{op="Get",quantile="0.9"} %g`, metric, secs(15*time.Microsecond)),
			fmt.Sprintf(`%s{op="Get",quantile="0.99"} %g`, metric, secs(16*time.Microsecond)),
			fmt.Sprintf(`%s_count{op="Get"} 16`, metric),
		} {
			if !strings.Contains(body, want+"\n") {
				t.Errorf("/metrics missing %q", want)
			}
		}
	}
}

// TestRemoteStatsCarriesRPCReport verifies that a remote Stats call returns
// the gateway's RPC counters alongside engine stats.
func TestRemoteStatsCarriesRPCReport(t *testing.T) {
	var slowLog bytes.Buffer
	srv, _ := startTracedServer(t, &slowLog)
	defer srv.Close()

	rc, err := remote.Dial(srv.Addr().String(), remote.DefaultOptions())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer rc.Close()
	rep, err := rc.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if rep.RPC == nil {
		t.Fatal("stats report has no RPC section")
	}
	if rep.RPC.Accepted == 0 || len(rep.RPC.Ops) == 0 {
		t.Fatalf("rpc report empty: %+v", rep.RPC)
	}
	var put *struct{ count, errs int64 }
	for _, o := range rep.RPC.Ops {
		if o.Op.String() == "Put" {
			put = &struct{ count, errs int64 }{o.Count, o.Errs}
		}
	}
	if put == nil || put.count == 0 {
		t.Fatalf("rpc report missing Put counts: %+v", rep.RPC.Ops)
	}
	if rep.RPC.SlowOps == 0 {
		t.Error("rpc report slow_ops = 0 despite 1ns threshold")
	}
}
