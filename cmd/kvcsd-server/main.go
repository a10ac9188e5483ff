// Command kvcsd-server exposes a simulated KV-CSD device (or a sharded
// multi-device array) over TCP using the kvcsd wire protocol. Remote
// clients (internal/remote, kvcsd-cli -addr) connect and drive the same
// key-value verbs the in-process client offers: keyspace lifecycle, puts,
// gets, scans, deferred compaction, secondary-index queries, stats, and
// fault injection (power-cut / recover).
//
// The simulation behind the listener is deterministic: the same -seed
// always produces the same virtual cluster. Wall-clock arrival order of
// requests decides batching, so end-to-end timings are not bit-reproducible
// across runs — see DESIGN.md for the clock-boundary discussion.
//
// Usage:
//
//	kvcsd-server                                 # one device on 127.0.0.1:7411
//	kvcsd-server -addr :9000 -devices 4 -replicas 2
//	kvcsd-server -max-inflight 512 -pipeline 128
//	kvcsd-server -telemetry 127.0.0.1:7412       # /metrics, /healthz, pprof
//	kvcsd-server -slow-op 500us                  # log ops over a virtual-time budget
//	kvcsd-server -tenant-weights "analytics=8,batch=1" -tenant-queue 8
//	                                             # multi-tenant QoS admission
//
// SIGINT/SIGTERM drains in-flight requests, shuts the simulated devices
// down cleanly, and prints the per-opcode RPC metrics table.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"kvcsd/internal/array"
	"kvcsd/internal/device"
	"kvcsd/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7411", "listen address (host:port)")
		devices     = flag.Int("devices", 1, "devices in the simulated cluster (>1 serves a sharded array)")
		replicas    = flag.Int("replicas", 1, "replicas per keyspace (array mode)")
		seed        = flag.Int64("seed", 1, "simulation seed (same seed = same virtual cluster)")
		maxInflight = flag.Int("max-inflight", 0, "admission cap: max requests in service before shedding (0 = default)")
		pipeline    = flag.Int("pipeline", 0, "per-connection pipeline window (0 = default)")
		drain       = flag.Duration("drain", 5*time.Second, "graceful-drain timeout on shutdown")
		telemetry   = flag.String("telemetry", "", "serve /metrics, /healthz, /slowops and pprof on this HTTP address")
		slowOp      = flag.Duration("slow-op", 0, "flag ops whose virtual service time exceeds this budget (0 = off)")
		trace       = flag.Bool("trace", false, "record device spans (gives slow-op records their stage breakdown)")
		replicated  = flag.Bool("replicated", false, "consensus-backed keyspaces: quorum writes and leader-lease reads (array mode)")

		tenantQueue    = flag.Int("tenant-queue", 0, "per-tenant per-lane admission quota (0 = one tenant may fill the window)")
		tenantWeights  = flag.String("tenant-weights", "", "DRR weights per tenant, e.g. \"analytics=8,batch=1\" (others get the default weight)")
		sessionPending = flag.Int("session-pending", 0, "per-session in-flight request cap (0 = default)")
		sessionBacklog = flag.Int("session-backlog", 0, "per-session response backlog cap in bytes (0 = default)")
	)
	flag.Parse()

	cfg := server.DefaultConfig()
	if *maxInflight > 0 {
		cfg.MaxInflight = *maxInflight
	}
	if *pipeline > 0 {
		cfg.MaxPipeline = *pipeline
	}
	cfg.DrainTimeout = *drain
	if *slowOp > 0 {
		cfg.SlowOpThreshold = *slowOp
		cfg.SlowOpLog = os.Stderr
	}

	cfg.Replicated = *replicated

	cfg.QoS.Seed = *seed
	cfg.QoS.TenantQueue = *tenantQueue
	cfg.QoS.SessionPending = *sessionPending
	cfg.QoS.BacklogBytes = *sessionBacklog
	if *tenantWeights != "" {
		cfg.QoS.Weights = map[string]int{}
		for _, kv := range strings.Split(*tenantWeights, ",") {
			name, w, ok := strings.Cut(strings.TrimSpace(kv), "=")
			n, err := strconv.Atoi(w)
			if !ok || err != nil || name == "" || n <= 0 {
				fmt.Fprintf(os.Stderr, "kvcsd-server: bad -tenant-weights entry %q (want name=weight)\n", kv)
				os.Exit(2)
			}
			cfg.QoS.Weights[name] = n
		}
	}

	var srv *server.Server
	if *devices <= 1 {
		opts := device.DefaultOptions()
		opts.Seed = *seed
		opts.Trace = *trace
		opts.Metrics = true
		srv = server.NewDevice(opts, cfg)
	} else {
		opts := array.DefaultOptions()
		opts.Devices = *devices
		opts.Replicas = *replicas
		opts.Seed = *seed
		opts.Trace = *trace
		opts.Metrics = true
		srv = server.NewArray(opts, cfg)
	}

	got, err := srv.Start(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvcsd-server: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("kvcsd-server: listening on %s (devices=%d replicas=%d seed=%d inflight=%d pipeline=%d)\n",
		got, *devices, *replicas, *seed, cfg.MaxInflight, cfg.MaxPipeline)
	if *telemetry != "" {
		taddr, err := srv.ServeTelemetry(*telemetry)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kvcsd-server: telemetry: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("kvcsd-server: telemetry on http://%s (/metrics /healthz /slowops /debug/pprof)\n", taddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("kvcsd-server: %v — draining\n", s)

	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "kvcsd-server: close: %v\n", err)
	}
	fmt.Printf("kvcsd-server: RPC metrics\n")
	srv.Metrics().Dump(os.Stdout)
}
