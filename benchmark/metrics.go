package main

// The metric tables are the single source of names, units and bounds; the
// smoke test checks BENCHMARK.json against them.

type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	clock  string  // "virtual", "wall" or "count"
	// Per-layer only: the end-to-end metric this one is predicted to move and
	// the workloads it should show on.
	moves, on string
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, clock: "wall"},
	{name: "ingest_virt_s", unit: "s", better: "lower", bound: 0.20, clock: "virtual"},
	{name: "queryable_virt_s", unit: "s", better: "lower", bound: 0.05, clock: "virtual"},
	{name: "put_virt_mean_us", unit: "us", better: "lower", bound: 0.10, clock: "virtual"},
	{name: "get_virt_mean_us", unit: "us", better: "lower", bound: 0.02, clock: "virtual"},
	{name: "get_virt_tail_us", unit: "us", better: "lower", bound: 0.05, clock: "virtual"},
	{name: "scan_virt_mean_us", unit: "us", better: "lower", bound: 0.15, clock: "virtual"},
	{name: "sidx_virt_ms", unit: "ms", better: "lower", bound: 0.25, clock: "virtual"},
	{name: "write_amp", unit: "ratio", better: "lower", bound: 0.03, clock: "count"},
	{name: "link_bytes_per_app_byte", unit: "ratio", better: "lower", bound: 0.02, clock: "count"},
	{name: "wall_kops_per_s", unit: "kops/s", better: "higher", bound: 0.25, clock: "wall"},
	{name: "wall_cpu_us_per_op", unit: "us", better: "lower", bound: 0.25, clock: "wall"},
	{name: "wall_get_p50_us", unit: "us", better: "lower", bound: 0.25, clock: "wall"},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.02, clock: "count"},
	{name: "live_heap_mb", unit: "MB", better: "lower", bound: 0.15, clock: "count"},
}

const (
	allW    = "all"
	inProc  = "vpic-timesteps, array-replicated"
	remoteW = "remote-get, remote-mixed"
)

var perLayer = []metricDef{
	{name: "sim.handoff_ns", unit: "ns", better: "lower", moves: "wall_kops_per_s, wall_cpu_us_per_op", on: "all; most on remote-get"},
	{name: "sim.wall_us_per_virt_ms", unit: "us/ms", better: "lower", moves: "wall_kops_per_s", on: inProc},
	{name: "ssd.media_read_bytes_per_get", unit: "B", better: "lower", moves: "get_virt_mean_us", on: "remote-get (cache misses); little on vpic-timesteps"},
	{name: "ssd.media_stage_us_per_get", unit: "us", better: "lower", moves: "get_virt_mean_us", on: "remote-get"},
	{name: "ssd.zone_resets_per_round", unit: "count", better: "lower", moves: "write_amp", on: "vpic-timesteps, remote-mixed"},
	{name: "pcie.link_stage_us_per_get", unit: "us", better: "lower", moves: "get_virt_mean_us", on: "vpic-timesteps"},
	{name: "pcie.h2d_bytes_per_pair", unit: "B", better: "lower", moves: "link_bytes_per_app_byte, ingest_virt_s", on: "vpic-timesteps"},
	{name: "pcie.d2h_bytes_per_result_byte", unit: "ratio", better: "lower", moves: "link_bytes_per_app_byte", on: "vpic-timesteps"},
	{name: "nvme.queue_stage_us_per_get", unit: "us", better: "lower", moves: "get_virt_tail_us", on: "remote-mixed"},
	{name: "nvme.commands_per_kop", unit: "count", better: "lower", moves: "ingest_virt_s", on: "vpic-timesteps"},
	{name: "core.service_stage_us_per_bulkstore", unit: "us", better: "lower", moves: "ingest_virt_s", on: "vpic-timesteps (SoC-bound ingest)"},
	{name: "core.service_stage_us_per_get", unit: "us", better: "lower", moves: "get_virt_mean_us", on: "vpic-timesteps"},
	{name: "core.compact_virt_s", unit: "s", better: "lower", moves: "queryable_virt_s", on: "vpic-timesteps; none on remote-get"},
	{name: "core.sidx_build_virt_s", unit: "s", better: "lower", moves: "queryable_virt_s", on: "vpic-timesteps; none on remote-get"},
	{name: "core.compact_wall_s", unit: "s", better: "lower", moves: "wall_kops_per_s", on: "vpic-timesteps"},
	{name: "core.merge_wall_ns_per_pair", unit: "ns", better: "lower", moves: "wall_kops_per_s", on: "vpic-timesteps"},
	{name: "core.idxcache_hit_ratio", unit: "ratio", better: "higher", moves: "get_virt_mean_us", on: "remote-get vs vpic-timesteps"},
	{name: "compaction.bytes_moved_per_app_byte", unit: "ratio", better: "lower", moves: "write_amp, queryable_virt_s", on: "remote-mixed, vpic-timesteps"},
	{name: "compaction.host_runs", unit: "count", better: "higher", moves: "queryable_virt_s", on: "remote-mixed, vpic-timesteps"},
	{name: "compaction.device_runs", unit: "count", better: "lower", moves: "queryable_virt_s", on: "remote-mixed, vpic-timesteps"},
	{name: "compaction.fg_get_p99_ratio", unit: "ratio", better: "lower", moves: "get_virt_tail_us", on: "remote-mixed"},
	{name: "device.soc_util", unit: "ratio", better: "lower", moves: "queryable_virt_s", on: "vpic-timesteps, remote-mixed"},
	{name: "device.bg_jobs_max", unit: "count", better: "lower", moves: "queryable_virt_s", on: "vpic-timesteps, remote-mixed"},
	{name: "client.pairs_per_bulk_cmd", unit: "count", better: "higher", moves: "ingest_virt_s", on: "vpic-timesteps"},
	{name: "wire.encode_ns_per_frame", unit: "ns", better: "lower", moves: "wall_cpu_us_per_op", on: remoteW + "; none in-process"},
	{name: "wire.decode_ns_per_frame", unit: "ns", better: "lower", moves: "wall_cpu_us_per_op", on: remoteW + "; none in-process"},
	{name: "wire.decode_allocs_per_frame", unit: "count", better: "lower", moves: "allocs_per_op", on: remoteW + "; none in-process"},
	{name: "wire.server_decode_us_per_op", unit: "us", better: "lower", moves: "wall_get_p50_us", on: "remote-get"},
	{name: "wire.server_write_us_per_op", unit: "us", better: "lower", moves: "wall_get_p50_us", on: "remote-get"},
	{name: "session.sched_ns_per_item", unit: "ns", better: "lower", moves: "wall_kops_per_s", on: "remote-mixed"},
	{name: "session.shed_ratio", unit: "ratio", better: "lower", moves: "wall_kops_per_s", on: "remote-mixed (expected 0)"},
	{name: "server.queue_us_per_op", unit: "us", better: "lower", moves: "wall_get_p50_us", on: "remote-get"},
	{name: "server.service_wall_us_per_op", unit: "us", better: "lower", moves: "wall_get_p50_us", on: "remote-get"},
	{name: "server.service_virt_us_per_op", unit: "us", better: "lower", moves: "put_virt_mean_us", on: "remote-mixed"},
	{name: "server.coalesced_puts_per_batch", unit: "count", better: "higher", moves: "put_virt_mean_us", on: "remote-mixed"},
	{name: "remote.ping_rtt_us", unit: "us", better: "lower", moves: "wall_get_p50_us (floor)", on: "remote-get"},
	{name: "remote.client_overhead_us_per_get", unit: "us", better: "lower", moves: "wall_get_p50_us", on: "remote-get"},
	{name: "remote.get_wall_p99_us", unit: "us", better: "lower", moves: "wall_get_p50_us", on: "remote-get"},
	{name: "array.scan_fanout_mean", unit: "count", better: "lower", moves: "scan_virt_mean_us", on: "array-replicated"},
	{name: "array.put_fanout_virt_us_per_pair", unit: "us", better: "lower", moves: "ingest_virt_s", on: "array-replicated"},
	{name: "array.compact_stagger_virt_s", unit: "s", better: "lower", moves: "queryable_virt_s", on: "array-replicated"},
	{name: "replica.frames_per_put", unit: "count", better: "lower", moves: "put_virt_mean_us, wall_cpu_us_per_op", on: "array-replicated only"},
	{name: "replica.bytes_per_put", unit: "B", better: "lower", moves: "put_virt_mean_us", on: "array-replicated only"},
	{name: "replica.elections", unit: "count", better: "lower", moves: "put_virt_mean_us", on: "array-replicated only"},
	{name: "replica.readindex_get_virt_p50_us", unit: "us", better: "lower", moves: "get_virt_mean_us", on: "array-replicated only"},
	{name: "rocks.effective_write_virt_s", unit: "s", better: "lower", moves: "none (accuracy reference)", on: "vpic-timesteps"},
	{name: "rocks.ingest_speedup", unit: "ratio", better: "higher", moves: "none (paper: ~10.6x)", on: "vpic-timesteps"},
	{name: "rocks.sidx_speedup_1pct", unit: "ratio", better: "higher", moves: "none (paper: ~7.4x at 0.1%)", on: "vpic-timesteps"},
	{name: "host.calib_ns_per_kb", unit: "ns", better: "lower", moves: "none (slow machine vs slow program)", on: allW},
	{name: "trace.overhead_ratio", unit: "ratio", better: "higher", moves: "none (traced / untraced wall_kops_per_s)", on: allW},
}

type workloadDef struct {
	name string
	why  string
	// roundSeconds is the nominal wall time of one round on the 2-core
	// reference box; --seconds is turned into a round count with it, so the
	// same arguments always run the same rounds.
	roundSeconds float64
	start        func(c *config, rec *recorder) (system, roundStats, error)
}

var workloads = []workloadDef{
	{
		name:         "vpic-timesteps",
		why:          "paper headline: bulk ingest, device sort and index build, then queries in a fitting cache; sim/ssd/pcie/nvme/core work, no sockets",
		roundSeconds: 1.5,
		start:        startVPIC,
	},
	{
		name:         "remote-get",
		why:          "zipfian point gets over loopback with a cache 1/8 of the index: the per-request socket-to-device path, nothing to batch, no compaction",
		roundSeconds: 1.5,
		start:        startRemoteGet,
	},
	{
		name:         "remote-mixed",
		why:          "16 callers put, get and scan through the same server while a keyspace compacts: coalescing, admission and background contention",
		roundSeconds: 1.5,
		start:        startRemoteMixed,
	},
	{
		name:         "array-replicated",
		why:          "4-device array in-process: quorum puts, read-index gets, staggered fleet compaction, scatter-gather scans; sockets and sessions idle",
		roundSeconds: 1.5,
		start:        startArray,
	},
}
