package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"kvcsd/internal/obs"
)

// sizes are the frozen per-round shapes. They were chosen so one round takes
// about 1.5 s of wall time on the 2-core reference box (see README.md);
// -shrink divides them for the smoke test.
type sizes struct {
	VPICFiles, VPICPerFile         int
	VPICGets, VPICGetProcs         int
	VPICScans, VPICScanLen         int
	VPICRestartSample              int
	RemotePreload, RemoteValue     int
	RemoteCheckScans, RemoteScan   int
	RemoteSortBudget               int
	GetCallers, GetOpsPerSlice     int
	MixedCallers, MixedOpsPerSlice int
	ArrayDevices, ArrayShards      int
	ArrayOnlineProcs, ArrayOnline  int
	ArrayHotKeys, ArrayValue       int
	ArrayFanPairs, ArrayFanScans   int
	ArrayScanLen                   int
}

func frozenSizes() sizes {
	return sizes{
		VPICFiles: 16, VPICPerFile: 10240,
		VPICGets: 16384, VPICGetProcs: 4,
		VPICScans: 256, VPICScanLen: 128,
		VPICRestartSample: 1024,
		RemotePreload:     131072, RemoteValue: 128,
		RemoteCheckScans: 256, RemoteScan: 64,
		RemoteSortBudget: 1 << 20,
		GetCallers:       2, GetOpsPerSlice: 34000,
		MixedCallers: 16, MixedOpsPerSlice: 40000,
		ArrayDevices: 4, ArrayShards: 4,
		ArrayOnlineProcs: 8, ArrayOnline: 6144,
		ArrayHotKeys: 1536, ArrayValue: 128,
		ArrayFanPairs: 24576, ArrayFanScans: 256,
		ArrayScanLen: 64,
	}
}

// shrink divides every count by d, keeping structural constants (procs,
// devices, value sizes, scan lengths) and a floor that keeps every phase
// non-empty.
func (s sizes) shrink(d int) sizes {
	if d <= 1 {
		return s
	}
	div := func(v *int, floor int) {
		*v = max(*v/d, floor)
	}
	div(&s.VPICPerFile, 256)
	div(&s.VPICGets, 64)
	div(&s.VPICScans, 8)
	div(&s.VPICRestartSample, 16)
	div(&s.RemotePreload, 2048)
	div(&s.RemoteCheckScans, 8)
	div(&s.RemoteSortBudget, 64<<10)
	div(&s.GetOpsPerSlice, 256)
	div(&s.MixedOpsPerSlice, 256)
	div(&s.ArrayOnline, 256)
	div(&s.ArrayHotKeys, 256)
	div(&s.ArrayFanPairs, 1024)
	div(&s.ArrayFanScans, 8)
	return s
}

type config struct {
	seed    int64
	seconds int
	rounds  int // timed rounds; 0 = derive from seconds
	setups  int
	traced  bool
	outDir  string
	sz      sizes
	shrink  int
}

// roundStats is what one round (or the preload) hands back. Zero durations
// and empty sample slices mean "this round had no such phase".
type roundStats struct {
	ops       int64 // pair puts + gets + scans + queries
	attempted int64
	failed    int64
	virt      time.Duration // virtual time the round spanned

	ingestVirt    time.Duration
	queryableVirt time.Duration
	sidxVirt      time.Duration
	putVirt       []int64 // ns
	getVirt       []int64
	scanVirt      []int64
	getWall       []int64

	appWrite, appRead     int64
	mediaWrite, linkBytes int64

	// layer carries per-round raw per-layer figures on traced runs; sums and
	// ratios are formed by the workload's layers() at the end.
	layer map[string]float64

	// Filled in by the harness around the round.
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
}

// system is one built system under test. Rounds are identical in shape;
// round 0 is the warm-up. A round generates its inputs, calls m.start, does
// the round's work, calls m.stop, and only then does its own bookkeeping, so
// neither input generation nor counter snapshots are ever timed.
type system interface {
	round(r int, m *meter) roundStats
	// final runs the post-run checks (outside the timed window) and returns
	// attempted and failed operation counts.
	final() (attempted, failed int64)
	// layers returns the traced run's per-layer metrics for this workload.
	layers(timed []roundStats, pre roundStats) map[string]float64
	// traceSources returns the program's own tracer and, on remote workloads,
	// the wire trace ids the sampled calls carried.
	traceSources() (*obs.Tracer, map[uint64]bool)
	close()
}

// meter measures one round's timed window: wall time, process CPU time and
// heap allocations, with a forced collection just before it opens so no
// round inherits the previous round's garbage.
type meter struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	heap    uint64 // largest live heap seen right after a forced GC

	t0   time.Time
	cpu0 time.Duration
	m0   uint64
}

func (m *meter) start() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.heap = max(m.heap, ms.HeapAlloc)
	m.m0 = ms.Mallocs
	m.cpu0 = cpuTime()
	m.t0 = time.Now()
}

func (m *meter) stop() {
	m.wall = time.Since(m.t0)
	m.cpu = cpuTime() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.mallocs = ms.Mallocs - m.m0
}

// fails counts failed operations and keeps the first few reasons for stderr.
type fails struct {
	mu   sync.Mutex
	n    int64
	msgs []string
}

func (f *fails) addf(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.msgs) < 5 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

func (f *fails) drain() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, m := range f.msgs {
		fmt.Fprintln(os.Stderr, "FAILED OP:", m)
	}
	n := f.n
	f.n, f.msgs = 0, nil
	return n
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runResult is one workload run's outcome.
type runResult struct {
	workload  string
	rounds    int
	attempted int64
	failed    int64
	metrics   map[string]float64   // end-to-end, or per-layer on traced runs
	perRound  map[string][]float64 // wall metrics, one value per timed round
}

func (c *config) timedRounds(w workloadDef) int {
	if c.rounds > 0 {
		return c.rounds
	}
	if c.traced {
		return 2
	}
	return max(10, int(math.Ceil(float64(c.seconds)/w.roundSeconds)))
}

// measurement is a finished run: its result, the rounds behind it, and the
// still-open system (the caller closes it).
type measurement struct {
	res   *runResult
	timed []roundStats
	pre   roundStats
	sys   system
}

// measure builds the system c.setups times (reporting the median set-up
// time, warm-up round included), then runs the timed rounds on the last one.
func measure(c *config, w workloadDef, rec *recorder) (*measurement, error) {
	res := &runResult{workload: w.name, metrics: map[string]float64{}, perRound: map[string][]float64{}}
	var sess system
	var pre roundStats
	var setups []float64
	var m meter
	for i := 0; i < c.setups; i++ {
		if sess != nil {
			sess.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		sess, pre, err = w.start(c, rec)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		warm := sess.round(0, &m)
		setups = append(setups, time.Since(t0).Seconds())
		res.attempted += pre.attempted + warm.attempted
		res.failed += pre.failed + warm.failed
	}
	res.metrics["setup_s"] = median(setups)

	n := c.timedRounds(w)
	res.rounds = n
	timed := make([]roundStats, 0, n)
	for r := 1; r <= n; r++ {
		rs := sess.round(r, &m)
		rs.wall, rs.cpu, rs.mallocs = m.wall, m.cpu, m.mallocs
		timed = append(timed, rs)
		res.attempted += rs.attempted
		res.failed += rs.failed
	}
	a, f := sess.final()
	res.attempted += a
	res.failed += f
	endToEndMetrics(res, timed, pre, m.heap)
	return &measurement{res: res, timed: timed, pre: pre, sys: sess}, nil
}

// endToEndMetrics folds the rounds into the 15 end-to-end metrics. A phase
// the timed rounds do not have is taken from the preload, so every workload
// reports every metric.
func endToEndMetrics(res *runResult, timed []roundStats, pre roundStats, heap uint64) {
	m := res.metrics
	var ops, mallocs, appW, appR, media, link int64
	var ingest, queryable, sidx, kops, cpuPerOp, getWallP50 []float64
	var putV, getV, scanV []int64
	for i := range timed {
		rs := &timed[i]
		ops += rs.ops
		mallocs += int64(rs.mallocs)
		appW += rs.appWrite
		appR += rs.appRead
		media += rs.mediaWrite
		link += rs.linkBytes
		if rs.ingestVirt > 0 {
			ingest = append(ingest, rs.ingestVirt.Seconds())
		}
		if rs.queryableVirt > 0 {
			queryable = append(queryable, rs.queryableVirt.Seconds())
		}
		if rs.sidxVirt > 0 {
			sidx = append(sidx, float64(rs.sidxVirt)/1e6)
		}
		putV = append(putV, rs.putVirt...)
		getV = append(getV, rs.getVirt...)
		scanV = append(scanV, rs.scanVirt...)
		kops = append(kops, float64(rs.ops)/rs.wall.Seconds()/1e3)
		cpuPerOp = append(cpuPerOp, float64(rs.cpu)/1e3/float64(rs.ops))
		if len(rs.getWall) > 0 {
			getWallP50 = append(getWallP50, quantileNs(rs.getWall, 0.5)/1e3)
		}
	}
	// Virtual phase times are exact for a given input, so there are no
	// outliers for a median to resist: the mean over the rounds uses every
	// round and varies least from seed to seed.
	orPre := func(v []float64, p time.Duration, scale float64) float64 {
		if len(v) > 0 {
			return mean(v)
		}
		return float64(p) / scale
	}
	orPreNs := func(v, p []int64, slowest float64) float64 {
		if len(v) == 0 {
			v = p
		}
		return tailMeanNs(v, slowest) / 1e3
	}
	m["ingest_virt_s"] = orPre(ingest, pre.ingestVirt, 1e9)
	m["queryable_virt_s"] = orPre(queryable, pre.queryableVirt, 1e9)
	m["sidx_virt_ms"] = orPre(sidx, pre.sidxVirt, 1e6)
	m["put_virt_mean_us"] = orPreNs(putV, pre.putVirt, 1)
	m["get_virt_mean_us"] = orPreNs(getV, pre.getVirt, 1)
	m["get_virt_tail_us"] = orPreNs(getV, pre.getVirt, 0.01)
	m["scan_virt_mean_us"] = orPreNs(scanV, pre.scanVirt, 1)
	if appW == 0 {
		media, appW = pre.mediaWrite, pre.appWrite
	}
	m["write_amp"] = float64(media) / float64(appW)
	m["link_bytes_per_app_byte"] = float64(link) / float64(appW+appR)
	m["wall_kops_per_s"] = median(kops)
	m["wall_cpu_us_per_op"] = median(cpuPerOp)
	m["wall_get_p50_us"] = median(getWallP50)
	m["allocs_per_op"] = float64(mallocs) / float64(ops)
	m["live_heap_mb"] = float64(heap) / 1e6
	res.perRound["wall_kops_per_s"] = kops
	res.perRound["wall_cpu_us_per_op"] = cpuPerOp
	res.perRound["wall_get_p50_us"] = getWallP50
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// driver computes spreads with.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n < 2 {
		return median(v), median(v)
	}
	s := slices.Clone(v)
	slices.Sort(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// quantileNs is the nearest-rank quantile of nanosecond samples, as a float
// in nanoseconds; 0 when there are none.
func quantileNs(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	i := min(max(int(math.Ceil(q*float64(len(s))))-1, 0), len(s)-1)
	return float64(s[i])
}

// tailMeanNs is the mean of the slowest share of nanosecond samples (share 1
// is the plain mean). Virtual latencies are sums of a few fixed model costs,
// so their percentiles sit on a handful of exact values and do not move
// until a whole cost class crosses the rank; means move with every sample.
func tailMeanNs(v []int64, share float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := min(max(int(math.Ceil(share*float64(len(s)))), 1), len(s))
	var sum float64
	for _, x := range s[len(s)-n:] {
		sum += float64(x)
	}
	return sum / float64(n)
}

func sumLayer(rs []roundStats, key string) float64 {
	var t float64
	for i := range rs {
		t += rs[i].layer[key]
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
