package main

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"time"

	"kvcsd/internal/device"
	"kvcsd/internal/keyenc"
	"kvcsd/internal/obs"
	"kvcsd/internal/remote"
	"kvcsd/internal/server"
	"kvcsd/internal/sim"
	"kvcsd/internal/vpic"
	"kvcsd/internal/wire"
)

// The two remote workloads share one rig: an in-process server.NewDevice on
// loopback, a remote client with two connections, and a preloaded, compacted
// "base" keyspace whose index is eight times the device's index cache.
//
//   - remote-get: two closed-loop callers issue zipfian point gets; nothing
//     batches and nothing compacts, so only the per-request path shows.
//   - remote-mixed: sixteen closed-loop callers put into a writable keyspace
//     and get and scan the base keyspace while the previous round's writable
//     keyspace compacts in the device.

const (
	baseSeedSalt = 0x6b76 // keeps the base keyspace's items apart from the writable keyspaces'
	pidxEntry    = keyBytes + 14
)

type remoteRig struct {
	c     *config
	rec   *recorder
	mixed bool
	srv   *server.Server
	cli   *remote.Client
	base  *remote.Keyspace
	// tcli/tbase carry the sampled calls of a traced run, so only they get
	// wall spans and wire trace context.
	tcli  *remote.Client
	tbase *remote.Keyspace
	wt    *obs.WallTracer
	f     fails

	n      int
	keys   [][]byte
	sorted []int
	snap   opSamples // server histograms as of the end of the last round
	report *wire.StatsReport

	// remote-mixed state.
	cur, prev   *remote.Keyspace
	curR, prevR int
	curPuts     int
	prevPuts    int
	warmGetP99  float64

	busy float64 // cumulative service-stage time as of the last round (traced runs)
}

// opSamples is the sorted virtual-latency samples of the ops the metrics are
// built from, as of one server metrics snapshot.
type opSamples struct {
	put, bulk, get, scan, sidx []int64
	met                        server.MetricsSnapshot
}

func (g *remoteRig) snapshot() opSamples {
	met := g.srv.Metrics()
	pick := func(op wire.Op) []int64 {
		if st, ok := met.PerOp[op]; ok {
			return sortedNs(st.VirtHist.Samples())
		}
		return nil
	}
	return opSamples{put: pick(wire.OpPut), bulk: pick(wire.OpBulkPut), get: pick(wire.OpGet), scan: pick(wire.OpScan), sidx: pick(wire.OpSecondaryRange), met: met}
}

func (g *remoteRig) stats() *wire.StatsReport {
	rep, err := g.cli.Stats()
	if err != nil {
		panic(fmt.Sprintf("remote: stats: %v", err))
	}
	return rep
}

func startRemoteGet(c *config, rec *recorder) (system, roundStats, error) {
	return startRemote(c, rec, false)
}

func startRemoteMixed(c *config, rec *recorder) (system, roundStats, error) {
	return startRemote(c, rec, true)
}

func startRemote(c *config, rec *recorder, mixed bool) (system, roundStats, error) {
	sz := c.sz
	g := &remoteRig{c: c, rec: rec, mixed: mixed, n: jitter(c.seed, 0, sz.RemotePreload)}
	dopts := device.DefaultOptions()
	dopts.SSD.ZoneSize = 4 << 20
	dopts.SSD.NumZones = 8192
	dopts.Seed = deviceSeed
	dopts.Engine.SortBudgetBytes = sz.RemoteSortBudget
	dopts.Engine.IndexCacheBytes = int64(max(g.n*pidxEntry/8, 16<<10))
	dopts.Trace, dopts.Metrics = c.traced, c.traced
	g.srv = server.NewDevice(dopts, server.DefaultConfig())
	addr, err := g.srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, roundStats{}, err
	}
	// One attempt, no timeout: a shed, refused or failed request is a failed
	// operation, not something to retry into a success.
	ropts := remote.Options{Conns: 2, Pipeline: 64}
	if g.cli, err = remote.Dial(addr.String(), ropts); err != nil {
		g.srv.Close()
		return nil, roundStats{}, err
	}
	if c.traced {
		g.wt = obs.NewWallTracer(uint64(c.seed))
		ropts.Conns, ropts.Tracer = 1, g.wt
		if g.tcli, err = remote.Dial(addr.String(), ropts); err != nil {
			g.close()
			return nil, roundStats{}, err
		}
	}
	pre, err := g.preload()
	if err != nil {
		g.close()
		return nil, roundStats{}, err
	}
	return g, pre, nil
}

// preload fills and compacts the base keyspace and checks it. It also
// measures, once, the phases the timed rounds of these workloads do not have
// (bulk ingest, time to queryable, scans, an energy query), so
// every workload reports every end-to-end metric.
func (g *remoteRig) preload() (roundStats, error) {
	sz, seed := g.c.sz, g.c.seed^baseSeedSalt
	pre := roundStats{layer: map[string]float64{}}
	ks, err := g.cli.CreateKeyspace("base")
	if err != nil {
		return pre, err
	}
	g.base = ks
	g.keys = make([][]byte, g.n)
	above := 0
	threshold := vpic.EnergyThreshold(vpicSelectivities[1])
	for i := range g.keys {
		g.keys[i] = genKey(seed, i)
		if genEnergy(seed, i) >= threshold {
			above++
		}
	}
	g.sorted = sortedIndex(seed, g.n)

	rep0 := g.stats()
	for i := 0; i < g.n; i++ {
		if err := ks.BulkPut(g.keys[i], genValue(seed, i, 0, sz.RemoteValue)); err != nil {
			return pre, fmt.Errorf("preload bulk put: %w", err)
		}
	}
	if err := ks.Flush(); err != nil {
		return pre, fmt.Errorf("preload flush: %w", err)
	}
	rep1 := g.stats()
	pre.ingestVirt = time.Duration(rep1.VirtualNanos - rep0.VirtualNanos)
	pre.layer["ingest_h2d"] = float64(rep1.HostToDevice - rep0.HostToDevice)
	pre.layer["pairs"] = float64(g.n)
	w0 := time.Now()
	if err := ks.Compact(); err != nil {
		return pre, fmt.Errorf("preload compact: %w", err)
	}
	spec := energyIndex
	spec.Offset = energyOff
	if err := ks.BuildSecondaryIndex(spec); err != nil {
		return pre, fmt.Errorf("preload build index: %w", err)
	}
	if err := ks.WaitCompacted(); err != nil {
		return pre, fmt.Errorf("preload wait compacted: %w", err)
	}
	if err := ks.WaitIndexBuilt(spec.Name); err != nil {
		return pre, fmt.Errorf("preload wait index: %w", err)
	}
	rep2 := g.stats()
	pre.queryableVirt = time.Duration(rep2.VirtualNanos - rep1.VirtualNanos)
	pre.layer["compact_wall_ns"] = float64(time.Since(w0))
	info, err := ks.Info()
	if err != nil {
		return pre, fmt.Errorf("preload info: %w", err)
	}
	pre.layer["compact_virt_ns"] = float64(info.CompactDur)
	pre.layer["sidx_build_virt_ns"] = float64(pre.queryableVirt) - float64(info.CompactDur)
	if pr, _, err := ks.CompactionProgress(); err == nil {
		pre.layer["bytes_moved"] = float64(pr.BytesMoved)
		pre.layer["host_runs"] = float64(pr.HostRuns)
		pre.layer["device_runs"] = float64(pr.DeviceRuns)
	}
	pre.appWrite = int64(g.n) * int64(keyBytes+sz.RemoteValue)
	pre.mediaWrite = rep2.MediaWrite - rep0.MediaWrite
	pre.attempted = int64(g.n)

	// Checks: scans in key order with the right pairs, and the 1 % energy
	// query's match count.
	rng := sim.NewRNG(g.c.seed).Fork(3)
	val := make([]byte, sz.RemoteValue)
	for i := 0; i < sz.RemoteCheckScans; i++ {
		g.checkScan(ks, rng.Intn(g.n-sz.RemoteScan+1), val)
	}
	got, err := ks.QuerySecondaryRange(spec.Name, keyenc.PutFloat32(threshold), nil, 0)
	if err != nil || len(got) != above {
		g.f.addf("preload energy query: %d matches, want %d, err=%v", len(got), above, err)
	}
	pre.attempted += int64(sz.RemoteCheckScans) + 1

	g.snap = g.snapshot()
	pre.putVirt, pre.scanVirt = g.snap.bulk, g.snap.scan
	if len(g.snap.sidx) > 0 {
		pre.sidxVirt = time.Duration(g.snap.sidx[len(g.snap.sidx)-1])
	}
	pre.failed = g.f.drain()

	if g.tcli != nil {
		if g.tbase, err = g.tcli.OpenKeyspace("base"); err != nil {
			return pre, err
		}
	}
	if g.mixed {
		if g.cur, err = g.cli.CreateKeyspace("w0"); err != nil {
			return pre, err
		}
	}
	g.report = g.stats()
	return pre, nil
}

// checkScan scans RemoteScan keys from sorted position at and checks count,
// order and contents; val is scratch for regenerating values.
func (g *remoteRig) checkScan(ks *remote.Keyspace, at int, val []byte) (bytesRead int64) {
	want := g.sorted[at : at+g.c.sz.RemoteScan]
	got, err := ks.Scan(g.keys[want[0]], nil, len(want))
	if err != nil || len(got) != len(want) {
		g.f.addf("scan base@%d: %d pairs, err=%v", at, len(got), err)
		return 0
	}
	for k, i := range want {
		fillValue(val, g.c.seed^baseSeedSalt, i, 0)
		if !bytes.Equal(got[k].Key, g.keys[i]) || !bytes.Equal(got[k].Value, val) {
			g.f.addf("scan base@%d: pair %d is wrong or out of order", at, k)
			return 0
		}
		bytesRead += int64(len(got[k].Key) + len(got[k].Value))
	}
	return bytesRead
}

// get issues one checked point get on the base keyspace and returns its wall
// latency and the bytes read.
func (g *remoteRig) get(i int, val []byte, parent int) (wall time.Duration, n int64) {
	ks, sp := g.base, 0
	if g.rec.sample() {
		ks, sp = g.tbase, g.rec.begin("get", "remote", parent)
	}
	t0 := time.Now()
	v, ok, err := ks.Get(g.keys[i])
	wall = time.Since(t0)
	g.rec.end(sp)
	fillValue(val, g.c.seed^baseSeedSalt, i, 0)
	if err != nil || !ok || !bytes.Equal(v, val) {
		g.f.addf("get base/%d: ok=%v err=%v", i, ok, err)
	}
	return wall, int64(len(v))
}

// mixedOp is one pre-generated operation of a remote-mixed slice.
type mixedOp struct {
	kind uint8 // 0 put, 1 get, 2 scan
	arg  int   // put: index in the writable keyspace; get: item; scan: sorted position
}

func (g *remoteRig) round(r int, m *meter) roundStats {
	sz := g.c.sz
	rng := sim.NewRNG(g.c.seed).Fork(int64(r) + 11)
	z := newZipf(rng, g.n, 0.99)
	var ops []mixedOp
	callers := sz.GetCallers
	if g.mixed {
		callers = sz.MixedCallers
		puts := 0
		for i := 0; i < sz.MixedOpsPerSlice; i++ {
			switch u := rng.Float64(); {
			case u < 0.50:
				ops = append(ops, mixedOp{0, puts})
				puts++
			case u < 0.95:
				ops = append(ops, mixedOp{1, z.next()})
			default:
				ops = append(ops, mixedOp{2, rng.Intn(g.n - sz.RemoteScan + 1)})
			}
		}
		g.curR, g.curPuts = r, puts
	} else {
		for i := 0; i < sz.GetOpsPerSlice; i++ {
			ops = append(ops, mixedOp{1, z.next()})
		}
	}
	rs := roundStats{layer: map[string]float64{}, ops: int64(len(ops)), attempted: int64(len(ops))}
	wseed := g.c.seed + int64(r)<<16

	walls := make([][]int64, callers)
	reads := make([]int64, callers)
	writes := make([]int64, callers)
	m.start()
	round := g.rec.begin("round", "benchmark", 0)
	query := g.rec.begin("query", "remote", round)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			val := make([]byte, sz.RemoteValue)
			key := make([]byte, keyBytes)
			lat := make([]int64, 0, len(ops)/callers+1)
			for i := c; i < len(ops); i += callers {
				switch op := ops[i]; op.kind {
				case 0:
					fillKey(key, wseed, op.arg)
					fillValue(val, wseed, op.arg, 0)
					if err := g.cur.Put(key, val); err != nil {
						g.f.addf("put %s/%d: %v", g.cur.Name(), op.arg, err)
					}
					writes[c] += int64(len(key) + len(val))
				case 1:
					w, n := g.get(op.arg, val, query)
					lat = append(lat, int64(w))
					reads[c] += n
				case 2:
					reads[c] += g.checkScan(g.base, op.arg, val)
				}
			}
			walls[c] = lat
		}()
	}
	wg.Wait()
	g.rec.end(query)
	if g.mixed {
		g.boundary(&rs, round)
	}
	g.rec.end(round)
	m.stop()

	for c := range walls {
		rs.getWall = append(rs.getWall, walls[c]...)
		rs.appRead += reads[c]
		rs.appWrite += writes[c]
	}
	rep, snap := g.stats(), g.snapshot()
	rs.virt = time.Duration(rep.VirtualNanos - g.report.VirtualNanos)
	rs.mediaWrite = rep.MediaWrite - g.report.MediaWrite
	rs.linkBytes = rep.HostToDevice - g.report.HostToDevice + rep.DeviceToHost - g.report.DeviceToHost
	rs.getVirt = diffSorted(snap.get, g.snap.get)
	rs.putVirt = diffSorted(snap.put, g.snap.put)
	rs.scanVirt = diffSorted(snap.scan, g.snap.scan)
	g.rpcLayers(&rs, snap, rep)
	g.report, g.snap = rep, snap
	if r == 0 {
		g.warmGetP99 = quantileNs(rs.getVirt, 0.99)
	}
	rs.failed = g.f.drain()
	return rs
}

// boundary ends a remote-mixed slice: the keyspace that has been compacting
// beside this slice's traffic is checked and deleted, the one just written is
// handed to the device to compact (no waiting), and a fresh one is opened.
func (g *remoteRig) boundary(rs *roundStats, parent int) {
	sp := g.rec.begin("compact_wait", "core", parent)
	if g.prev != nil {
		g.settle(g.prev, g.prevR, g.prevPuts, rs)
	}
	g.rec.end(sp)
	if err := g.cur.Compact(); err != nil {
		g.f.addf("compact %s: %v", g.cur.Name(), err)
	}
	next, err := g.cli.CreateKeyspace(fmt.Sprintf("w%d", g.curR+1))
	if err != nil {
		panic(fmt.Sprintf("remote-mixed: create keyspace: %v", err))
	}
	g.prev, g.prevR, g.prevPuts = g.cur, g.curR, g.curPuts
	g.cur = next
}

// settle waits for a writable keyspace's compaction (normally long done),
// reads back a sample of what the slice put into it, and deletes it.
func (g *remoteRig) settle(ks *remote.Keyspace, r, puts int, rs *roundStats) {
	if err := ks.WaitCompacted(); err != nil {
		g.f.addf("wait compacted %s: %v", ks.Name(), err)
		return
	}
	if info, err := ks.Info(); err == nil {
		rs.queryableVirt = time.Duration(info.CompactDur)
		rs.layer["zone_resets"] = float64(info.ZoneCount)
	}
	if pr, _, err := ks.CompactionProgress(); err == nil {
		rs.layer["bytes_moved"] = float64(pr.BytesMoved)
		rs.layer["host_runs"] = float64(pr.HostRuns)
		rs.layer["device_runs"] = float64(pr.DeviceRuns)
		rs.layer["compacted_app_bytes"] = float64(puts * (keyBytes + g.c.sz.RemoteValue))
	}
	wseed := g.c.seed + int64(r)<<16
	key, val := make([]byte, keyBytes), make([]byte, g.c.sz.RemoteValue)
	const sample = 64
	for k := 0; k < sample && puts > 0; k++ {
		j := k * puts / sample
		fillKey(key, wseed, j)
		fillValue(val, wseed, j, 0)
		v, ok, err := ks.Get(key)
		if err != nil || !ok || !bytes.Equal(v, val) {
			g.f.addf("get %s/%d after compaction: ok=%v err=%v", ks.Name(), j, ok, err)
		}
	}
	rs.attempted += sample
	if err := g.cli.DeleteKeyspace(ks.Name()); err != nil {
		g.f.addf("delete %s: %v", ks.Name(), err)
	}
}

// rpcLayers records the round's share of the server's per-op stage sums and
// the device counters only a traced run exposes.
func (g *remoteRig) rpcLayers(rs *roundStats, snap opSamples, rep *wire.StatsReport) {
	var count, decode, queue, service, virtual, write float64
	for op, st := range snap.met.PerOp {
		old := g.snap.met.PerOp[op]
		count += float64(st.Count - old.Count)
		decode += float64(st.Decode - old.Decode)
		queue += float64(st.Queue - old.Queue)
		service += float64(st.Service - old.Service)
		virtual += float64(st.Virtual - old.Virtual)
		write += float64(st.Write - old.Write)
	}
	l := rs.layer
	l["rpc_count"], l["rpc_decode"], l["rpc_queue"] = count, decode, queue
	l["rpc_service"], l["rpc_virtual"], l["rpc_write"] = service, virtual, write
	get, oldGet := snap.met.PerOp[wire.OpGet], g.snap.met.PerOp[wire.OpGet]
	l["gets"] = float64(get.Count - oldGet.Count)
	// Decode is left out: the server times it from the moment it starts
	// waiting for the frame, so in a closed loop it holds the caller's own
	// think time.
	l["get_server_ns"] = float64(get.Queue - oldGet.Queue + get.Service - oldGet.Service + get.Write - oldGet.Write)
	l["shed"] = float64(snap.met.Shed - g.snap.met.Shed)
	l["accepted"] = float64(snap.met.Accepted - g.snap.met.Accepted)
	l["coalesced"] = float64(snap.met.Coalesced - g.snap.met.Coalesced)
	l["batches"] = float64(snap.met.Batches - g.snap.met.Batches)
	l["commands"] = float64(rep.Commands - g.report.Commands)
	l["media_read"] = float64(rep.MediaRead - g.report.MediaRead)
	l["d2h"] = float64(rep.DeviceToHost - g.report.DeviceToHost)
	l["app_read"] = float64(rs.appRead)
	busy := serviceBusy(g.srv.Backend().Registry())
	l["service_busy"] = busy - g.busy
	g.busy = busy
}

// final settles the last compaction of remote-mixed.
func (g *remoteRig) final() (attempted, failed int64) {
	if g.mixed && g.prev != nil {
		rs := roundStats{layer: map[string]float64{}}
		g.settle(g.prev, g.prevR, g.prevPuts, &rs)
		attempted = rs.attempted
	}
	return attempted, g.f.drain()
}

func (g *remoteRig) layers(timed []roundStats, pre roundStats) map[string]float64 {
	reg := g.srv.Backend().Registry()
	n := float64(len(timed))
	var pings []int64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if err := g.cli.Ping(); err != nil {
			g.f.addf("ping: %v", err)
		}
		pings = append(pings, int64(time.Since(t0)))
	}
	var getWall, getVirt []int64
	var virt float64
	for i := range timed {
		getWall = append(getWall, timed[i].getWall...)
		getVirt = append(getVirt, timed[i].getVirt...)
		virt += float64(timed[i].virt)
	}
	count := sumLayer(timed, "rpc_count")
	var pairsPerBulk float64
	if reg != nil { // the device's full counter block is only reachable through its registry
		io := reg.IOStats()
		pairsPerBulk = ratio(float64(io.AppWrite.Value())/float64(keyBytes+g.c.sz.RemoteValue), float64(io.BulkPuts.Value()))
	}
	out := deviceStageLayers(reg)
	for name, v := range map[string]float64{
		"ssd.media_read_bytes_per_get":        ratio(sumLayer(timed, "media_read"), sumLayer(timed, "gets")),
		"ssd.zone_resets_per_round":           sumLayer(timed, "zone_resets") / n,
		"pcie.h2d_bytes_per_pair":             ratio(pre.layer["ingest_h2d"], pre.layer["pairs"]),
		"pcie.d2h_bytes_per_result_byte":      ratio(sumLayer(timed, "d2h"), sumLayer(timed, "app_read")),
		"core.compact_virt_s":                 pre.layer["compact_virt_ns"] / 1e9,
		"core.sidx_build_virt_s":              pre.layer["sidx_build_virt_ns"] / 1e9,
		"core.compact_wall_s":                 pre.layer["compact_wall_ns"] / 1e9,
		"compaction.bytes_moved_per_app_byte": ratio(pre.layer["bytes_moved"], float64(pre.appWrite)),
		"compaction.host_runs":                pre.layer["host_runs"],
		"compaction.device_runs":              pre.layer["device_runs"],
		"device.soc_util":                     ratio(sumLayer(timed, "service_busy"), virt*float64(device.DefaultOptions().SoC.Cores)),
		"client.pairs_per_bulk_cmd":           pairsPerBulk,
		"wire.server_decode_us_per_op":        ratio(sumLayer(timed, "rpc_decode"), count) / 1e3,
		"wire.server_write_us_per_op":         ratio(sumLayer(timed, "rpc_write"), count) / 1e3,
		"session.shed_ratio":                  ratio(sumLayer(timed, "shed"), sumLayer(timed, "accepted")),
		"server.queue_us_per_op":              ratio(sumLayer(timed, "rpc_queue"), count) / 1e3,
		"server.service_wall_us_per_op":       ratio(sumLayer(timed, "rpc_service"), count) / 1e3,
		"server.service_virt_us_per_op":       ratio(sumLayer(timed, "rpc_virtual"), count) / 1e3,
		"server.coalesced_puts_per_batch":     ratio(sumLayer(timed, "coalesced"), sumLayer(timed, "batches")),
		"remote.ping_rtt_us":                  quantileNs(pings, 0.5) / 1e3,
		"remote.client_overhead_us_per_get":   quantileNs(getWall, 0.5)/1e3 - ratio(sumLayer(timed, "get_server_ns"), sumLayer(timed, "gets"))/1e3,
		"remote.get_wall_p99_us":              quantileNs(getWall, 0.99) / 1e3,
	} {
		out[name] = v
	}
	if !g.mixed {
		// Only with gets as the sole media readers does bytes-per-get say how
		// often the index block had to be read too.
		out["core.idxcache_hit_ratio"] = idxCacheHitRatio(out["ssd.media_read_bytes_per_get"])
	} else {
		out["compaction.bytes_moved_per_app_byte"] = ratio(sumLayer(timed, "bytes_moved"), sumLayer(timed, "compacted_app_bytes"))
		out["compaction.host_runs"] = sumLayer(timed, "host_runs") / n
		out["compaction.device_runs"] = sumLayer(timed, "device_runs") / n
		out["compaction.fg_get_p99_ratio"] = ratio(quantileNs(getVirt, 0.99), g.warmGetP99)
		var dur []float64
		for i := range timed {
			dur = append(dur, timed[i].queryableVirt.Seconds())
		}
		out["core.compact_virt_s"] = mean(dur)
	}
	return out
}

func (g *remoteRig) traceSources() (*obs.Tracer, map[uint64]bool) {
	ids := map[uint64]bool{}
	for _, sp := range g.wt.Finished() {
		ids[sp.TraceID()] = true
	}
	return g.srv.Backend().Tracer(), ids
}

func (g *remoteRig) close() {
	if g.tcli != nil {
		g.tcli.Close()
	}
	if g.cli != nil {
		g.cli.Close()
	}
	g.srv.Close()
}

// sortedNs returns a sorted copy.
func sortedNs(v []time.Duration) []int64 {
	out := make([]int64, len(v))
	for i, d := range v {
		out[i] = int64(d)
	}
	slices.Sort(out)
	return out
}

// diffSorted returns the multiset difference after − before of two sorted
// sample sets: the samples recorded between two histogram snapshots,
// whatever order the histogram keeps them in.
func diffSorted(after, before []int64) []int64 {
	out := make([]int64, 0, len(after)-len(before))
	j := 0
	for _, v := range after {
		if j < len(before) && before[j] == v {
			j++
			continue
		}
		out = append(out, v)
	}
	return out
}
