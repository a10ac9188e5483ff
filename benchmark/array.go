package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"kvcsd/internal/array"
	"kvcsd/internal/device"
	"kvcsd/internal/keyenc"
	"kvcsd/internal/obs"
	"kvcsd/internal/sim"
	"kvcsd/internal/vpic"
)

// array-replicated: a 4-device array driven in-process. Each round runs two
// things side by side. Online procs load a hot set into a fresh
// consensus-replicated keyspace (4 shard groups, R = 3) with quorum puts and
// then issue 70 % read-index gets and 30 % quorum puts on it. Meanwhile one
// proc bulk-ingests a fresh range-sharded fan-out keyspace (R = 2), has the
// fleet scheduler compact it, builds its energy index, scatter-gather scans
// and queries it, and deletes the previous round's.
//
// The replicated keyspace is new every round because a shard group's log is
// never truncated and every append walks it: on one long-lived keyspace each
// round would cost more wall time than the one before, and no median of
// rounds would mean anything.

type arraySession struct {
	c    *config
	rec  *recorder
	loop *simLoop
	arr  *array.Array
	rep  *array.ReplicatedKeyspace
	f    fails

	hotKeys [][]byte
	hotVer  []int // latest committed version per hot key, this round
	prevFan *array.Keyspace

	busy, frames, bytesSent float64 // cumulative, as of the last round
}

func startArray(c *config, rec *recorder) (system, roundStats, error) {
	sz := c.sz
	env := sim.NewEnv()
	opts := array.DefaultOptions()
	opts.Devices, opts.Replicas, opts.Seed = sz.ArrayDevices, 2, deviceSeed
	opts.Device = device.DefaultOptions()
	opts.Device.SSD.ZoneSize = 4 << 20
	opts.Device.SSD.NumZones = 8192
	opts.Trace, opts.Metrics = c.traced, c.traced
	s := &arraySession{c: c, rec: rec, arr: array.New(env, opts)}
	s.loop = newSimLoop(env, func(p *sim.Proc) {
		_ = s.arr.WaitBackgroundIdle(p)
		// Let followers apply what the leaders committed, stop the groups,
		// and let frames already on a link land before the device queues close.
		p.Sleep(10 * time.Millisecond)
		if s.rep != nil {
			s.rep.Cluster().Stop()
		}
		p.Sleep(10 * time.Millisecond)
		s.arr.Shutdown()
	})
	s.hotKeys = make([][]byte, sz.ArrayHotKeys)
	s.hotVer = make([]int, sz.ArrayHotKeys)
	for i := range s.hotKeys {
		s.hotKeys[i] = genKey(deviceSeed, i)
	}
	// Nothing is preloaded: every round builds its own keyspaces.
	return s, roundStats{}, nil
}

// onlineOp is one pre-generated operation of an online proc; every proc works
// on its own slice of the hot set, so the value a get must return is known.
type onlineOp struct {
	put bool
	key int
}

func (s *arraySession) round(r int, m *meter) roundStats {
	sz := s.c.sz
	rng := sim.NewRNG(s.c.seed).Fork(int64(r) + 23)
	per := sz.ArrayHotKeys / sz.ArrayOnlineProcs
	ops := make([][]onlineOp, sz.ArrayOnlineProcs)
	for w := range ops {
		for i := 0; i < sz.ArrayOnline/sz.ArrayOnlineProcs; i++ {
			ops[w] = append(ops[w], onlineOp{put: rng.Float64() < 0.30, key: w + sz.ArrayOnlineProcs*rng.Intn(per)})
		}
	}
	fseed := s.c.seed + int64(r)<<16 + 1
	fanPairs := jitter(s.c.seed, r+1, sz.ArrayFanPairs)
	fanKeys := make([][]byte, fanPairs)
	fanVals := make([][]byte, fanPairs)
	above := 0
	threshold := vpic.EnergyThreshold(vpicSelectivities[1])
	for i := range fanKeys {
		fanKeys[i] = genKey(fseed, i)
		fanVals[i] = genValue(fseed, i, 0, sz.ArrayValue)
		if genEnergy(fseed, i) >= threshold {
			above++
		}
	}
	sorted := sortedIndex(fseed, fanPairs)
	scans := make([]int, sz.ArrayFanScans)
	for i := range scans {
		scans[i] = rng.Intn(fanPairs - sz.ArrayScanLen)
	}

	var rs roundStats
	s.loop.do(func(p *sim.Proc) {
		m.start()
		rs = s.runRound(p, r, ops, fanKeys, fanVals, sorted, scans, above)
		m.stop()
	})
	rs.failed = s.f.drain()
	return rs
}

func (s *arraySession) runRound(p *sim.Proc, r int, ops [][]onlineOp, fanKeys, fanVals [][]byte, sorted, scans []int, above int) roundStats {
	sz, rec := s.c.sz, s.rec
	rs := roundStats{layer: map[string]float64{}}
	v0, io0 := p.Now(), s.arr.Stats()
	round := rec.begin("round", "benchmark", 0)

	old := s.rep
	rep, err := s.arr.CreateReplicated(p, fmt.Sprintf("online%d", r), sz.ArrayShards)
	if err != nil {
		panic(fmt.Sprintf("array-replicated: create replicated keyspace: %v", err))
	}
	s.rep, s.frames, s.bytesSent = rep, 0, 0
	if old != nil {
		old.Cluster().Stop()
	}

	// Online traffic, running for the whole round beside the bulk pipeline:
	// each proc loads its slice of the hot set, then works through its ops.
	type lat struct{ get, put, wall []int64 }
	lats := make([]lat, len(ops))
	reads := make([]int64, len(ops))
	writes := make([]int64, len(ops))
	online := make([]*sim.Proc, len(ops))
	query := rec.begin("query", "replica", round)
	for w := range ops {
		online[w] = p.Env().Go("online", func(q *sim.Proc) {
			val := make([]byte, sz.ArrayValue)
			put := func(key, ver int) {
				t0 := q.Now()
				fillValue(val, s.c.seed, key, ver)
				if err := s.rep.Put(q, s.hotKeys[key], val); err != nil {
					s.f.addf("quorum put %d: %v", key, err)
					return
				}
				s.hotVer[key] = ver
				lats[w].put = append(lats[w].put, int64(q.Now()-t0))
				writes[w] += int64(keyBytes + len(val))
			}
			for key := w; key < len(s.hotKeys); key += len(ops) {
				put(key, r<<20)
			}
			for _, op := range ops[w] {
				if op.put {
					put(op.key, s.hotVer[op.key]+1)
					continue
				}
				t0 := q.Now()
				sp := 0
				if rec.sample() {
					sp = rec.begin("get", "replica", query)
				}
				w0 := time.Now()
				v, ok, err := s.rep.Get(q, s.hotKeys[op.key])
				lats[w].wall = append(lats[w].wall, int64(time.Since(w0)))
				lats[w].get = append(lats[w].get, int64(q.Now()-t0))
				rec.end(sp)
				fillValue(val, s.c.seed, op.key, s.hotVer[op.key])
				if err != nil || !ok || !bytes.Equal(v, val) {
					s.f.addf("read-index get %d: ok=%v err=%v", op.key, ok, err)
				}
				reads[w] += int64(len(v))
			}
		})
	}

	// Bulk pipeline on a fresh fan-out keyspace.
	ingest := rec.begin("ingest", "array", round)
	fan, err := s.arr.CreateRangeSharded(p, fmt.Sprintf("fan%d", r), sz.ArrayShards)
	if err != nil {
		panic(fmt.Sprintf("array-replicated: create keyspace: %v", err))
	}
	for i := range fanKeys {
		if err := fan.BulkPut(p, fanKeys[i], fanVals[i]); err != nil {
			s.f.addf("fan-out bulk put: %v", err)
			break
		}
	}
	if err := fan.Flush(p); err != nil {
		s.f.addf("fan-out flush: %v", err)
	}
	rs.ingestVirt = time.Duration(p.Now() - v0)
	rec.end(ingest)

	wait := rec.begin("compact_wait", "array", round)
	c0, w0 := p.Now(), time.Now()
	if err := fan.Compact(p); err != nil {
		s.f.addf("fleet compact: %v", err)
	}
	compactVirt := p.Now() - c0
	spec := energyIndex
	spec.Offset = energyOff
	if err := fan.BuildSecondaryIndex(p, spec); err != nil {
		s.f.addf("fan-out build index: %v", err)
	}
	if err := fan.WaitIndexBuilt(p, spec.Name); err != nil {
		s.f.addf("fan-out wait index: %v", err)
	}
	rs.queryableVirt = time.Duration(p.Now() - c0)
	rs.layer["compact_virt_ns"] = float64(compactVirt)
	rs.layer["sidx_build_virt_ns"] = float64(rs.queryableVirt) - float64(compactVirt)
	rs.layer["compact_wall_ns"] = float64(time.Since(w0))
	if s.c.traced {
		rs.layer["stagger_virt_ns"] = float64(compactVirt) - s.longestShardCompaction(p, fan)
	}
	rec.end(wait)

	scan := rec.begin("scan", "array", round)
	var fanRead int64
	var fanout float64
	for _, at := range scans {
		want := sorted[at : at+sz.ArrayScanLen]
		lo, hi := fanKeys[want[0]], fanKeys[sorted[at+sz.ArrayScanLen]]
		fanout += float64(shardOf(hi, sz.ArrayShards) - shardOf(lo, sz.ArrayShards) + 1)
		t0 := p.Now()
		got, err := fan.Scan(p, lo, hi, 0)
		rs.scanVirt = append(rs.scanVirt, int64(p.Now()-t0))
		if err != nil || len(got) != len(want) {
			s.f.addf("scatter scan fan%d@%d: %d pairs, err=%v", r, at, len(got), err)
			continue
		}
		for k, i := range want {
			if !bytes.Equal(got[k].Key, fanKeys[i]) || !bytes.Equal(got[k].Value, fanVals[i]) {
				s.f.addf("scatter scan fan%d@%d: pair %d is wrong or out of order", r, at, k)
				break
			}
			fanRead += int64(keyBytes + len(fanVals[i]))
		}
	}
	t0 := p.Now()
	got, err := fan.QuerySecondaryRange(p, spec.Name, keyenc.PutFloat32(vpic.EnergyThreshold(vpicSelectivities[1])), nil, 0)
	rs.sidxVirt = time.Duration(p.Now() - t0)
	if err != nil || len(got) != above {
		s.f.addf("fan-out energy query fan%d: %d matches, want %d, err=%v", r, len(got), above, err)
	}
	fanRead += int64(len(got) * (keyBytes + sz.ArrayValue))
	rec.end(scan)

	if s.prevFan != nil {
		if err := s.arr.DeleteKeyspace(p, s.prevFan.Name()); err != nil {
			s.f.addf("delete %s: %v", s.prevFan.Name(), err)
		}
	}
	s.prevFan = fan
	p.Join(online...)
	rec.end(query)
	rec.end(round)

	var gets, puts int
	for w := range lats {
		rs.getVirt = append(rs.getVirt, lats[w].get...)
		rs.putVirt = append(rs.putVirt, lats[w].put...)
		rs.getWall = append(rs.getWall, lats[w].wall...)
		rs.appRead += reads[w]
		rs.appWrite += writes[w]
		gets += len(lats[w].get)
		puts += len(lats[w].put)
	}
	fanBytes := int64(len(fanKeys) * (keyBytes + sz.ArrayValue))
	rs.appRead += fanRead
	rs.appWrite += fanBytes
	d := s.arr.Stats().Delta(io0)
	rs.virt = time.Duration(p.Now() - v0)
	rs.ops = int64(len(s.hotKeys) + sz.ArrayOnline/sz.ArrayOnlineProcs*sz.ArrayOnlineProcs + len(fanKeys) + len(scans) + 1)
	rs.attempted = rs.ops
	rs.mediaWrite = d.MediaWrite.Value()
	rs.linkBytes = d.HostToDevice.Value() + d.DeviceToHost.Value()

	cl := s.rep.Cluster()
	frames, sent := float64(cl.FramesSent()), float64(cl.BytesSent())
	busy := serviceBusy(s.arr.Registry())
	l := rs.layer
	l["frames"], l["bytes_sent"], l["service_busy"] = frames-s.frames, sent-s.bytesSent, busy-s.busy
	s.frames, s.bytesSent, s.busy = frames, sent, busy
	l["puts"], l["gets"] = float64(puts), float64(gets)
	l["pairs"], l["fan_bytes"], l["fanout"] = float64(len(fanKeys)), float64(fanBytes), fanout
	l["ingest_virt_ns"] = float64(rs.ingestVirt)
	l["app_read"] = float64(rs.appRead)
	l["d2h"], l["h2d"] = float64(d.DeviceToHost.Value()), float64(d.HostToDevice.Value())
	l["commands"] = float64(d.Commands.Value())
	l["bulk_cmds"] = float64(d.BulkPuts.Value())
	return rs
}

// shardOf is the range shard a key routes to: the array splits the
// big-endian 8-byte key prefix evenly.
func shardOf(key []byte, shards int) int {
	var pre uint64
	for _, b := range key[:8] {
		pre = pre<<8 | uint64(b)
	}
	return int(pre / (math.MaxUint64/uint64(shards) + 1))
}

// longestShardCompaction asks every device for the compaction duration of
// the shards it holds and returns the longest: what Compact would have taken
// had the fleet scheduler admitted every device at once.
func (s *arraySession) longestShardCompaction(p *sim.Proc, fan *array.Keyspace) float64 {
	var longest float64
	for pi := 0; pi < fan.Partitions(); pi++ {
		for _, dev := range fan.Replicas(pi) {
			ks, err := s.arr.Member(dev).Client.OpenKeyspace(p, fan.ShardName(pi))
			if err != nil {
				continue
			}
			if info, err := ks.Info(p); err == nil {
				longest = max(longest, float64(info.CompactDur))
			}
		}
	}
	return longest
}

func (s *arraySession) final() (attempted, failed int64) {
	// Every hot key must read back at its last committed version.
	s.loop.do(func(p *sim.Proc) {
		val := make([]byte, s.c.sz.ArrayValue)
		for i, k := range s.hotKeys {
			v, ok, err := s.rep.Get(p, k)
			fillValue(val, s.c.seed, i, s.hotVer[i])
			if err != nil || !ok || !bytes.Equal(v, val) {
				s.f.addf("final read-index get %d: ok=%v err=%v", i, ok, err)
			}
		}
	})
	return int64(len(s.hotKeys)), s.f.drain()
}

func (s *arraySession) layers(timed []roundStats, pre roundStats) map[string]float64 {
	reg := s.arr.Registry()
	n := float64(len(timed))
	var virt float64
	var getVirt []int64
	for i := range timed {
		virt += float64(timed[i].virt)
		getVirt = append(getVirt, timed[i].getVirt...)
	}
	cores := float64(device.DefaultOptions().SoC.Cores * s.c.sz.ArrayDevices)
	out := deviceStageLayers(reg)
	for name, v := range map[string]float64{
		"pcie.h2d_bytes_per_pair":           ratio(sumLayer(timed, "h2d"), sumLayer(timed, "pairs")+sumLayer(timed, "puts")),
		"pcie.d2h_bytes_per_result_byte":    ratio(sumLayer(timed, "d2h"), sumLayer(timed, "app_read")),
		"core.compact_virt_s":               sumLayer(timed, "compact_virt_ns") / n / 1e9,
		"core.sidx_build_virt_s":            sumLayer(timed, "sidx_build_virt_ns") / n / 1e9,
		"core.compact_wall_s":               sumLayer(timed, "compact_wall_ns") / n / 1e9,
		"device.soc_util":                   ratio(sumLayer(timed, "service_busy"), virt*cores),
		"client.pairs_per_bulk_cmd":         ratio(2*sumLayer(timed, "pairs"), sumLayer(timed, "bulk_cmds")),
		"array.scan_fanout_mean":            ratio(sumLayer(timed, "fanout"), n*float64(s.c.sz.ArrayFanScans)),
		"array.put_fanout_virt_us_per_pair": ratio(sumLayer(timed, "ingest_virt_ns"), sumLayer(timed, "pairs")) / 1e3,
		"array.compact_stagger_virt_s":      sumLayer(timed, "stagger_virt_ns") / n / 1e9,
		"replica.frames_per_put":            ratio(sumLayer(timed, "frames"), sumLayer(timed, "puts")),
		"replica.bytes_per_put":             ratio(sumLayer(timed, "bytes_sent"), sumLayer(timed, "puts")),
		"replica.elections":                 float64(s.rep.Cluster().Elections()),
		"replica.readindex_get_virt_p50_us": quantileNs(getVirt, 0.5) / 1e3,
	} {
		out[name] = v
	}
	return out
}

func (s *arraySession) traceSources() (*obs.Tracer, map[uint64]bool) { return s.arr.Tracer(), nil }

func (s *arraySession) close() { s.loop.stop() }
