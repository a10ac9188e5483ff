package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"time"

	"kvcsd/internal/bench"
	"kvcsd/internal/client"
	"kvcsd/internal/device"
	"kvcsd/internal/host"
	"kvcsd/internal/keyenc"
	"kvcsd/internal/obs"
	"kvcsd/internal/sim"
	"kvcsd/internal/stats"
	"kvcsd/internal/vpic"
)

// vpic-timesteps: each round is one VPIC timestep on one device through the
// in-process client (paper Figs 9/11/12): loaders bulk-ingest one file each
// into fresh keyspaces, the device compacts and builds the energy index,
// then point gets, range scans and energy queries run against the result and
// the previous timestep is deleted.

var vpicSelectivities = [3]float64{0.001, 0.01, 0.05}

var energyIndex = client.IndexSpec{Name: "energy", Offset: vpic.EnergyOffset, Length: 4, Type: keyenc.TypeFloat32}

type vpicSession struct {
	c    *config
	rec  *recorder
	loop *simLoop
	st   *stats.IOStats
	dev  *device.Device
	cl   *client.Client
	f    fails

	prev []*client.Keyspace // previous timestep, deleted at the end of a round
	last *vpicInputs        // last timestep, re-read after the power cycle

	busy0 float64 // service-stage busy time at the start of round 1 (traced)
}

// vpicInputs is one round's generated input and ground truth.
type vpicInputs struct {
	r      int
	ds     *vpic.Dataset
	keys   [][][]byte // [file][particle]
	sorted [][]int    // [file] particle indices in key order
	gets   [][2]int   // (file, particle) per get
	scans  [][2]int   // (file, start position in sorted) per scan
	counts [3]int     // particles at or above each selectivity's threshold
	pairs  int64      // particles in the timestep
	hs     []*client.Keyspace
}

func startVPIC(c *config, rec *recorder) (system, roundStats, error) {
	env := sim.NewEnv()
	st := stats.NewIOStats()
	h := host.New(env, host.DefaultHostConfig())
	opts := device.DefaultOptions()
	opts.SSD.ZoneSize = 4 << 20
	opts.SSD.NumZones = 8192
	opts.Seed = deviceSeed
	opts.Trace, opts.Metrics = c.traced, c.traced
	dev := device.New(env, opts, st)
	s := &vpicSession{c: c, rec: rec, st: st, dev: dev, cl: client.New(h, dev)}
	s.loop = newSimLoop(env, func(p *sim.Proc) {
		_ = dev.WaitBackgroundIdle(p)
		dev.Shutdown()
	})
	// Nothing is preloaded: the first timestep is the warm-up round.
	return s, roundStats{}, nil
}

func (s *vpicSession) generate(r int) *vpicInputs {
	sz := s.c.sz
	in := &vpicInputs{r: r, ds: vpic.Generate(s.c.seed*1000003+int64(r), sz.VPICFiles, sz.VPICPerFile)}
	for f := range in.ds.Files {
		// Files of one timestep are not all the same size.
		file := &in.ds.Files[f]
		file.Particles = file.Particles[:jitter(s.c.seed, r*sz.VPICFiles+f+1, sz.VPICPerFile)]
		in.pairs += int64(len(file.Particles))
		parts := file.Particles
		keys := make([][]byte, len(parts))
		idx := make([]int, len(parts))
		for i := range parts {
			keys[i] = parts[i].Key()
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return parts[idx[a]].ID < parts[idx[b]].ID })
		in.keys = append(in.keys, keys)
		in.sorted = append(in.sorted, idx)
	}
	rng := sim.NewRNG(s.c.seed).Fork(int64(r) + 7)
	for i := 0; i < sz.VPICGets; i++ {
		f := rng.Intn(sz.VPICFiles)
		in.gets = append(in.gets, [2]int{f, rng.Intn(len(in.keys[f]))})
	}
	for i := 0; i < sz.VPICScans; i++ {
		f := rng.Intn(sz.VPICFiles)
		in.scans = append(in.scans, [2]int{f, rng.Intn(len(in.keys[f]) - sz.VPICScanLen + 1)})
	}
	// The device's range query is inclusive at its lower bound, so the ground
	// truth counts energy >= threshold (Dataset.CountAbove is strict and
	// differs whenever a float32 energy lands exactly on the threshold).
	for f := range in.ds.Files {
		for i := range in.ds.Files[f].Particles {
			e := in.ds.Files[f].Particles[i].Energy()
			for si, sel := range vpicSelectivities {
				if e >= vpic.EnergyThreshold(sel) {
					in.counts[si]++
				}
			}
		}
	}
	return in
}

func (s *vpicSession) round(r int, m *meter) roundStats {
	in := s.generate(r)
	var rs roundStats
	s.loop.do(func(p *sim.Proc) {
		m.start()
		rs = s.runRound(p, in)
		m.stop()
	})
	rs.failed = s.f.drain()
	return rs
}

func (s *vpicSession) runRound(p *sim.Proc, in *vpicInputs) roundStats {
	sz, rec := s.c.sz, s.rec
	rs := roundStats{layer: map[string]float64{}}
	if in.r == 1 {
		s.busy0 = serviceBusy(s.dev.Registry())
	}
	v0, io0 := p.Now(), s.st.Clone()
	round := rec.begin("round", "benchmark", 0)

	// Ingest: one loader proc and one fresh keyspace per file.
	ingest := rec.begin("ingest", "client", round)
	in.hs = make([]*client.Keyspace, sz.VPICFiles)
	putLat := make([][]int64, sz.VPICFiles)
	parallel(p, "loader", sz.VPICFiles, func(q *sim.Proc, f int) {
		ks, err := s.cl.CreateKeyspace(q, fmt.Sprintf("t%d-f%d", in.r, f))
		if err != nil {
			panic(fmt.Sprintf("vpic-timesteps: create keyspace: %v", err))
		}
		in.hs[f] = ks
		parts := in.ds.Files[f].Particles
		for i := range parts {
			t0 := q.Now()
			if err := ks.BulkPut(q, in.keys[f][i], parts[i].Payload[:]); err != nil {
				s.f.addf("bulk put: %v", err)
				return
			}
			// Only the call that fills a 128 KiB message pays a round trip.
			if d := q.Now() - t0; d > 0 {
				putLat[f] = append(putLat[f], int64(d))
			}
		}
		t0 := q.Now()
		if err := ks.Flush(q); err != nil {
			s.f.addf("flush: %v", err)
		}
		putLat[f] = append(putLat[f], int64(q.Now()-t0))
	})
	for _, l := range putLat {
		rs.putVirt = append(rs.putVirt, l...)
	}
	pairs := in.pairs
	rs.ingestVirt = time.Duration(p.Now() - v0)
	rs.appWrite = pairs * vpic.ParticleSize
	rs.attempted += pairs
	ioIngest := s.st.Delta(io0)
	rec.end(ingest)

	// Compaction and index build run in the device; the round waits for both.
	wait := rec.begin("compact_wait", "core", round)
	c0, w0 := p.Now(), time.Now()
	for _, ks := range in.hs {
		if err := ks.Compact(p); err != nil {
			s.f.addf("compact: %v", err)
		}
		if err := ks.BuildSecondaryIndex(p, energyIndex); err != nil {
			s.f.addf("build index: %v", err)
		}
	}
	for _, ks := range in.hs {
		if err := ks.WaitCompacted(p); err != nil {
			s.f.addf("wait compacted: %v", err)
		}
	}
	compactVirt := p.Now() - c0
	for _, ks := range in.hs {
		if err := ks.WaitIndexBuilt(p, energyIndex.Name); err != nil {
			s.f.addf("wait index: %v", err)
		}
	}
	rs.queryableVirt = time.Duration(p.Now() - c0)
	rs.layer["compact_virt_ns"] = float64(compactVirt)
	rs.layer["sidx_build_virt_ns"] = float64(rs.queryableVirt) - float64(compactVirt)
	rs.layer["compact_wall_ns"] = float64(time.Since(w0))
	if s.c.traced {
		for _, ks := range in.hs {
			if pr, _, err := ks.CompactionProgress(p); err == nil {
				rs.layer["bytes_moved"] += float64(pr.BytesMoved)
				rs.layer["host_runs"] += float64(pr.HostRuns)
				rs.layer["device_runs"] += float64(pr.DeviceRuns)
			}
		}
	}
	rec.end(wait)

	// Queries.
	query := rec.begin("query", "client", round)
	ioQ0 := s.st.Clone()
	type lat struct{ virt, wall []int64 }
	per := make([]lat, sz.VPICGetProcs)
	reads := make([]int64, sz.VPICGetProcs)
	parallel(p, "get", sz.VPICGetProcs, func(q *sim.Proc, g int) {
		for i := g; i < len(in.gets); i += sz.VPICGetProcs {
			f, j := in.gets[i][0], in.gets[i][1]
			sp := 0
			if rec.sample() {
				sp = rec.begin("get", "client", query)
			}
			t0, w0 := q.Now(), time.Now()
			v, ok, err := in.hs[f].Get(q, in.keys[f][j])
			per[g].wall = append(per[g].wall, int64(time.Since(w0)))
			per[g].virt = append(per[g].virt, int64(q.Now()-t0))
			if sp != 0 {
				rec.end(sp)
				rec.setVirt(sp, int64(t0), int64(q.Now()))
			}
			if err != nil || !ok || !bytes.Equal(v, in.ds.Files[f].Particles[j].Payload[:]) {
				s.f.addf("get t%d-f%d/%d: ok=%v err=%v", in.r, f, j, ok, err)
			}
			reads[g] += int64(len(v))
		}
	})
	for g := range per {
		rs.getVirt = append(rs.getVirt, per[g].virt...)
		rs.getWall = append(rs.getWall, per[g].wall...)
	}
	rs.attempted += int64(len(in.gets))
	getReadBytes := s.st.MediaRead.Value() - ioQ0.MediaRead.Value()

	scanLat := make([][]int64, sz.VPICGetProcs)
	parallel(p, "scan", sz.VPICGetProcs, func(q *sim.Proc, g int) {
		for i := g; i < len(in.scans); i += sz.VPICGetProcs {
			f, at := in.scans[i][0], in.scans[i][1]
			want := in.sorted[f][at : at+sz.VPICScanLen]
			t0 := q.Now()
			got, err := in.hs[f].Scan(q, in.keys[f][want[0]], nil, sz.VPICScanLen)
			scanLat[g] = append(scanLat[g], int64(q.Now()-t0))
			if err != nil || len(got) != len(want) {
				s.f.addf("scan t%d-f%d@%d: %d pairs, err=%v", in.r, f, at, len(got), err)
				continue
			}
			for k, j := range want {
				if !bytes.Equal(got[k].Key, in.keys[f][j]) || !bytes.Equal(got[k].Value, in.ds.Files[f].Particles[j].Payload[:]) {
					s.f.addf("scan t%d-f%d@%d: pair %d is wrong or out of order", in.r, f, at, k)
					break
				}
				reads[g] += vpic.ParticleSize
			}
		}
	})
	for g := range scanLat {
		rs.scanVirt = append(rs.scanVirt, scanLat[g]...)
	}
	rs.attempted += int64(len(in.scans))

	// Energy queries: every keyspace queried concurrently, as in Fig 12.
	for si, sel := range vpicSelectivities {
		lo := keyenc.PutFloat32(vpic.EnergyThreshold(sel))
		matches := make([]int, sz.VPICFiles)
		t0 := p.Now()
		parallel(p, "energy", sz.VPICFiles, func(q *sim.Proc, f int) {
			got, err := in.hs[f].QuerySecondaryRange(q, energyIndex.Name, lo, nil, 0)
			if err != nil {
				s.f.addf("energy query %.3f t%d-f%d: %v", sel, in.r, f, err)
			}
			matches[f] = len(got)
		})
		if si == 1 {
			rs.sidxVirt = time.Duration(p.Now() - t0)
		}
		total := 0
		for _, m := range matches {
			total += m
		}
		if total != in.counts[si] {
			s.f.addf("energy query %.3f t%d: %d matches, want %d", sel, in.r, total, in.counts[si])
		}
		rs.appRead += int64(total) * vpic.ParticleSize
		rs.attempted += int64(sz.VPICFiles)
	}
	for g := range reads {
		rs.appRead += reads[g]
	}
	ioQuery := s.st.Delta(ioQ0)
	rec.end(query)

	// Delete the previous timestep: its zones are reset.
	for _, ks := range s.prev {
		if s.c.traced {
			if info, err := ks.Info(p); err == nil {
				rs.layer["zone_resets"] += float64(info.ZoneCount)
			}
		}
		if err := s.cl.DeleteKeyspace(p, ks.Name()); err != nil {
			s.f.addf("delete %s: %v", ks.Name(), err)
		}
	}
	s.prev, s.last = in.hs, in
	rec.end(round)

	d := s.st.Delta(io0)
	rs.virt = time.Duration(p.Now() - v0)
	rs.ops = pairs + int64(len(in.gets)+len(in.scans)+len(vpicSelectivities)*sz.VPICFiles)
	rs.mediaWrite = d.MediaWrite.Value()
	rs.linkBytes = d.HostToDevice.Value() + d.DeviceToHost.Value()
	rs.layer["get_media_read"] = float64(getReadBytes)
	rs.layer["gets"] = float64(len(in.gets))
	rs.layer["ingest_h2d"] = float64(ioIngest.HostToDevice.Value())
	rs.layer["pairs"] = float64(pairs)
	rs.layer["bulk_cmds"] = float64(ioIngest.BulkPuts.Value())
	rs.layer["query_d2h"] = float64(ioQuery.DeviceToHost.Value())
	rs.layer["app_read"] = float64(rs.appRead)
	rs.layer["app_write"] = float64(rs.appWrite)
	rs.layer["commands"] = float64(d.Commands.Value())
	return rs
}

// final syncs the last timestep, cuts power, restarts the device and re-reads
// sampled keys of every keyspace: an acknowledged, synced write that does not
// come back is a failed operation.
func (s *vpicSession) final() (attempted, failed int64) {
	s.loop.do(func(p *sim.Proc) {
		in := s.last
		for _, ks := range in.hs {
			if err := ks.Sync(p); err != nil {
				s.f.addf("sync %s: %v", ks.Name(), err)
			}
		}
		s.dev.PowerCut(p)
		if _, err := s.dev.Restart(p); err != nil {
			s.f.addf("restart: %v", err)
			return
		}
		rng := sim.NewRNG(s.c.seed).Fork(99)
		for f, old := range in.hs {
			ks, err := s.cl.OpenKeyspace(p, old.Name())
			if err != nil {
				s.f.addf("reopen %s after restart: %v", old.Name(), err)
				attempted += int64(s.c.sz.VPICRestartSample)
				continue
			}
			for n := 0; n < s.c.sz.VPICRestartSample; n++ {
				j := rng.Intn(len(in.keys[f]))
				v, ok, err := ks.Get(p, in.keys[f][j])
				attempted++
				if err != nil || !ok || !bytes.Equal(v, in.ds.Files[f].Particles[j].Payload[:]) {
					s.f.addf("get after restart %s/%d: ok=%v err=%v", old.Name(), j, ok, err)
				}
			}
		}
	})
	return attempted, s.f.drain()
}

func (s *vpicSession) layers(timed []roundStats, pre roundStats) map[string]float64 {
	reg := s.dev.Registry()
	n := float64(len(timed))
	var virt float64
	for i := range timed {
		virt += float64(timed[i].virt)
	}
	socCores := float64(device.DefaultOptions().SoC.Cores)
	out := deviceStageLayers(reg)
	s.rocksLayers(out)
	for name, v := range map[string]float64{
		"ssd.media_read_bytes_per_get":        ratio(sumLayer(timed, "get_media_read"), sumLayer(timed, "gets")),
		"ssd.zone_resets_per_round":           sumLayer(timed, "zone_resets") / n,
		"pcie.h2d_bytes_per_pair":             ratio(sumLayer(timed, "ingest_h2d"), sumLayer(timed, "pairs")),
		"pcie.d2h_bytes_per_result_byte":      ratio(sumLayer(timed, "query_d2h"), sumLayer(timed, "app_read")),
		"core.compact_virt_s":                 sumLayer(timed, "compact_virt_ns") / n / 1e9,
		"core.sidx_build_virt_s":              sumLayer(timed, "sidx_build_virt_ns") / n / 1e9,
		"core.compact_wall_s":                 sumLayer(timed, "compact_wall_ns") / n / 1e9,
		"core.idxcache_hit_ratio":             idxCacheHitRatio(ratio(sumLayer(timed, "get_media_read"), sumLayer(timed, "gets"))),
		"compaction.bytes_moved_per_app_byte": ratio(sumLayer(timed, "bytes_moved"), sumLayer(timed, "app_write")),
		"compaction.host_runs":                sumLayer(timed, "host_runs") / n,
		"compaction.device_runs":              sumLayer(timed, "device_runs") / n,
		"device.soc_util":                     ratio(serviceBusy(reg)-s.busy0, virt*socCores),
		"client.pairs_per_bulk_cmd":           ratio(sumLayer(timed, "pairs"), sumLayer(timed, "bulk_cmds")),
	} {
		out[name] = v
	}
	return out
}

// rocksLayers runs the repository's own Fig 11/12 reproduction (internal/bench:
// the same VPIC shape loaded into the modelled device and into the
// software-LSM baseline) and reports the baseline's effective write time and
// the two speed-ups the paper headlines — the accuracy reference for the
// model, beside the paper's ~10.6x and ~7.4x.
func (s *vpicSession) rocksLayers(out map[string]float64) {
	sc := bench.DefaultScale()
	sc.VPICFiles, sc.VPICParticlesPerFile = s.c.sz.VPICFiles, s.c.sz.VPICPerFile
	sc.Selectivities, sc.Seed = []float64{vpicSelectivities[1]}, s.c.seed
	res, err := bench.RunMacro(sc)
	if err != nil {
		s.f.addf("rocks baseline: %v", err)
		return
	}
	for _, note := range res.Fig12.Notes {
		if strings.HasPrefix(note, "MISMATCH") {
			s.f.addf("rocks baseline: %s", note)
		}
	}
	out["rocks.effective_write_virt_s"] = res.RocksTotal.Seconds()
	out["rocks.ingest_speedup"] = ratio(float64(res.RocksTotal), float64(res.KVCSDInsert))
	out["rocks.sidx_speedup_1pct"] = res.Fig12.Float(0, "speedup")
}

func (s *vpicSession) traceSources() (*obs.Tracer, map[uint64]bool) { return s.dev.Tracer(), nil }

func (s *vpicSession) close() { s.loop.stop() }
