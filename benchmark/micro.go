package main

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"sort"
	"time"

	"kvcsd/internal/core"
	"kvcsd/internal/host"
	"kvcsd/internal/nvme"
	"kvcsd/internal/session"
	"kvcsd/internal/sim"
	"kvcsd/internal/wire"
)

// Micro measurements: loops that call one layer's public function directly.
// They run on traced runs only and feed per-layer metrics; each repeats its
// loop five times and reports the median.

func medianOf5(fn func() float64) float64 {
	v := make([]float64, 5)
	for i := range v {
		v[i] = fn()
	}
	return median(v)
}

// microSimHandoff: two procs alternate Sleep(1ns), so every wake-up is a
// proc-to-proc switch through the scheduler. Nanoseconds of wall per switch.
func microSimHandoff(shrink int) float64 {
	const procs = 2
	n := 200000 / shrink
	return medianOf5(func() float64 {
		env := sim.NewEnv()
		for i := 0; i < procs; i++ {
			env.Go("pingpong", func(p *sim.Proc) {
				for k := 0; k < n; k++ {
					p.Sleep(1)
				}
			})
		}
		t0 := time.Now()
		env.Run()
		return float64(time.Since(t0)) / float64(procs*n)
	})
}

// microWire encodes and decodes the two frames the remote workloads are made
// of — a point-get request and a 128-pair scan response — and returns the
// mean nanoseconds per frame for each direction and allocations per decode.
func microWire(shrink int) (encodeNs, decodeNs, decodeAllocs float64) {
	req := &wire.Request{ID: 7, Op: wire.OpGet, Keyspace: "base", Key: genKey(1, 42)}
	resp := &wire.Response{ID: 7, Op: wire.OpScan, Status: wire.StatusOK}
	for i := 0; i < 128; i++ {
		resp.Pairs = append(resp.Pairs, nvme.KVPair{Key: genKey(1, i), Value: genValue(1, i, 0, 128)})
	}
	tc := wire.TraceContext{TraceID: 1, SpanID: 2}
	var buf []byte
	encode := func() {
		buf = wire.AppendFrameFull(buf[:0], wire.KindRequest, req.Op, 0, req.ID, tc, 9, wire.EncodeRequest(req))
		buf = wire.AppendFrameFull(buf, wire.KindResponse, resp.Op, 0, resp.ID, tc, 9, wire.EncodeResponse(resp))
	}
	encode()
	stream := bytes.Clone(buf)
	decode := func() {
		r := bytes.NewReader(stream)
		h, payload, err := wire.ReadFrame(r)
		if err == nil {
			_, err = wire.DecodeRequest(h, payload)
		}
		if err == nil {
			if h, payload, err = wire.ReadFrame(r); err == nil {
				_, err = wire.DecodeResponse(h, payload)
			}
		}
		if err != nil {
			panic("micro wire: " + err.Error())
		}
	}
	n := 2000 / shrink
	perFrame := func(fn func()) float64 {
		return medianOf5(func() float64 {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				fn()
			}
			return float64(time.Since(t0)) / float64(2*n)
		})
	}
	encodeNs, decodeNs = perFrame(encode), perFrame(decode)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		decode()
	}
	runtime.ReadMemStats(&m1)
	return encodeNs, decodeNs, float64(m1.Mallocs-m0.Mallocs) / float64(2*n)
}

// microSched pushes items of two tenants through the fair scheduler:
// Enqueue, NextBatch, Release. Nanoseconds per item.
func microSched(shrink int) float64 {
	cfg := session.Config{}
	mgr := session.NewManager(cfg)
	tenants := []*session.Tenant{mgr.Tenant("a"), mgr.Tenant("b")}
	sched := session.NewScheduler(cfg, 256)
	const batch = 64
	items := make([]*session.Item, batch)
	for i := range items {
		items[i] = &session.Item{Tenant: tenants[i%2], Lane: wire.LaneOf(wire.OpGet), Cost: 1}
	}
	n := 4000 / shrink
	return medianOf5(func() float64 {
		t0 := time.Now()
		for k := 0; k < n; k++ {
			for _, it := range items {
				if c := sched.Enqueue(it); c != session.CauseNone {
					panic("micro sched: shed: " + c.String())
				}
			}
			got, _ := sched.NextBatch(batch)
			sched.Release(len(got))
		}
		return float64(time.Since(t0)) / float64(n*batch)
	})
}

// microMerge k-way merges 8 sorted KLOG runs of 32 Ki records each through
// the host half of collaborative compaction. Nanoseconds of wall per record.
// A run is the documented record stream: klen u16 | vlen u32 | vlogOff u64 | key.
func microMerge(shrink int) float64 {
	const runs = 8
	per := 32768 / shrink
	encoded := make([][]byte, runs)
	for r := range encoded {
		keys := make([][]byte, per)
		for i := range keys {
			keys[i] = genKey(int64(r)+1, i)
		}
		sort.Slice(keys, func(a, b int) bool { return bytes.Compare(keys[a], keys[b]) < 0 })
		for i, k := range keys {
			var hdr [14]byte
			binary.LittleEndian.PutUint16(hdr[0:], uint16(len(k)))
			binary.LittleEndian.PutUint32(hdr[2:], 128)
			binary.LittleEndian.PutUint64(hdr[6:], uint64(r*per+i)*128)
			encoded[r] = append(append(encoded[r], hdr[:]...), k...)
		}
	}
	return medianOf5(func() float64 {
		env := sim.NewEnv()
		h := host.New(env, host.DefaultHostConfig())
		var wall time.Duration
		env.Go("merge", func(p *sim.Proc) {
			t0 := time.Now()
			if _, err := core.MergeEncodedKlogRuns(p, h, encoded); err != nil {
				panic("micro merge: " + err.Error())
			}
			wall = time.Since(t0)
		})
		env.Run()
		return float64(wall) / float64(runs*per)
	})
}

// calibrate checksums 64 MiB with CRC32-C: nanoseconds per KiB on this
// machine right now. It tells a slow machine from a slow program and is never
// used to rescale a result.
func calibrate() float64 {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	tab := crc32.MakeTable(crc32.Castagnoli)
	t0 := time.Now()
	var sum uint32
	for i := 0; i < 64; i++ {
		sum = crc32.Update(sum, tab, buf)
	}
	if sum == 0 {
		panic("calibrate: impossible checksum")
	}
	return float64(time.Since(t0)) / float64(64<<10)
}
