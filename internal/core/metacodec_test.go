package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"kvcsd/internal/codec"
	"kvcsd/internal/sim"
)

// appendMetaFrame encodes a whole frame from its decoded form, in the order
// Manager.encodeFrame assembles frames from the live table.
func appendMetaFrame(dst []byte, f *metaFrame) []byte {
	start := len(dst)
	b := beginMetaFrame(dst, f.seq, f.snapshot)
	b = binary.AppendUvarint(b, uint64(len(f.upserts)))
	for i := range f.upserts {
		b = appendMetaRecord(b, &f.upserts[i])
	}
	b = binary.AppendUvarint(b, uint64(len(f.removals)))
	for _, n := range f.removals {
		b = codec.AppendBytes(b, n)
	}
	b = binary.AppendUvarint(b, uint64(len(f.sums)))
	for _, s := range f.sums {
		b = appendClusterSums(b, s.id, s.sums)
	}
	finishMetaFrame(b[start:])
	return b
}

// sampleMetaFrame exercises every field of the v1 payload.
func sampleMetaFrame() *metaFrame {
	cl := &metaCluster{id: 12, typ: uint8(ZoneKLOG), stripes: [][]int{{4, 5}, {9, 8}}, offset: 1,
		length: 70000, tail: []byte("tail")}
	return &metaFrame{
		seq:      300,
		snapshot: true,
		upserts: []metaKeyspace{
			{name: "empty"},
			{
				name: "full", state: uint8(StateCompacted), count: 1 << 40, bytes: 5, minKey: []byte("a"),
				maxKey: []byte("z"), klog: cl, sorted: &metaCluster{id: 13, sealed: true, stripes: [][]int{{}}},
				logFrames: []frameExtent{{Start: 0, End: 10}, {Start: 20, End: 4096}},
				sketch:    []sketchEntry{{pivot: []byte("m"), block: 2}},
				secondary: []metaSecondary{
					{name: "energy", offset: 28, length: 4, typ: 5, built: true, cluster: cl,
						sketch: []sketchEntry{{pivot: []byte{0, 1}, block: 7}}},
					{name: "pending"},
				},
				heat: []byte{2, 0, 9},
			},
		},
		removals: []string{"gone", ""},
		sums:     []clusterSums{{id: 12, sums: []uint32{0, 0xdeadbeef}}, {id: 99}},
	}
}

func TestMetaFrameRoundTrip(t *testing.T) {
	want := sampleMetaFrame()
	frame := appendMetaFrame(nil, want)
	got, err := decodeMetaPayload(frame[metaHeaderLen:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	for n := metaHeaderLen; n < len(frame); n++ {
		if _, err := decodeMetaPayload(frame[metaHeaderLen:n]); err == nil {
			t.Fatalf("payload cut to %d of %d bytes decoded", n-metaHeaderLen, len(frame)-metaHeaderLen)
		}
	}
}

// TestMetaListBoundsAcceptSmallestItems encodes every list in a payload with
// many copies of its smallest legal item and decodes it. A list count may not
// exceed what the bytes after it can hold at the decoder's minimum item size,
// so a minimum set above the real one refuses these payloads.
func TestMetaListBoundsAcceptSmallestItems(t *testing.T) {
	const n = 256
	record := func(k metaKeyspace) *metaFrame { return &metaFrame{upserts: []metaKeyspace{k}} }
	for _, tc := range []struct {
		name string
		f    *metaFrame
	}{
		{"upserts", &metaFrame{upserts: make([]metaKeyspace, n)}},
		{"removals", &metaFrame{removals: make([]string, n)}},
		{"sums", &metaFrame{sums: make([]clusterSums, n)}},
		{"granule sums", &metaFrame{sums: []clusterSums{{sums: make([]uint32, n)}}}},
		{"log frames", record(metaKeyspace{logFrames: make([]frameExtent, n)})},
		{"sketch", record(metaKeyspace{sketch: make([]sketchEntry, n)})},
		{"secondaries", record(metaKeyspace{secondary: make([]metaSecondary, n)})},
		{"stripes", record(metaKeyspace{klog: &metaCluster{stripes: make([][]int, n)}})},
		{"stripe zones", record(metaKeyspace{klog: &metaCluster{stripes: [][]int{make([]int, n)}}})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			payload := appendMetaFrame(nil, tc.f)[metaHeaderLen:]
			got, err := decodeMetaPayload(payload)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(appendMetaFrame(nil, got)[metaHeaderLen:], payload) {
				t.Fatal("decoded payload re-encodes differently")
			}
		})
	}
}

// FuzzMetaFrame: decoding arbitrary payloads never panics, and whatever
// decodes re-encodes to exactly the payload it came from.
func FuzzMetaFrame(f *testing.F) {
	f.Add(appendMetaFrame(nil, sampleMetaFrame())[metaHeaderLen:])
	f.Add(appendMetaFrame(nil, &metaFrame{seq: 1})[metaHeaderLen:])
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{0x81, 0x00, 0, 0, 0, 0}) // overlong seq
	f.Fuzz(func(t *testing.T, payload []byte) {
		fr, err := decodeMetaPayload(payload)
		if err != nil {
			return
		}
		if again := appendMetaFrame(nil, fr)[metaHeaderLen:]; !bytes.Equal(again, payload) {
			t.Fatalf("payload %x re-encodes to %x", payload, again)
		}
	})
}

// newCompactedTable builds n small compacted keyspaces and settles the
// metadata log.
func newCompactedTable(t *testing.T, p *sim.Proc, fx *engineFixture, n int) []string {
	t.Helper()
	var names []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("ks-%03d", i)
		ingestN(t, p, fx, name, 40, func(i int) float32 { return float32(i) })
		compactAndWait(t, p, fx, name)
		names = append(names, name)
	}
	if err := fx.eng.Manager().Persist(p); err != nil {
		t.Fatal(err)
	}
	return names
}

// TestPersistWritesOnlyChanged: once the table is on media, a frame carries
// exactly what changed — nothing but its header and counts when nothing did,
// and the one record whose keyspace changed when one did.
func TestPersistWritesOnlyChanged(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		names := newCompactedTable(t, p, fx, 64)
		m := fx.eng.Manager()
		persist := func() int64 {
			t.Helper()
			before := m.metaBytes.Value()
			if err := m.Persist(p); err != nil {
				t.Fatal(err)
			}
			return m.metaBytes.Value() - before
		}
		empty := func() int64 { return int64(len(appendMetaFrame(nil, &metaFrame{seq: m.metaSeq}))) }

		if got := persist(); got != empty() {
			t.Fatalf("persist with nothing changed wrote %d bytes, want a %d-byte empty frame", got, empty())
		}
		changed := names[17]
		if _, _, err := fx.eng.Get(p, changed, tkey(3)); err != nil { // heats a granule
			t.Fatal(err)
		}
		got := persist()
		if want := empty() + int64(len(m.meta.written[changed])); got != want {
			t.Fatalf("persist after reading %s wrote %d bytes, want %d (its record and an empty frame)", changed, got, want)
		}
		if got := persist(); got != empty() {
			t.Fatalf("second persist with nothing changed wrote %d bytes, want %d", got, empty())
		}
	})
}

// TestPersistAllocs: a steady-state Persist — one keyspace's record changed,
// every other one compared and skipped — reuses its buffers.
func TestPersistAllocs(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		names := newCompactedTable(t, p, fx, 16)
		ks, _ := fx.eng.Keyspace(names[5])
		var err error
		n := testing.AllocsPerRun(50, func() {
			ks.heat.Touch(0)
			err = fx.eng.Manager().Persist(p)
		})
		if err != nil {
			t.Fatal(err)
		}
		if n > 2 {
			t.Fatalf("Persist allocated %v times, want at most 2", n)
		}
	})
}

// TestEveryFrameRecoversItsTable runs the recovered-table workload with a
// hook on every Persist: when a frame is encoded, the live table is dumped,
// and by the next frame (or checkpoint) recovering from the zones must give
// exactly that dump.
func TestEveryFrameRecoversItsTable(t *testing.T) {
	fx := newRecoveredTableFixture()
	var pending []byte // the dump of the table the last frame was encoded from
	frames, switches, restarts := 0, 0, 0
	check := func(p *sim.Proc) {
		if pending == nil {
			return
		}
		cfg := smallEngineConfig().sanitize()
		m := NewManager(fx.env, NewZoneManager(fx.dev, cfg, sim.NewRNG(1)), cfg)
		if err := m.Recover(p); err != nil {
			t.Fatalf("after frame %d: recover: %v", frames, err)
		}
		var got bytes.Buffer
		dumpTable(&got, m)
		if !bytes.Equal(got.Bytes(), pending) {
			t.Fatalf("after frame %d: recovered\n%s\nwant\n%s", frames, got.Bytes(), pending)
		}
	}
	watch := func(eng *Engine) {
		m, zone := eng.Manager(), eng.Manager().activeMeta
		m.persistHook = func(p *sim.Proc) {
			var live bytes.Buffer
			dumpTable(&live, m) // before anything yields
			check(p)
			pending = live.Bytes()
			frames++
			if m.activeMeta != zone {
				zone = m.activeMeta
				switches++
			}
		}
	}
	fx.run(t, func(p *sim.Proc) {
		eng := fx.eng
		watch(eng)
		recoveredTableWorkload(t, p, eng, func(label string) *Engine {
			if err := eng.WaitBackgroundIdle(p); err != nil {
				t.Fatal(err)
			}
			check(p)
			eng.Halt()
			restarts++
			next, err := recoverFresh(t, fx, p, int64(100+restarts))
			if err != nil {
				t.Fatalf("%s: recover: %v", label, err)
			}
			watch(next)
			if _, err := next.Scrub(p); err != nil {
				t.Fatalf("%s: scrub: %v", label, err)
			}
			eng = next
			return next
		})
		check(p)
	})
	// Each restart's scrub rotates the log once; the rest are zones filling.
	t.Logf("%d frames, %d metadata zone switches, %d restarts", frames, switches, restarts)
	if switches-restarts < metadataZones {
		t.Fatalf("the log filled a zone %d times: the workload should fill both", switches-restarts)
	}
}

// TestFrameCarriesSumsOfClusterJoiningTable: a cluster written while it is
// not yet in the keyspace table (a compaction's output) keeps its checksum
// marks through frames other keyspaces persist meanwhile, so the frame that
// adds it to the table carries its checksum table and a restart still
// verifies its granules.
func TestFrameCarriesSumsOfClusterJoiningTable(t *testing.T) {
	fx := newRecoveredTableFixture()
	fx.run(t, func(p *sim.Proc) {
		ingestN(t, p, fx, "big", 3000, func(i int) float32 { return float32(i) })
		if err := fx.eng.CreateKeyspace(p, "busy"); err != nil {
			t.Fatal(err)
		}
		if err := fx.eng.Compact(p, "big"); err != nil {
			t.Fatal(err)
		}
		ks, _ := fx.eng.Keyspace("big")
		for i := 0; ks.State() == StateCompacting; i++ {
			if err := fx.eng.Put(p, "busy", tkey(i), tvalue(i, 1)); err != nil {
				t.Fatal(err)
			}
			if err := fx.eng.Sync(p, "busy"); err != nil {
				t.Fatal(err)
			}
		}
		if err := fx.eng.WaitBackgroundIdle(p); err != nil {
			t.Fatal(err)
		}
		if len(ks.sorted.sums) == 0 {
			t.Fatal("compaction output has no checksums")
		}
		fx.eng.Halt()
		eng2, err := recoverFresh(t, fx, p, 40)
		if err != nil {
			t.Fatal(err)
		}
		var live, got bytes.Buffer
		dumpTable(&live, fx.eng.Manager())
		dumpTable(&got, eng2.Manager())
		if !bytes.Equal(got.Bytes(), live.Bytes()) {
			t.Fatalf("recovered\n%s\nwant\n%s", got.Bytes(), live.Bytes())
		}
	})
}
