package core

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
	"strings"
	"testing"

	"kvcsd/internal/sim"
)

// plantMetaFrame appends a frame, encoded by the v1 codec, to a metadata zone
// so tests can plant arbitrary — even semantically corrupt — metadata.
func plantMetaFrame(t *testing.T, fx *engineFixture, p *sim.Proc, zone int, f *metaFrame) {
	t.Helper()
	if err := fx.dev.WriteZone(p, zone, appendMetaFrame(nil, f)); err != nil {
		t.Fatal(err)
	}
}

// plantTornMetaFrame appends a frame header whose declared payload never
// finished writing: the length runs past the write pointer.
func plantTornMetaFrame(t *testing.T, fx *engineFixture, p *sim.Proc, zone int) {
	t.Helper()
	torn := make([]byte, metaHeaderLen+5)
	binary.LittleEndian.PutUint32(torn[0:], 4096) // declares 4 KiB ...
	binary.LittleEndian.PutUint32(torn[4:], 0xDEADBEEF)
	binary.LittleEndian.PutUint32(torn[8:], metaMagicFamily|metaVersion)
	if err := fx.dev.WriteZone(p, zone, torn); err != nil { // ... lands 5 bytes
		t.Fatal(err)
	}
}

func recoverFresh(t *testing.T, fx *engineFixture, p *sim.Proc, seed int64) (*Engine, error) {
	t.Helper()
	eng := NewEngine(fx.env, fx.dev, fx.soc, smallEngineConfig(), sim.NewRNG(seed), fx.st)
	return eng, eng.Recover(p)
}

func wantNames(t *testing.T, eng *Engine, want ...string) {
	t.Helper()
	if got := eng.Manager().Names(); !slices.Equal(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}

// TestRecoverTornMetaFrame plants a frame whose header is intact (magic and
// declared length) but whose payload never finished writing. Recovery must
// treat it as torn and fall back to the last whole frame.
func TestRecoverTornMetaFrame(t *testing.T) {
	fx := newTinyMetaFixture()
	fx.run(t, func(p *sim.Proc) {
		if err := fx.eng.CreateKeyspace(p, "survivor"); err != nil {
			t.Fatal(err)
		}
		plantTornMetaFrame(t, fx, p, 0)
		fx.eng.Halt()
		eng2, err := recoverFresh(t, fx, p, 21)
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		wantNames(t, eng2, "survivor")
	})
}

// TestRecoverChecksumFailingMetaFrame plants a whole frame whose payload
// fails its CRC: scanning must stop at it, keeping the prior frames.
func TestRecoverChecksumFailingMetaFrame(t *testing.T) {
	fx := newTinyMetaFixture()
	fx.run(t, func(p *sim.Proc) {
		if err := fx.eng.CreateKeyspace(p, "survivor"); err != nil {
			t.Fatal(err)
		}
		frame := appendMetaFrame(nil, &metaFrame{seq: 999, removals: []string{"survivor"}})
		frame[metaHeaderLen] ^= 0x55 // corrupt the payload under an intact header
		if err := fx.dev.WriteZone(p, 0, frame); err != nil {
			t.Fatal(err)
		}
		fx.eng.Halt()
		eng2, err := recoverFresh(t, fx, p, 22)
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		wantNames(t, eng2, "survivor")
		if eng2.Manager().metaSeq == 999 {
			t.Fatal("checksum-failing frame was believed")
		}
	})
}

// TestRecoverEmptyMetaZones resets both metadata zones after real use: an
// empty metadata log is a valid (blank) device, not an error.
func TestRecoverEmptyMetaZones(t *testing.T) {
	fx := newTinyMetaFixture()
	fx.run(t, func(p *sim.Proc) {
		if err := fx.eng.CreateKeyspace(p, "doomed"); err != nil {
			t.Fatal(err)
		}
		for z := 0; z < metadataZones; z++ {
			if err := fx.dev.ResetZone(p, z); err != nil {
				t.Fatal(err)
			}
		}
		fx.eng.Halt()
		eng2, err := recoverFresh(t, fx, p, 23)
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		wantNames(t, eng2)
	})
}

// TestRecoverRejectsDuplicateKeyspace plants a CRC-valid frame upserting the
// same keyspace name twice: recovery must refuse it with ErrMetaCorrupt
// rather than silently keeping one of the two.
func TestRecoverRejectsDuplicateKeyspace(t *testing.T) {
	fx := newTinyMetaFixture()
	fx.run(t, func(p *sim.Proc) {
		plantMetaFrame(t, fx, p, 0, &metaFrame{seq: 7, snapshot: true, upserts: []metaKeyspace{
			{name: "twin", state: uint8(StateWritable)},
			{name: "twin", state: uint8(StateWritable)},
		}})
		fx.eng.Halt()
		_, err := recoverFresh(t, fx, p, 24)
		if !errors.Is(err, ErrMetaCorrupt) || !strings.Contains(err.Error(), "duplicate keyspace") {
			t.Fatalf("recover: %v, want ErrMetaCorrupt (duplicate keyspace)", err)
		}
	})
}

// TestRecoverRejectsDoublyClaimedZone plants a table where two keyspaces'
// clusters both claim zone 200: claiming is idempotent, so believing it would
// poison the free pool — recovery must fail with ErrMetaCorrupt. The claims
// arrive in two frames, so the check runs on the folded table.
func TestRecoverRejectsDoublyClaimedZone(t *testing.T) {
	fx := newTinyMetaFixture()
	fx.run(t, func(p *sim.Proc) {
		claim := func() *metaCluster {
			return &metaCluster{stripes: [][]int{{200}}}
		}
		plantMetaFrame(t, fx, p, 0, &metaFrame{seq: 7, snapshot: true, upserts: []metaKeyspace{
			{name: "a", state: uint8(StateWritable), klog: claim()},
		}})
		plantMetaFrame(t, fx, p, 0, &metaFrame{seq: 8, upserts: []metaKeyspace{
			{name: "b", state: uint8(StateWritable), klog: claim()},
		}})
		fx.eng.Halt()
		_, err := recoverFresh(t, fx, p, 25)
		if !errors.Is(err, ErrMetaCorrupt) || !strings.Contains(err.Error(), "claimed by both") {
			t.Fatalf("recover: %v, want ErrMetaCorrupt (zone claimed twice)", err)
		}
	})
}

// TestRecoverIgnoresRemovalOfUnknownName: a frame may repeat a removal whose
// earlier write reached the zone but reported failure, so removing a name the
// fold does not hold is a no-op, not corruption.
func TestRecoverIgnoresRemovalOfUnknownName(t *testing.T) {
	fx := newTinyMetaFixture()
	fx.run(t, func(p *sim.Proc) {
		if err := fx.eng.CreateKeyspace(p, "survivor"); err != nil {
			t.Fatal(err)
		}
		seq := fx.eng.Manager().metaSeq + 1
		plantMetaFrame(t, fx, p, 0, &metaFrame{seq: seq, removals: []string{"ghost"}})
		fx.eng.Halt()
		eng2, err := recoverFresh(t, fx, p, 26)
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		wantNames(t, eng2, "survivor")
		if got := eng2.Manager().metaSeq; got != seq {
			t.Fatalf("recovered seq %d, want the removal frame's %d", got, seq)
		}
	})
}

// TestRecoverUpsertAfterRemoval folds a name that is removed and then
// upserted again in a later frame — a deleted and recreated keyspace: the
// later record wins.
func TestRecoverUpsertAfterRemoval(t *testing.T) {
	fx := newTinyMetaFixture()
	fx.run(t, func(p *sim.Proc) {
		plantMetaFrame(t, fx, p, 0, &metaFrame{seq: 7, snapshot: true, upserts: []metaKeyspace{
			{name: "keep"}, {name: "phoenix", state: uint8(StateCompacted), count: 9},
		}})
		plantMetaFrame(t, fx, p, 0, &metaFrame{seq: 8, removals: []string{"phoenix"}})
		plantMetaFrame(t, fx, p, 0, &metaFrame{seq: 9, upserts: []metaKeyspace{
			{name: "phoenix", state: uint8(StateWritable), count: 3},
		}})
		fx.eng.Halt()
		eng2, err := recoverFresh(t, fx, p, 27)
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		wantNames(t, eng2, "keep", "phoenix")
		ks, _ := eng2.Keyspace("phoenix")
		if ks.State() != StateWritable || ks.Count() != 3 {
			t.Fatalf("phoenix recovered %s with %d pairs, want WRITABLE with 3", ks.State(), ks.Count())
		}
	})
}

// TestRecoverTornFrameAfterZoneSwitch tears the snapshot that opens the next
// metadata zone — a power cut right after the switch. That zone then holds no
// valid frame, so the old zone, which the switch left intact, wins: the table
// as it stood before the change that overflowed it.
func TestRecoverTornFrameAfterZoneSwitch(t *testing.T) {
	fx := newTinyMetaFixture()
	fx.run(t, func(p *sim.Proc) {
		m := fx.eng.Manager()
		var names []string
		for i := 0; m.activeMeta == 0; i++ {
			if i == 1000 {
				t.Fatal("metadata log never switched zones")
			}
			names = append(names, string(tkey(i)))
			if err := fx.eng.CreateKeyspace(p, names[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := fx.dev.ResetZone(p, 1); err != nil {
			t.Fatal(err)
		}
		plantTornMetaFrame(t, fx, p, 1)
		fx.eng.Halt()
		eng2, err := recoverFresh(t, fx, p, 28)
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		wantNames(t, eng2, names[:len(names)-1]...)
		if eng2.Manager().activeMeta != 0 {
			t.Fatal("the zone holding only a torn frame won")
		}
	})
}

// TestRecoverRejectsUndecodableMetaFrame: a whole, CRC-valid frame recovery
// cannot read is corruption, not a torn tail — of another version, malformed,
// or a delta opening a zone (whose fold would start from nothing).
func TestRecoverRejectsUndecodableMetaFrame(t *testing.T) {
	frame := func(payload []byte, magic uint32) []byte {
		b := make([]byte, metaHeaderLen, metaHeaderLen+len(payload))
		binary.LittleEndian.PutUint32(b[0:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(b[4:], crc32.ChecksumIEEE(payload))
		binary.LittleEndian.PutUint32(b[8:], magic)
		return append(b, payload...)
	}
	x := []metaKeyspace{{name: "x"}}
	snapshot := appendMetaFrame(nil, &metaFrame{seq: 5, snapshot: true, upserts: x})[metaHeaderLen:]
	for _, tc := range []struct {
		name  string
		frame []byte
		want  string
	}{
		{"next version", frame(snapshot, metaMagicFamily|2), "version 2"},
		{"gob magic", frame(snapshot, 0x4b564d44), "version 68"},
		{"trailing byte", frame(append(snapshot, 0), metaMagicFamily|metaVersion), "malformed"},
		{"delta first", appendMetaFrame(nil, &metaFrame{seq: 5, upserts: x}), "opens with a delta"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := newTinyMetaFixture()
			fx.run(t, func(p *sim.Proc) {
				if err := fx.dev.WriteZone(p, 0, tc.frame); err != nil {
					t.Fatal(err)
				}
				fx.eng.Halt()
				_, err := recoverFresh(t, fx, p, 29)
				if !errors.Is(err, ErrMetaCorrupt) || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("recover: %v, want ErrMetaCorrupt (%s)", err, tc.want)
				}
			})
		})
	}
}
