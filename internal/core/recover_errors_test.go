package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"strings"
	"testing"

	"kvcsd/internal/sim"
)

// encodeMetaFrame wraps a snapshot in the on-media metadata frame format
// (plen | crc32 | "KVMD" | gob payload) so tests can plant arbitrary — even
// semantically corrupt — snapshots directly in a metadata zone.
func encodeMetaFrame(t *testing.T, snap *metaSnapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	frame := make([]byte, 12+buf.Len())
	binary.LittleEndian.PutUint32(frame[0:], uint32(buf.Len()))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(buf.Bytes()))
	binary.LittleEndian.PutUint32(frame[8:], 0x4b564d44)
	copy(frame[12:], buf.Bytes())
	return frame
}

func recoverFresh(t *testing.T, fx *engineFixture, p *sim.Proc, seed int64) (*Engine, error) {
	t.Helper()
	eng := NewEngine(fx.env, fx.dev, fx.soc, smallEngineConfig(), sim.NewRNG(seed), fx.st)
	return eng, eng.Recover(p)
}

// TestRecoverTornMetaFrame plants a frame whose header is intact (magic and
// declared length) but whose payload never finished writing: the declared
// length extends past the write pointer. Recovery must treat it as torn and
// fall back to the last whole snapshot.
func TestRecoverTornMetaFrame(t *testing.T) {
	fx := newTinyMetaFixture()
	fx.run(t, func(p *sim.Proc) {
		if err := fx.eng.CreateKeyspace(p, "survivor"); err != nil {
			t.Fatal(err)
		}
		torn := make([]byte, 12+5)
		binary.LittleEndian.PutUint32(torn[0:], 4096) // declares 4 KiB ...
		binary.LittleEndian.PutUint32(torn[4:], 0xDEADBEEF)
		binary.LittleEndian.PutUint32(torn[8:], 0x4b564d44)
		if err := fx.dev.WriteZone(p, 0, torn); err != nil { // ... lands 5 bytes
			t.Fatal(err)
		}
		fx.eng.Halt()
		eng2, err := recoverFresh(t, fx, p, 21)
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		if names := eng2.Manager().Names(); len(names) != 1 || names[0] != "survivor" {
			t.Fatalf("recovered %v", names)
		}
	})
}

// TestRecoverChecksumFailingMetaFrame plants a whole frame whose payload
// fails its CRC: scanning must stop at it, keeping the prior snapshot.
func TestRecoverChecksumFailingMetaFrame(t *testing.T) {
	fx := newTinyMetaFixture()
	fx.run(t, func(p *sim.Proc) {
		if err := fx.eng.CreateKeyspace(p, "survivor"); err != nil {
			t.Fatal(err)
		}
		frame := encodeMetaFrame(t, &metaSnapshot{Seq: 999})
		frame[12] ^= 0x55 // corrupt the payload under an intact header
		if err := fx.dev.WriteZone(p, 0, frame); err != nil {
			t.Fatal(err)
		}
		fx.eng.Halt()
		eng2, err := recoverFresh(t, fx, p, 22)
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		if names := eng2.Manager().Names(); len(names) != 1 || names[0] != "survivor" {
			t.Fatalf("recovered %v", names)
		}
		if eng2.Manager().metaSeq == 999 {
			t.Fatal("checksum-failing snapshot was believed")
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
		if names := eng2.Manager().Names(); len(names) != 0 {
			t.Fatalf("empty metadata zones recovered %v", names)
		}
	})
}

// TestRecoverRejectsDuplicateKeyspace plants a CRC-valid snapshot holding the
// same keyspace name twice: recovery must refuse it with ErrMetaCorrupt
// rather than silently collapsing the two entries.
func TestRecoverRejectsDuplicateKeyspace(t *testing.T) {
	fx := newTinyMetaFixture()
	fx.run(t, func(p *sim.Proc) {
		snap := &metaSnapshot{Seq: 7, Keyspaces: []metaKeyspace{
			{Name: "twin", State: uint8(StateWritable)},
			{Name: "twin", State: uint8(StateWritable)},
		}}
		if err := fx.dev.WriteZone(p, 0, encodeMetaFrame(t, snap)); err != nil {
			t.Fatal(err)
		}
		fx.eng.Halt()
		_, err := recoverFresh(t, fx, p, 24)
		if !errors.Is(err, ErrMetaCorrupt) || !strings.Contains(err.Error(), "duplicate keyspace") {
			t.Fatalf("recover: %v, want ErrMetaCorrupt (duplicate keyspace)", err)
		}
	})
}

// TestRecoverRejectsDoublyClaimedZone plants a snapshot where two keyspaces'
// clusters both claim zone 200: claiming is idempotent, so believing it would
// poison the free pool — recovery must fail with ErrMetaCorrupt.
func TestRecoverRejectsDoublyClaimedZone(t *testing.T) {
	fx := newTinyMetaFixture()
	fx.run(t, func(p *sim.Proc) {
		claim := func() *metaCluster {
			return &metaCluster{Stripes: [][]int{{200}}}
		}
		snap := &metaSnapshot{Seq: 7, Keyspaces: []metaKeyspace{
			{Name: "a", State: uint8(StateWritable), KLOG: claim()},
			{Name: "b", State: uint8(StateWritable), KLOG: claim()},
		}}
		if err := fx.dev.WriteZone(p, 0, encodeMetaFrame(t, snap)); err != nil {
			t.Fatal(err)
		}
		fx.eng.Halt()
		_, err := recoverFresh(t, fx, p, 25)
		if !errors.Is(err, ErrMetaCorrupt) || !strings.Contains(err.Error(), "claimed by both") {
			t.Fatalf("recover: %v, want ErrMetaCorrupt (zone claimed twice)", err)
		}
	})
}
