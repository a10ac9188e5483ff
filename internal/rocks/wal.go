package rocks

import (
	"encoding/binary"
	"hash/crc32"

	"kvcsd/internal/sim"
	"kvcsd/internal/vfs"
)

// WAL record layout:
//
//	crc32(payload) uint32 | payloadLen uint32 | payload
//	payload: kind uint8 | seq uint64 | keyLen uint32 | key | valLen uint32 | val
//
// Nothing reads the log back: the baseline is measured for the bytes and
// syncs it writes, and Open never recovers an existing DB.

type walWriter struct {
	f *vfs.File
}

func newWALWriter(f *vfs.File) *walWriter { return &walWriter{f: f} }

// append writes one record.
func (w *walWriter) append(p *sim.Proc, kind entryKind, seq uint64, key, value []byte) error {
	payload := make([]byte, 1+8+4+len(key)+4+len(value))
	payload[0] = byte(kind)
	binary.LittleEndian.PutUint64(payload[1:], seq)
	binary.LittleEndian.PutUint32(payload[9:], uint32(len(key)))
	copy(payload[13:], key)
	off := 13 + len(key)
	binary.LittleEndian.PutUint32(payload[off:], uint32(len(value)))
	copy(payload[off+4:], value)

	rec := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(rec, crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(rec[4:], uint32(len(payload)))
	copy(rec[8:], payload)
	return w.f.Append(p, rec)
}

// sync flushes the log to stable storage.
func (w *walWriter) sync(p *sim.Proc) error { return w.f.Sync(p) }
