package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// recFormat describes the records of one index-block kind: a fixed header
// followed by keyLen(record) key bytes (see klogCodec and sidxCodec).
type recFormat struct {
	hdr    int
	keyLen func(rec []byte) int
}

const (
	pidxRecHdr = 14 // klen u16 | vlen u32 | svOff u64 | key
	sidxRecHdr = 16 // sklen u16 | pklen u16 | vlen u32 | svOff u64 | skey | pkey
)

var (
	pidxFormat = recFormat{pidxRecHdr, func(rec []byte) int {
		return int(binary.LittleEndian.Uint16(rec))
	}}
	sidxFormat = recFormat{sidxRecHdr, func(rec []byte) int {
		return int(binary.LittleEndian.Uint16(rec)) + int(binary.LittleEndian.Uint16(rec[2:]))
	}}
)

// blockView is an immutable parse of one index block: the raw block exactly
// as read from media plus the offset of every record in it (two bytes per
// record, ~270 B for a full 4 KiB PIDX block). Framing and the header
// checksum are verified once, when the view is built; after that lookups
// binary-search and iterate the records in place, and every key they return
// aliases buf. Nothing may write to buf once the view exists.
//
// touched is the one mutable part: a bit per record that a point lookup
// found, which the index cache reads when it evicts the block (see
// indexCache). It shares the offset table's allocation and is nil in a view
// parsed into a reused table.
type blockView struct {
	buf     []byte
	offs    []uint16
	touched []uint16
}

func (v blockView) len() int { return len(v.offs) }

// touch marks record i as found by a point lookup.
func (v blockView) touch(i int) { v.touched[i>>4] |= 1 << (i & 15) }

// parseIndexBlock builds the view of a count-prefixed index block, its record
// offsets in offs's storage when that has room (a walk that holds one block at
// a time reuses it); verify additionally demands the header checksum. A count
// that runs past the records present is corruption. A view whose table is
// allocated here carries a cleared touched bitmap behind the offsets.
func parseIndexBlock(offs []uint16, buf []byte, verify bool, f recFormat) (blockView, error) {
	if err := checkIndexBlock(buf, verify); err != nil {
		return blockView{}, err
	}
	if len(buf) > 1<<16 {
		return blockView{}, fmt.Errorf("core: %d-byte index block exceeds 16-bit record offsets", len(buf))
	}
	var touched []uint16
	if n := int(binary.LittleEndian.Uint16(buf)); cap(offs) >= n {
		offs = offs[:n]
	} else {
		all := make([]uint16, tableWords(n))
		offs, touched = all[:n:n], all[n:]
	}
	pos := indexBlockHdr
	for i := range offs {
		if len(buf)-pos < f.hdr {
			return blockView{}, fmt.Errorf("%w: short index record header", ErrRecordCorrupt)
		}
		n := f.hdr + f.keyLen(buf[pos:])
		if len(buf)-pos < n {
			return blockView{}, fmt.Errorf("%w: short index record key", ErrRecordCorrupt)
		}
		offs[i] = uint16(pos)
		pos += n
	}
	return blockView{buf: buf, offs: offs, touched: touched}, nil
}

// parseIndexBlocks parses every bs-byte block of slabs, in order, as
// parseIndexBlock does with no table given, but carves all their offset
// tables and touched bitmaps out of one allocation. It returns the views of
// the blocks before the first that fails to parse, and that failure.
func parseIndexBlocks(slabs [][]byte, bs int, verify bool, f recFormat) ([]blockView, error) {
	var blocks, words int
	for _, slab := range slabs {
		for off := 0; off+bs <= len(slab); off += bs {
			blocks++
			words += tableWords(int(binary.LittleEndian.Uint16(slab[off:])))
		}
	}
	table := make([]uint16, words)
	views := make([]blockView, 0, blocks)
	for _, slab := range slabs {
		for off := 0; off+bs <= len(slab); off += bs {
			n := int(binary.LittleEndian.Uint16(slab[off:]))
			all := table[:tableWords(n):tableWords(n)]
			table = table[len(all):]
			v, err := parseIndexBlock(all[:n:n], slab[off:off+bs:off+bs], verify, f)
			if err != nil {
				return views, err
			}
			v.touched = all[n:]
			views = append(views, v)
		}
	}
	return views, nil
}

// tableWords is the size of a view's table for n records: the offsets and,
// behind them, the touched bitmap.
func tableWords(n int) int { return n + (n+15)/16 }

// pidxBlock reads a view as primary-index records.
type pidxBlock struct{ blockView }

func (b pidxBlock) key(i int) []byte {
	rec := b.buf[b.offs[i]:]
	return rec[pidxRecHdr : pidxRecHdr+int(binary.LittleEndian.Uint16(rec))]
}

// entry returns record i; its key aliases the block.
func (b pidxBlock) entry(i int) pidxEntry {
	rec := b.buf[b.offs[i]:]
	return pidxEntry{
		key:     b.key(i),
		vlen:    binary.LittleEndian.Uint32(rec[2:]),
		vlogOff: binary.LittleEndian.Uint64(rec[6:]),
	}
}

// search returns the index of the first record with key >= k (len() if none).
func (b pidxBlock) search(k []byte) int {
	lo, hi := 0, b.len()
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(b.key(mid), k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// sidxBlock reads a view as secondary-index records.
type sidxBlock struct{ blockView }

// entry returns record i; its keys alias the block.
func (b sidxBlock) entry(i int) sidxEntry {
	rec := b.buf[b.offs[i]:]
	sk := sidxRecHdr + int(binary.LittleEndian.Uint16(rec))
	return sidxEntry{
		skey:  rec[sidxRecHdr:sk],
		pkey:  rec[sk : sk+int(binary.LittleEndian.Uint16(rec[2:]))],
		vlen:  binary.LittleEndian.Uint32(rec[4:]),
		svOff: binary.LittleEndian.Uint64(rec[8:]),
	}
}
