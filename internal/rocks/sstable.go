package rocks

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"kvcsd/internal/codec"
	"kvcsd/internal/host"
	"kvcsd/internal/sim"
	"kvcsd/internal/vfs"
)

// SSTable layout:
//
//	dataBlock*  filterBlock  indexBlock  footer
//
// data block entry: klen uvarint | vlen uvarint | kind byte | seq uvarint |
// key | value. The index block stores, per data block, the last user key and
// the block's (offset, length). The footer is fixed-size at the file tail.
//
// Readers pin the index and bloom filter in memory at open (as RocksDB
// commonly configures) and fetch data blocks through the DB's block cache.

const tableMagic = 0x6b76637364746231 // "kvcsdtb1"

const footerSize = 8 * 6

var errTableCorrupt = errors.New("rocks: sstable corrupt")

// tableMeta describes one on-disk table.
type tableMeta struct {
	fileNum  uint64
	size     int64
	entries  int64
	smallest []byte // user keys
	largest  []byte
}

func tableFileName(n uint64) string { return fmt.Sprintf("%06d.sst", n) }

// tableBuilder accumulates sorted internal entries into an SSTable file.
type tableBuilder struct {
	f              *vfs.File
	h              *host.Host
	opts           *Options
	blockBuf       []byte
	entriesInBlock int64
	index          []indexEntry
	keys           [][]byte // for the bloom filter
	offset         int64
	entries        int64
	smallest       []byte
	largest        []byte
	lastKey        []byte
}

type indexEntry struct {
	lastKey []byte
	offset  int64
	length  int
}

func newTableBuilder(f *vfs.File, h *host.Host, opts *Options) *tableBuilder {
	return &tableBuilder{f: f, h: h, opts: opts}
}

// add appends an entry; keys must arrive in ascending internal order.
func (b *tableBuilder) add(p *sim.Proc, key, value []byte, kind entryKind, seq uint64) error {
	var hdr [2*binary.MaxVarintLen32 + 1 + binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(key)))
	n += binary.PutUvarint(hdr[n:], uint64(len(value)))
	hdr[n] = byte(kind)
	n++
	n += binary.PutUvarint(hdr[n:], seq)
	b.blockBuf = append(b.blockBuf, hdr[:n]...)
	b.blockBuf = append(b.blockBuf, key...)
	b.blockBuf = append(b.blockBuf, value...)
	b.keys = append(b.keys, append([]byte(nil), key...))
	b.entries++
	b.entriesInBlock++
	if b.smallest == nil {
		b.smallest = append([]byte(nil), key...)
	}
	b.lastKey = append(b.lastKey[:0], key...)
	if len(b.blockBuf) >= b.opts.BlockBytes {
		return b.finishBlock(p)
	}
	return nil
}

func (b *tableBuilder) finishBlock(p *sim.Proc) error {
	if len(b.blockBuf) == 0 {
		return nil
	}
	b.h.BlockOp(p, 1)                   // block assembly + checksum CPU
	b.h.Compares(p, 4*b.entriesInBlock) // per-entry encode work
	b.entriesInBlock = 0
	b.index = append(b.index, indexEntry{
		lastKey: append([]byte(nil), b.lastKey...),
		offset:  b.offset,
		length:  len(b.blockBuf),
	})
	if err := b.f.Append(p, b.blockBuf); err != nil {
		return err
	}
	b.offset += int64(len(b.blockBuf))
	b.blockBuf = b.blockBuf[:0]
	return nil
}

// finish flushes remaining data, writes filter/index/footer, and syncs.
func (b *tableBuilder) finish(p *sim.Proc) (int64, error) {
	if err := b.finishBlock(p); err != nil {
		return 0, err
	}
	b.largest = append([]byte(nil), b.lastKey...)

	filter := newBloomFilter(b.keys, b.opts.BloomBitsPerKey).marshal()
	filterOff := b.offset
	if len(filter) > 0 {
		if err := b.f.Append(p, filter); err != nil {
			return 0, err
		}
		b.offset += int64(len(filter))
	}

	idx := b.marshalIndex()
	indexOff := b.offset
	if err := b.f.Append(p, idx); err != nil {
		return 0, err
	}
	b.offset += int64(len(idx))

	var footer [footerSize]byte
	binary.LittleEndian.PutUint64(footer[0:], uint64(filterOff))
	binary.LittleEndian.PutUint64(footer[8:], uint64(len(filter)))
	binary.LittleEndian.PutUint64(footer[16:], uint64(indexOff))
	binary.LittleEndian.PutUint64(footer[24:], uint64(len(idx)))
	binary.LittleEndian.PutUint64(footer[32:], uint64(b.entries))
	binary.LittleEndian.PutUint64(footer[40:], tableMagic)
	if err := b.f.Append(p, footer[:]); err != nil {
		return 0, err
	}
	b.offset += footerSize
	if err := b.f.Sync(p); err != nil {
		return 0, err
	}
	return b.offset, nil
}

func (b *tableBuilder) marshalIndex() []byte {
	var out []byte
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(b.index)))
	out = append(out, tmp[:]...)
	for _, e := range b.index {
		binary.LittleEndian.PutUint32(tmp[:], uint32(len(e.lastKey)))
		out = append(out, tmp[:]...)
		out = append(out, e.lastKey...)
		var off [8]byte
		binary.LittleEndian.PutUint64(off[:], uint64(e.offset))
		out = append(out, off[:]...)
		binary.LittleEndian.PutUint32(tmp[:], uint32(e.length))
		out = append(out, tmp[:]...)
	}
	return out
}

// tableReader serves point lookups and scans from one SSTable.
type tableReader struct {
	f       *vfs.File
	h       *host.Host
	meta    tableMeta
	index   []indexEntry
	filter  *bloomFilter
	cache   *blockCache
	entries int64
}

// openTable reads the footer, index, and filter (charged I/O).
func openTable(p *sim.Proc, f *vfs.File, h *host.Host, cache *blockCache, meta tableMeta) (*tableReader, error) {
	size := f.Size()
	if size < footerSize {
		return nil, errTableCorrupt
	}
	var footer [footerSize]byte
	if err := f.ReadAt(p, footer[:], size-footerSize); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint64(footer[40:]) != tableMagic {
		return nil, errTableCorrupt
	}
	filterOff := int64(binary.LittleEndian.Uint64(footer[0:]))
	filterLen := int64(binary.LittleEndian.Uint64(footer[8:]))
	indexOff := int64(binary.LittleEndian.Uint64(footer[16:]))
	indexLen := int64(binary.LittleEndian.Uint64(footer[24:]))
	entries := int64(binary.LittleEndian.Uint64(footer[32:]))

	r := &tableReader{f: f, h: h, meta: meta, cache: cache, entries: entries}
	if filterLen > 0 {
		fb := make([]byte, filterLen)
		if err := f.ReadAt(p, fb, filterOff); err != nil {
			return nil, err
		}
		r.filter = unmarshalBloom(fb)
	}
	ib := make([]byte, indexLen)
	if err := f.ReadAt(p, ib, indexOff); err != nil {
		return nil, err
	}
	if err := r.unmarshalIndex(ib); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *tableReader) unmarshalIndex(data []byte) error {
	d := codec.NewDecoder(data)
	r.index = make([]indexEntry, d.Fit(uint64(d.U32()), 4+8+4)) // key length, offset, length
	for i := range r.index {
		key := append([]byte(nil), d.Take(int(d.U32()))...)
		r.index[i] = indexEntry{lastKey: key, offset: int64(d.U64()), length: int(d.U32())}
	}
	if d.Done() != nil {
		return errTableCorrupt
	}
	return nil
}

// blockFor returns the index of the first block whose lastKey >= userKey,
// or len(index) when the key is past the table.
func (r *tableReader) blockFor(p *sim.Proc, userKey []byte) int {
	lo, hi := 0, len(r.index)
	steps := 0
	for lo < hi {
		mid := (lo + hi) / 2
		steps++
		if bytes.Compare(r.index[mid].lastKey, userKey) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	r.h.Compares(p, int64(steps))
	return lo
}

// readBlock fetches a data block through the block cache.
func (r *tableReader) readBlock(p *sim.Proc, i int) ([]byte, error) {
	if data, ok := r.cache.get(r.meta.fileNum, i); ok {
		return data, nil
	}
	e := r.index[i]
	data := make([]byte, e.length)
	if err := r.f.ReadAt(p, data, e.offset); err != nil {
		return nil, err
	}
	r.h.BlockOp(p, 1) // decode + checksum verify
	r.cache.put(r.meta.fileNum, i, data)
	return data, nil
}

// blockEntry is a decoded data-block entry (slices alias the block).
type blockEntry struct {
	key   []byte
	value []byte
	kind  entryKind
	seq   uint64
}

// decodeEntries parses a data block.
func decodeEntries(data []byte) ([]blockEntry, error) {
	var out []blockEntry
	d := codec.NewDecoder(data)
	for d.Len() > 0 {
		klen, vlen := d.Uvarint(), d.Uvarint()
		e := blockEntry{kind: entryKind(d.U8()), seq: d.Uvarint()}
		e.key = d.Take(int(klen))
		e.value = d.Take(int(vlen))
		out = append(out, e)
	}
	if d.Done() != nil {
		return nil, errTableCorrupt
	}
	return out, nil
}

// get returns the newest visible entry for userKey at snapshot.
// Returns (value, found, deleted, error).
func (r *tableReader) get(p *sim.Proc, userKey []byte, snapshot uint64) ([]byte, bool, bool, error) {
	if bytes.Compare(userKey, r.meta.smallest) < 0 || bytes.Compare(userKey, r.meta.largest) > 0 {
		return nil, false, false, nil
	}
	if !r.filter.mayContain(userKey) {
		r.h.Compares(p, 4) // filter probe CPU
		return nil, false, false, nil
	}
	bi := r.blockFor(p, userKey)
	for ; bi < len(r.index); bi++ {
		data, err := r.readBlock(p, bi)
		if err != nil {
			return nil, false, false, err
		}
		entries, err := decodeEntries(data)
		if err != nil {
			return nil, false, false, err
		}
		r.h.Compares(p, int64(len(entries))/4+1) // in-block scan CPU
		for _, e := range entries {
			c := bytes.Compare(e.key, userKey)
			if c < 0 {
				continue
			}
			if c > 0 {
				return nil, false, false, nil
			}
			if e.seq > snapshot {
				continue // too new for this snapshot
			}
			if e.kind == kindDelete {
				return nil, true, true, nil
			}
			return append([]byte(nil), e.value...), true, false, nil
		}
		// Key could continue into the next block only if it equals this
		// block's lastKey; the loop handles that naturally.
		if bytes.Compare(r.index[bi].lastKey, userKey) > 0 {
			return nil, false, false, nil
		}
	}
	return nil, false, false, nil
}

// tableIter iterates a table in internal-key order.
type tableIter struct {
	r       *tableReader
	p       *sim.Proc
	block   int
	entries []blockEntry
	pos     int
	err     error
}

func (r *tableReader) iterator(p *sim.Proc) *tableIter {
	return &tableIter{r: r, p: p, block: -1}
}

// prefetchBlocks pulls a run of data blocks starting at i into the block
// cache with one large file read (sequential-scan readahead): compactions
// and range scans stream tables without paying per-block media latency.
func (r *tableReader) prefetchBlocks(p *sim.Proc, i int) error {
	const runBlocks = 16
	end := i + runBlocks
	if end > len(r.index) {
		end = len(r.index)
	}
	// Trim the run at the first already-cached block.
	for j := i; j < end; j++ {
		if _, ok := r.cache.get(r.meta.fileNum, j); ok {
			end = j
			break
		}
	}
	if end <= i {
		return nil
	}
	start := r.index[i].offset
	last := r.index[end-1]
	span := last.offset + int64(last.length) - start
	buf := make([]byte, span)
	if err := r.f.ReadAt(p, buf, start); err != nil {
		return err
	}
	for j := i; j < end; j++ {
		e := r.index[j]
		blk := buf[e.offset-start : e.offset-start+int64(e.length)]
		r.cache.put(r.meta.fileNum, j, append([]byte(nil), blk...))
	}
	r.h.BlockOp(p, int64(end-i))
	return nil
}

func (it *tableIter) loadBlock(i int) bool {
	if i >= len(it.r.index) {
		it.entries = nil
		return false
	}
	if it.r.cache != nil {
		if _, ok := it.r.cache.get(it.r.meta.fileNum, i); !ok {
			if err := it.r.prefetchBlocks(it.p, i); err != nil {
				it.err = err
				it.entries = nil
				return false
			}
		}
	}
	data, err := it.r.readBlock(it.p, i)
	if err != nil {
		it.err = err
		it.entries = nil
		return false
	}
	entries, err := decodeEntries(data)
	if err != nil {
		it.err = err
		it.entries = nil
		return false
	}
	it.block = i
	it.entries = entries
	it.pos = 0
	return len(entries) > 0
}

// SeekToFirst positions at the table's first entry.
func (it *tableIter) SeekToFirst() {
	it.loadBlock(0)
}

// Seek positions at the first entry with user key >= target.
func (it *tableIter) Seek(target []byte) {
	bi := it.r.blockFor(it.p, target)
	if !it.loadBlock(bi) {
		return
	}
	for it.pos < len(it.entries) && bytes.Compare(it.entries[it.pos].key, target) < 0 {
		it.pos++
	}
	it.r.h.Compares(it.p, int64(it.pos+1))
	if it.pos >= len(it.entries) {
		it.loadBlock(it.block + 1)
	}
}

// Valid reports whether the iterator points at an entry.
func (it *tableIter) Valid() bool {
	return it.err == nil && it.entries != nil && it.pos < len(it.entries)
}

// Next advances one entry.
func (it *tableIter) Next() {
	it.pos++
	if it.pos >= len(it.entries) {
		it.loadBlock(it.block + 1)
	}
}

// Key returns the current user key.
func (it *tableIter) Key() []byte { return it.entries[it.pos].key }

// Value returns the current value.
func (it *tableIter) Value() []byte { return it.entries[it.pos].value }

// Kind returns the current entry kind.
func (it *tableIter) Kind() entryKind { return it.entries[it.pos].kind }

// Seq returns the current sequence number.
func (it *tableIter) Seq() uint64 { return it.entries[it.pos].seq }

// Err returns any I/O or decode error the iterator hit.
func (it *tableIter) Err() error { return it.err }
