// Package vfs models the host filesystem under the software key-value store
// baseline — the layer whose overhead motivates KV-CSD (paper §II, "Host
// Software Overhead").
//
// It is an ext4-flavoured filesystem over the SSD's conventional block
// namespace: append-oriented files mapped to 4 KiB blocks, an LRU page cache,
// journaled fsync, and per-call kernel-crossing CPU costs. Reads always move
// whole blocks from media even when the caller wants a few dozen bytes —
// the read inflation Figure 10b measures. DropCaches models the paper's
// "we clean OS page cache at the beginning of each run".
package vfs

import (
	"container/list"
	"errors"
	"fmt"

	"kvcsd/internal/host"
	"kvcsd/internal/sim"
	"kvcsd/internal/ssd"
	"kvcsd/internal/stats"
)

// Errors returned by filesystem operations.
var (
	ErrNotExist = errors.New("vfs: file does not exist")
	ErrExist    = errors.New("vfs: file already exists")
	ErrNoSpace  = errors.New("vfs: out of space")
	ErrClosed   = errors.New("vfs: file closed")
	ErrBounds   = errors.New("vfs: read beyond end of file")
)

// Config tunes the filesystem model.
type Config struct {
	PageCacheBytes     int64 // page cache capacity
	JournalBlocksPerTx int   // journal blocks written per fsync
	WritebackBytes     int64 // dirty bytes per file before synchronous writeback
}

// DefaultConfig returns production-ish defaults: 1 GiB page cache, 2 journal
// blocks per transaction, 1 MiB writeback granularity.
func DefaultConfig() Config {
	return Config{
		PageCacheBytes:     1 << 30,
		JournalBlocksPerTx: 2,
		WritebackBytes:     1 << 20,
	}
}

// FS is the simulated filesystem.
type FS struct {
	cfg    Config
	dev    *ssd.Device
	h      *host.Host
	st     *stats.IOStats
	bs     int
	files  map[string]*inode
	inoSeq int64

	// Block allocation: journal region first, then data blocks.
	journalLBAs int64
	journalPtr  int64
	nextLBA     int64
	freeLBAs    []int64

	cache *pageCache
}

type inode struct {
	id     int64
	blocks []int64 // allocated LBAs, in file order
	size   int64   // durable + buffered size
	synced int64   // bytes known flushed to device
	// dirty holds appended-but-unflushed bytes (the page-cache dirty tail).
	dirty []byte
	nlink int
	// lock serializes mutation (Append/Sync can yield mid-writeback while
	// other simulation processes write the same file, e.g. a shared WAL).
	lock *sim.Resource
}

// lockFor lazily creates and acquires the inode write lock.
func (ino *inode) lockFor(p *sim.Proc) {
	if ino.lock == nil {
		ino.lock = sim.NewResource(p.Env(), "inode-lock", 1)
	}
	p.Acquire(ino.lock)
}

// New creates a filesystem on the device's conventional namespace.
func New(dev *ssd.Device, h *host.Host, cfg Config, st *stats.IOStats) *FS {
	bs := dev.Config().BlockSize
	journal := int64(256) // reserved journal region
	return &FS{
		cfg:         cfg,
		dev:         dev,
		h:           h,
		st:          st,
		bs:          bs,
		files:       make(map[string]*inode),
		journalLBAs: journal,
		nextLBA:     journal,
		cache:       newPageCache(cfg.PageCacheBytes, bs),
	}
}

// BlockSize returns the filesystem block size.
func (fs *FS) BlockSize() int { return fs.bs }

// Stats returns the stats block the filesystem records into.
func (fs *FS) Stats() *stats.IOStats { return fs.st }

// DropCaches empties the page cache (echoing /proc/sys/vm/drop_caches).
func (fs *FS) DropCaches() { fs.cache.clear() }

// CacheBytes returns the bytes currently held in the page cache.
func (fs *FS) CacheBytes() int64 { return fs.cache.used }

func (fs *FS) allocBlock() (int64, error) {
	if n := len(fs.freeLBAs); n > 0 {
		lba := fs.freeLBAs[n-1]
		fs.freeLBAs = fs.freeLBAs[:n-1]
		return lba, nil
	}
	if fs.nextLBA >= fs.dev.Config().ConvBlocks {
		return 0, ErrNoSpace
	}
	lba := fs.nextLBA
	fs.nextLBA++
	return lba, nil
}

// Create creates a new empty file open for appending.
func (fs *FS) Create(p *sim.Proc, name string) (*File, error) {
	fs.h.Syscall(p)
	if _, ok := fs.files[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExist, name)
	}
	fs.inoSeq++
	ino := &inode{id: fs.inoSeq, nlink: 1}
	fs.files[name] = ino
	return &File{fs: fs, ino: ino, name: name}, nil
}

// Open opens an existing file.
func (fs *FS) Open(p *sim.Proc, name string) (*File, error) {
	fs.h.Syscall(p)
	ino, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return &File{fs: fs, ino: ino, name: name}, nil
}

// Exists reports whether a file is present.
func (fs *FS) Exists(name string) bool {
	_, ok := fs.files[name]
	return ok
}

// Size returns a file's size without opening it.
func (fs *FS) Size(name string) (int64, error) {
	ino, ok := fs.files[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return ino.size, nil
}

// Remove deletes a file, trimming its blocks back to the device.
func (fs *FS) Remove(p *sim.Proc, name string) error {
	fs.h.Syscall(p)
	ino, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	delete(fs.files, name)
	ino.nlink = 0
	for _, lba := range ino.blocks {
		_ = fs.dev.TrimBlock(p, lba)
		fs.freeLBAs = append(fs.freeLBAs, lba)
		fs.cache.invalidate(ino.id, lba)
	}
	ino.blocks = nil
	ino.dirty = nil
	return nil
}

// Rename atomically renames a file, replacing any existing target (POSIX
// rename semantics, used for MANIFEST/CURRENT swaps).
func (fs *FS) Rename(p *sim.Proc, from, to string) error {
	fs.h.Syscall(p)
	ino, ok := fs.files[from]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, from)
	}
	if old, ok := fs.files[to]; ok && old != ino {
		// Drop the replaced file's blocks.
		for _, lba := range old.blocks {
			_ = fs.dev.TrimBlock(p, lba)
			fs.freeLBAs = append(fs.freeLBAs, lba)
			fs.cache.invalidate(old.id, lba)
		}
	}
	delete(fs.files, from)
	fs.files[to] = ino
	return nil
}

// TotalBytes returns the sum of all file sizes.
func (fs *FS) TotalBytes() int64 {
	var n int64
	for _, ino := range fs.files {
		n += ino.size
	}
	return n
}

// File is an open file handle supporting append and positional reads.
type File struct {
	fs     *FS
	ino    *inode
	name   string
	closed bool
}

// Name returns the file's name.
func (f *File) Name() string { return f.name }

// Size returns the current file size including unflushed appends.
func (f *File) Size() int64 { return f.ino.size }

// Append writes data at the end of the file. Data lands in the dirty page
// tail; full blocks are written back once WritebackBytes accumulate.
func (f *File) Append(p *sim.Proc, data []byte) error {
	if f.closed {
		return ErrClosed
	}
	fs := f.fs
	fs.h.Syscall(p)
	f.ino.lockFor(p)
	defer p.Release(f.ino.lock)
	fs.h.Copy(p, int64(len(data))) // user->page-cache copy
	f.ino.dirty = append(f.ino.dirty, data...)
	f.ino.size += int64(len(data))
	fs.st.FSWrites.Add(1)
	if int64(len(f.ino.dirty)) >= fs.cfg.WritebackBytes {
		return f.writeback(p, false)
	}
	return nil
}

// writeback flushes dirty bytes to the device. Unless final, a partial tail
// block stays dirty so later appends don't force read-modify-write.
func (f *File) writeback(p *sim.Proc, final bool) error {
	fs := f.fs
	ino := f.ino
	full := len(ino.dirty) / fs.bs
	n := full * fs.bs
	if final {
		n = len(ino.dirty)
	}
	if n == 0 {
		return nil
	}
	// Gather the dirty blocks and submit contiguous-LBA runs as single
	// parallel requests (kernel writeback coalescing).
	var lbas []int64
	var blocks [][]byte
	for off := 0; off < n; off += fs.bs {
		end := off + fs.bs
		if end > len(ino.dirty) {
			end = len(ino.dirty)
		}
		lba, err := fs.allocBlock()
		if err != nil {
			return err
		}
		blk := make([]byte, fs.bs)
		copy(blk, ino.dirty[off:end])
		lbas = append(lbas, lba)
		blocks = append(blocks, blk)
	}
	for i := 0; i < len(lbas); {
		j := i + 1
		for j < len(lbas) && lbas[j] == lbas[j-1]+1 {
			j++
		}
		if err := fs.dev.WriteBlockRun(p, lbas[i], blocks[i:j]); err != nil {
			return fmt.Errorf("vfs: writeback %s: %w", f.name, err)
		}
		i = j
	}
	for i, lba := range lbas {
		ino.blocks = append(ino.blocks, lba)
		fs.cache.put(ino.id, lba, blocks[i])
	}
	ino.synced += int64(n)
	ino.dirty = ino.dirty[n:]
	if final && len(ino.dirty) == 0 {
		ino.dirty = nil
	}
	return nil
}

// Sync flushes all dirty data and journals the metadata transaction — the
// fsync path with its commit-record writes.
func (f *File) Sync(p *sim.Proc) error {
	if f.closed {
		return ErrClosed
	}
	fs := f.fs
	fs.h.Syscall(p)
	f.ino.lockFor(p)
	defer p.Release(f.ino.lock)
	if err := f.writeback(p, true); err != nil {
		return err
	}
	// Journal commit: JournalBlocksPerTx block writes into the journal region.
	blk := make([]byte, fs.bs)
	for i := 0; i < fs.cfg.JournalBlocksPerTx; i++ {
		lba := fs.journalPtr % fs.journalLBAs
		fs.journalPtr++
		if err := fs.dev.WriteBlock(p, lba, blk); err != nil {
			return fmt.Errorf("vfs: journal: %w", err)
		}
	}
	return nil
}

// ReadAt reads len(buf) bytes at offset off. Reads traverse the page cache;
// misses fetch whole blocks from the device (read inflation). Reads of bytes
// still in the dirty tail are served from memory.
func (f *File) ReadAt(p *sim.Proc, buf []byte, off int64) error {
	if f.closed {
		return ErrClosed
	}
	fs := f.fs
	ino := f.ino
	// Snapshot the mutable state once: concurrent appends/writebacks only
	// grow the file, and flushed blocks are immutable, so reads against a
	// consistent prefix snapshot stay correct without taking the write lock.
	synced := ino.synced
	dirty := ino.dirty
	size := synced + int64(len(dirty))
	if off < 0 || off+int64(len(buf)) > size {
		return ErrBounds
	}
	fs.h.Syscall(p)
	fs.st.FSReads.Add(1)
	n := 0
	for n < len(buf) {
		pos := off + int64(n)
		if pos >= synced {
			// Dirty-tail hit: straight memory copy.
			c := copy(buf[n:], dirty[pos-synced:])
			fs.h.Copy(p, int64(c))
			fs.st.CacheHits.Add(1)
			n += c
			continue
		}
		blkIdx := pos / int64(fs.bs)
		blkOff := int(pos % int64(fs.bs))
		lba := ino.blocks[blkIdx]
		data, hit := fs.cache.get(ino.id, lba)
		if hit {
			fs.st.CacheHits.Add(1)
		} else {
			fs.st.CacheMisses.Add(1)
			// Readahead: fetch up to the rest of the requested range (and
			// at least one block) in contiguous-LBA runs, one parallel
			// request per run.
			lastBlk := (off + int64(len(buf)) - 1) / int64(fs.bs)
			if max := synced - 1; lastBlk > max/int64(fs.bs) {
				lastBlk = max / int64(fs.bs)
			}
			runLen := 1
			for blkIdx+int64(runLen) <= lastBlk &&
				ino.blocks[blkIdx+int64(runLen)] == lba+int64(runLen) &&
				runLen < 32 {
				if _, cached := fs.cache.get(ino.id, lba+int64(runLen)); cached {
					break
				}
				runLen++
			}
			run, err := fs.dev.ReadBlockRun(p, lba, runLen)
			if err != nil {
				return fmt.Errorf("vfs: read %s: %w", f.name, err)
			}
			for i, blk := range run {
				fs.cache.put(ino.id, lba+int64(i), blk)
			}
			data = run[0]
		}
		avail := fs.bs - blkOff
		// Clamp to synced bytes within this block.
		if lim := synced - pos; int64(avail) > lim {
			avail = int(lim)
		}
		c := copy(buf[n:], data[blkOff:blkOff+avail])
		fs.h.Copy(p, int64(c))
		n += c
	}
	return nil
}

// Close flushes nothing (like POSIX close) and invalidates the handle.
func (f *File) Close() error {
	f.closed = true
	return nil
}

// ---------------------------------------------------------------------------
// Page cache: LRU over (inode, lba) -> block bytes.

type cacheKey struct {
	ino int64
	lba int64
}

type cacheEntry struct {
	key  cacheKey
	data []byte
}

type pageCache struct {
	capacity int64
	used     int64
	bs       int
	ll       *list.List
	idx      map[cacheKey]*list.Element
}

func newPageCache(capacity int64, bs int) *pageCache {
	return &pageCache{capacity: capacity, bs: bs, ll: list.New(), idx: make(map[cacheKey]*list.Element)}
}

func (c *pageCache) get(ino, lba int64) ([]byte, bool) {
	if el, ok := c.idx[cacheKey{ino, lba}]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).data, true
	}
	return nil, false
}

func (c *pageCache) put(ino, lba int64, data []byte) {
	key := cacheKey{ino, lba}
	if el, ok := c.idx[key]; ok {
		el.Value.(*cacheEntry).data = data
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&cacheEntry{key: key, data: data})
	c.idx[key] = el
	c.used += int64(len(data))
	for c.used > c.capacity && c.ll.Len() > 0 {
		back := c.ll.Back()
		ent := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.idx, ent.key)
		c.used -= int64(len(ent.data))
	}
}

func (c *pageCache) invalidate(ino, lba int64) {
	if el, ok := c.idx[cacheKey{ino, lba}]; ok {
		ent := el.Value.(*cacheEntry)
		c.ll.Remove(el)
		delete(c.idx, ent.key)
		c.used -= int64(len(ent.data))
	}
}

func (c *pageCache) clear() {
	c.ll.Init()
	c.idx = make(map[cacheKey]*list.Element)
	c.used = 0
}
