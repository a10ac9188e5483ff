package rocks

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"kvcsd/internal/host"
	"kvcsd/internal/sim"
	"kvcsd/internal/stats"
	"kvcsd/internal/vfs"
)

// Errors returned by DB operations.
var (
	ErrClosed     = errors.New("rocks: db closed")
	ErrBackground = errors.New("rocks: background error")
)

// Metrics exposes per-DB background activity for the I/O-statistics figures.
type Metrics struct {
	Flushes           int64
	Compactions       int64
	FlushBytes        int64
	CompactReadBytes  int64
	CompactWriteBytes int64
	StallTime         time.Duration
	SlowdownTime      time.Duration
}

// DB is one software key-value store instance (one "RocksDB instance" of the
// paper's experiments). All methods must be called from simulation processes.
type DB struct {
	env  *sim.Env
	h    *host.Host
	fs   *vfs.FS
	st   *stats.IOStats
	opts Options
	name string
	rng  *sim.RNG

	mem     *memtable
	imms    []*memtable
	wal     *walWriter
	walName string
	walSeq  uint64
	seq     uint64

	nextFileNum uint64
	levels      *levels
	cache       *blockCache
	compactPtr  []int

	closed            bool
	bgErr             error
	pendingFlush      []*compactionJob
	runningJobs       int
	compactionRunning bool
	activeIters       int
	obsolete          []uint64

	workWaiters  []*sim.Proc
	condWaiters  []*sim.Proc
	stallWaiters []*sim.Proc
	workersDone  []*sim.Event
	manifestLock *sim.Resource
	manifestSeq  uint64

	metrics Metrics
}

// Open creates or reopens a DB named name on the given filesystem. Existing
// state (MANIFEST, WALs) is recovered. Must run inside a simulation process.
func Open(p *sim.Proc, h *host.Host, fsys *vfs.FS, rng *sim.RNG, name string, opts Options) (*DB, error) {
	opts = opts.sanitize()
	db := &DB{
		env:         p.Env(),
		h:           h,
		fs:          fsys,
		st:          fsys.Stats(),
		opts:        opts,
		name:        name,
		rng:         rng,
		nextFileNum: 1,
		cache:       newBlockCache(opts.BlockCacheBytes),
		compactPtr:  make([]int, opts.Levels),
	}
	db.manifestLock = sim.NewResource(p.Env(), name+"-manifest", 1)
	db.levels = newLevels(opts.Levels)
	db.mem = newMemtable(rng.Fork(1))
	if _, err := db.loadManifest(p); err != nil {
		return nil, err
	}
	if err := db.recoverWALs(p); err != nil {
		return nil, err
	}
	if err := db.rotateWAL(p); err != nil {
		return nil, err
	}
	for i := 0; i < opts.CompactionWorkers; i++ {
		w := db.env.Go(fmt.Sprintf("%s-bg%d", name, i), db.worker)
		db.workersDone = append(db.workersDone, w.Done())
	}
	return db, nil
}

func (db *DB) fileName(n uint64) string { return db.name + "/" + tableFileName(n) }

func (db *DB) walFileName(n uint64) string { return fmt.Sprintf("%s/wal-%06d.log", db.name, n) }

// recoverWALs replays surviving log files (oldest first) into the memtable.
func (db *DB) recoverWALs(p *sim.Proc) error {
	prefix := db.name + "/wal-"
	var logs []string
	for _, f := range db.fs.List() {
		if strings.HasPrefix(f, prefix) {
			logs = append(logs, f)
		}
	}
	sort.Strings(logs)
	for _, lg := range logs {
		f, err := db.fs.Open(p, lg)
		if err != nil {
			return err
		}
		recs, err := replayWAL(p, f)
		if err != nil {
			return err
		}
		for _, r := range recs {
			db.mem.add(r.key, r.value, r.kind, r.seq)
			if r.seq > db.seq {
				db.seq = r.seq
			}
		}
	}
	// Persist replayed data as an L0 table before removing logs, so a crash
	// during or right after recovery loses nothing.
	if len(logs) > 0 && !db.mem.empty() {
		t, err := db.buildTable(p, db.mem.iterator(), 0, false)
		if err != nil {
			return err
		}
		db.levels.addL0(t)
		db.mem = newMemtable(db.rng.Fork(int64(db.seq) + 7))
		if err := db.saveManifest(p); err != nil {
			return err
		}
	}
	for _, lg := range logs {
		if err := db.fs.Remove(p, lg); err != nil {
			return err
		}
	}
	return nil
}

// rotateWAL starts a fresh log file for the current memtable.
func (db *DB) rotateWAL(p *sim.Proc) error {
	db.walSeq++
	name := db.walFileName(db.walSeq)
	f, err := db.fs.Create(p, name)
	if err != nil {
		return err
	}
	db.wal = newWALWriter(f)
	db.walName = name
	return nil
}

// --- Background machinery ----------------------------------------------

func (db *DB) wakeAll(list *[]*sim.Proc) {
	for _, w := range *list {
		db.env.Wake(w)
	}
	*list = (*list)[:0]
}

func (db *DB) signalWork() { db.wakeAll(&db.workWaiters) }

// broadcast wakes condition and stall waiters so they re-check predicates.
func (db *DB) broadcast() {
	db.wakeAll(&db.condWaiters)
	db.wakeAll(&db.stallWaiters)
}

// needsCompaction reports (side-effect free) whether auto compaction has work.
func (db *DB) needsCompaction() bool {
	if len(db.levels.files[0]) >= db.opts.L0CompactionTrigger {
		return true
	}
	for level := 1; level < db.opts.Levels-1; level++ {
		if db.levels.levelBytes(level) > db.levelTargetBytes(level) && len(db.levels.files[level]) > 0 {
			return true
		}
	}
	return false
}

func (db *DB) nextJob() *compactionJob {
	if db.bgErr != nil {
		return nil
	}
	if len(db.pendingFlush) > 0 {
		job := db.pendingFlush[0]
		db.pendingFlush = db.pendingFlush[1:]
		return job
	}
	if db.opts.CompactionMode == CompactionAuto && !db.compactionRunning && db.needsCompaction() {
		if job := db.pickCompaction(); job != nil {
			db.compactionRunning = true
			return job
		}
	}
	return nil
}

func (db *DB) worker(p *sim.Proc) {
	for {
		job := db.nextJob()
		if job == nil {
			if db.closed {
				return
			}
			db.workWaiters = append(db.workWaiters, p)
			p.Block()
			continue
		}
		db.runningJobs++
		var err error
		if job.flush != nil {
			err = db.runFlush(p, job)
		} else {
			err = db.runCompaction(p, job)
			db.compactionRunning = false
		}
		if err != nil && db.bgErr == nil {
			db.bgErr = err
		}
		db.runningJobs--
		db.signalWork()
		db.broadcast()
	}
}

// waitCond parks the process until cond() holds; background job completions
// re-check it.
func (db *DB) waitCond(p *sim.Proc, cond func() bool) {
	for !cond() {
		db.condWaiters = append(db.condWaiters, p)
		p.Block()
	}
}

// --- Write path ---------------------------------------------------------

// maybeStall applies the L0 slowdown/stop backpressure of a leveled LSM.
func (db *DB) maybeStall(p *sim.Proc) {
	if db.opts.CompactionMode != CompactionAuto {
		return
	}
	for len(db.levels.files[0]) >= db.opts.L0StopTrigger && db.bgErr == nil {
		t0 := p.Now()
		db.stallWaiters = append(db.stallWaiters, p)
		p.Block()
		db.metrics.StallTime += time.Duration(p.Now() - t0)
	}
	if len(db.levels.files[0]) >= db.opts.L0SlowdownTrigger {
		p.Sleep(db.opts.SlowdownDelay)
		db.metrics.SlowdownTime += db.opts.SlowdownDelay
	}
}

func (db *DB) write(p *sim.Proc, key, value []byte, kind entryKind) error {
	if db.closed {
		return ErrClosed
	}
	if db.bgErr != nil {
		return fmt.Errorf("%w: %v", ErrBackground, db.bgErr)
	}
	db.maybeStall(p)
	db.seq++
	if err := db.wal.append(p, kind, db.seq, key, value); err != nil {
		return err
	}
	db.mem.add(key, value, kind, db.seq)
	db.h.KVOp(p, 1)
	if db.mem.approximateBytes() >= db.opts.MemtableBytes {
		return db.rotateMemtable(p)
	}
	return nil
}

// rotateMemtable freezes the active memtable and queues its flush.
func (db *DB) rotateMemtable(p *sim.Proc) error {
	if db.mem.empty() {
		return nil
	}
	frozen := db.mem
	walName := db.walName
	db.imms = append(db.imms, frozen)
	db.mem = newMemtable(db.rng.Fork(int64(db.seq)))
	if err := db.rotateWAL(p); err != nil {
		return err
	}
	db.pendingFlush = append(db.pendingFlush, &compactionJob{flush: frozen, flushWAL: walName})
	db.signalWork()
	return nil
}

// Put stores a key-value pair.
func (db *DB) Put(p *sim.Proc, key, value []byte) error {
	db.st.Puts.Add(1)
	db.st.AppWrite.Add(int64(len(key) + len(value)))
	return db.write(p, key, value, kindValue)
}

// Delete removes a key (writes a tombstone).
func (db *DB) Delete(p *sim.Proc, key []byte) error {
	db.st.Deletes.Add(1)
	return db.write(p, key, nil, kindDelete)
}

// --- Read path ----------------------------------------------------------

// Get returns the value for key, or found=false.
func (db *DB) Get(p *sim.Proc, key []byte) ([]byte, bool, error) {
	if db.closed {
		return nil, false, ErrClosed
	}
	db.st.Gets.Add(1)
	snapshot := db.seq
	db.h.KVOp(p, 1)
	if v, found, del := db.mem.get(key, snapshot); found {
		db.recordAppRead(v, del)
		return v, !del, nil
	}
	for i := len(db.imms) - 1; i >= 0; i-- {
		if v, found, del := db.imms[i].get(key, snapshot); found {
			db.recordAppRead(v, del)
			return v, !del, nil
		}
	}
	// L0: newest first, ranges overlap.
	for _, t := range db.levels.files[0] {
		r, err := t.open(p, db)
		if err != nil {
			return nil, false, err
		}
		v, found, del, err := r.get(p, key, snapshot)
		if err != nil {
			return nil, false, err
		}
		if found {
			db.recordAppRead(v, del)
			return v, !del, nil
		}
	}
	for level := 1; level < db.opts.Levels; level++ {
		t := db.levels.candidateForKey(level, key)
		if t == nil {
			continue
		}
		r, err := t.open(p, db)
		if err != nil {
			return nil, false, err
		}
		v, found, del, err := r.get(p, key, snapshot)
		if err != nil {
			return nil, false, err
		}
		if found {
			db.recordAppRead(v, del)
			return v, !del, nil
		}
	}
	return nil, false, nil
}

func (db *DB) recordAppRead(v []byte, del bool) {
	if !del {
		db.st.AppRead.Add(int64(len(v)))
	}
}

// Scan streams live entries with lo <= key < hi (nil bounds are open) to fn
// in key order until fn returns false or limit entries are emitted (0 = no
// limit). Returns the number of entries emitted.
func (db *DB) Scan(p *sim.Proc, lo, hi []byte, limit int, fn func(key, value []byte) bool) (int, error) {
	if db.closed {
		return 0, ErrClosed
	}
	db.st.Scans.Add(1)
	snapshot := db.seq
	var iters []internalIterator
	iters = append(iters, db.mem.iterator())
	for i := len(db.imms) - 1; i >= 0; i-- {
		iters = append(iters, db.imms[i].iterator())
	}
	db.activeIters++
	defer func() {
		db.activeIters--
		db.deleteObsolete(p)
	}()
	for _, t := range db.levels.files[0] {
		r, err := t.open(p, db)
		if err != nil {
			return 0, err
		}
		iters = append(iters, r.iterator(p))
	}
	for level := 1; level < db.opts.Levels; level++ {
		for _, t := range db.levels.files[level] {
			if hi != nil && bytes.Compare(t.meta.smallest, hi) >= 0 {
				continue
			}
			if lo != nil && bytes.Compare(t.meta.largest, lo) < 0 {
				continue
			}
			r, err := t.open(p, db)
			if err != nil {
				return 0, err
			}
			iters = append(iters, r.iterator(p))
		}
	}
	merged := newMergingIter(iters...)
	if lo != nil {
		merged.Seek(lo)
	} else {
		merged.SeekToFirst()
	}
	var lastKey []byte
	emitted := 0
	for merged.Valid() {
		key := merged.Key()
		if hi != nil && bytes.Compare(key, hi) >= 0 {
			break
		}
		db.h.Compares(p, 2)
		if merged.Seq() > snapshot {
			merged.Next()
			continue
		}
		if lastKey != nil && bytes.Equal(key, lastKey) {
			merged.Next()
			continue
		}
		lastKey = append(lastKey[:0], key...)
		if merged.Kind() != kindDelete {
			db.st.AppRead.Add(int64(len(merged.Value())))
			if !fn(append([]byte(nil), key...), append([]byte(nil), merged.Value()...)) {
				break
			}
			emitted++
			if limit > 0 && emitted >= limit {
				break
			}
		}
		merged.Next()
	}
	return emitted, nil
}

// --- Maintenance --------------------------------------------------------

// Flush freezes the memtable and waits until all immutables have landed in L0.
func (db *DB) Flush(p *sim.Proc) error {
	if db.closed {
		return ErrClosed
	}
	if err := db.rotateMemtable(p); err != nil {
		return err
	}
	db.waitCond(p, func() bool {
		return (len(db.imms) == 0 && len(db.pendingFlush) == 0 && !db.flushRunning()) || db.bgErr != nil
	})
	return db.bgErr
}

func (db *DB) flushRunning() bool {
	// runningJobs counts flushes and compactions together; for Flush we wait
	// for the whole queue to drain, which is a superset and always safe.
	return db.runningJobs > 0
}

// CompactAll performs the paper's "deferred compaction" — a single-pass merge
// of the entire store into the bottom level, run on the caller's thread.
func (db *DB) CompactAll(p *sim.Proc) error {
	if err := db.Flush(p); err != nil {
		return err
	}
	db.waitCond(p, func() bool { return db.runningJobs == 0 || db.bgErr != nil })
	if db.bgErr != nil {
		return db.bgErr
	}
	var inputs []*tableHandle
	for _, fs := range db.levels.files {
		inputs = append(inputs, fs...)
	}
	if len(inputs) <= 1 {
		return nil
	}
	job := &compactionJob{inputs: inputs, output: db.opts.Levels - 1, everything: true}
	db.runningJobs++
	db.compactionRunning = true
	err := db.runCompaction(p, job)
	db.compactionRunning = false
	db.runningJobs--
	db.broadcast()
	return err
}

// WaitBackgroundIdle blocks until no flush or compaction work remains —
// the paper's "wait until all compaction work concludes before exiting".
func (db *DB) WaitBackgroundIdle(p *sim.Proc) error {
	db.waitCond(p, func() bool {
		if db.bgErr != nil {
			return true
		}
		if len(db.imms) > 0 || len(db.pendingFlush) > 0 || db.runningJobs > 0 {
			return false
		}
		return db.opts.CompactionMode != CompactionAuto || !db.needsCompaction()
	})
	return db.bgErr
}

// Close flushes the WAL, stops workers, and marks the DB unusable.
func (db *DB) Close(p *sim.Proc) error {
	if db.closed {
		return ErrClosed
	}
	if err := db.wal.sync(p); err != nil {
		return err
	}
	db.closed = true
	db.signalWork()
	for _, done := range db.workersDone {
		p.Wait(done)
	}
	return db.saveManifest(p)
}

// --- Introspection ------------------------------------------------------

// Metrics returns background-activity counters.
func (db *DB) Metrics() Metrics { return db.metrics }

// L0Files returns the current L0 table count.
func (db *DB) L0Files() int { return len(db.levels.files[0]) }

// LevelTableCounts returns the table count per level.
func (db *DB) LevelTableCounts() []int {
	out := make([]int, len(db.levels.files))
	for i, fs := range db.levels.files {
		out[i] = len(fs)
	}
	return out
}

// TotalTables returns the number of live tables.
func (db *DB) TotalTables() int { return db.levels.totalTables() }

// Seq returns the last assigned sequence number.
func (db *DB) Seq() uint64 { return db.seq }

// CacheHitStats returns block-cache hits and misses.
func (db *DB) CacheHitStats() (hits, misses int64) {
	if db.cache == nil {
		return 0, 0
	}
	return db.cache.hits, db.cache.misses
}

// DropBlockCache empties the DB block cache (test/bench hygiene).
func (db *DB) DropBlockCache() { db.cache.clear() }

// BackgroundErr returns any error a background job hit.
func (db *DB) BackgroundErr() error { return db.bgErr }

// Options returns the (sanitized) options in use.
func (db *DB) Options() Options { return db.opts }
