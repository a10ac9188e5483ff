// Package rocks implements the software key-value store baseline the paper
// compares KV-CSD against: a leveled-compaction LSM-tree in the style of
// RocksDB/LevelDB, running on a host filesystem (internal/vfs) and host CPU
// cores (internal/host).
//
// The store has a skiplist memtable, a CRC-framed write-ahead log, 4 KiB
// block SSTables with bloom filters and index blocks, L0..Lmax leveled
// compaction executed by background worker processes, an LRU block cache
// ("aggressive client-side caching", Fig 10/12), and L0-trigger write
// slowdown/stall logic (the write stalls of paper §I). Compaction can run
// automatically, be deferred to an explicit call, or be disabled — the three
// RocksDB modes of Figure 9. The log and the MANIFEST are written and synced
// for what they cost the baseline, and never read back: a DB is created,
// never reopened.
package rocks

import "time"

// CompactionMode selects when compaction runs (Figure 9's three baselines).
type CompactionMode int

// Compaction modes.
const (
	// CompactionAuto compacts in the background as data is inserted
	// (RocksDB's default).
	CompactionAuto CompactionMode = iota
	// CompactionDeferred holds compaction until CompactAll is called.
	CompactionDeferred
	// CompactionDisabled never compacts.
	CompactionDisabled
)

// String names the mode.
func (m CompactionMode) String() string {
	switch m {
	case CompactionAuto:
		return "auto"
	case CompactionDeferred:
		return "deferred"
	case CompactionDisabled:
		return "disabled"
	default:
		return "unknown"
	}
}

// Options configures a DB instance.
type Options struct {
	// MemtableBytes is the write buffer size; a full memtable becomes
	// immutable and is flushed to an L0 table.
	MemtableBytes int64
	// BlockBytes is the SSTable data-block size.
	BlockBytes int
	// BloomBitsPerKey sizes per-table bloom filters (0 disables).
	BloomBitsPerKey int
	// BlockCacheBytes is the LRU block cache capacity (0 disables).
	BlockCacheBytes int64
	// Levels is the number of LSM levels including L0.
	Levels int
	// L0CompactionTrigger is the L0 file count that schedules compaction.
	L0CompactionTrigger int
	// L0SlowdownTrigger delays each write when L0 grows past it.
	L0SlowdownTrigger int
	// L0StopTrigger stalls writes entirely until L0 shrinks.
	L0StopTrigger int
	// BaseLevelBytes is the target size of L1; each level below is
	// LevelMultiplier times larger.
	BaseLevelBytes int64
	// LevelMultiplier is the size ratio between adjacent levels.
	LevelMultiplier int
	// TargetFileBytes is the max output SSTable size during compaction.
	TargetFileBytes int64
	// CompactionWorkers is the number of background compaction/flush
	// processes (RocksDB's default of 2 per instance, per the paper).
	CompactionWorkers int
	// CompactionMode selects auto / deferred / disabled.
	CompactionMode CompactionMode
	// SlowdownDelay is the per-write penalty in the slowdown regime.
	SlowdownDelay time.Duration
}

// DefaultOptions mirrors RocksDB-flavoured defaults scaled for simulation.
func DefaultOptions() Options {
	return Options{
		MemtableBytes:       4 << 20,
		BlockBytes:          4096,
		BloomBitsPerKey:     10,
		BlockCacheBytes:     32 << 20,
		Levels:              7,
		L0CompactionTrigger: 4,
		L0SlowdownTrigger:   20,
		L0StopTrigger:       36,
		BaseLevelBytes:      16 << 20,
		LevelMultiplier:     10,
		TargetFileBytes:     8 << 20,
		CompactionWorkers:   2,
		CompactionMode:      CompactionAuto,
		SlowdownDelay:       time.Millisecond,
	}
}

// sanitize fills zero fields with defaults.
func (o Options) sanitize() Options {
	d := DefaultOptions()
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = d.MemtableBytes
	}
	if o.BlockBytes <= 0 {
		o.BlockBytes = d.BlockBytes
	}
	if o.BlockCacheBytes < 0 {
		o.BlockCacheBytes = 0
	}
	if o.Levels <= 1 {
		o.Levels = d.Levels
	}
	if o.L0CompactionTrigger <= 0 {
		o.L0CompactionTrigger = d.L0CompactionTrigger
	}
	if o.L0SlowdownTrigger <= 0 {
		o.L0SlowdownTrigger = d.L0SlowdownTrigger
	}
	if o.L0StopTrigger <= 0 {
		o.L0StopTrigger = d.L0StopTrigger
	}
	if o.BaseLevelBytes <= 0 {
		o.BaseLevelBytes = d.BaseLevelBytes
	}
	if o.LevelMultiplier <= 1 {
		o.LevelMultiplier = d.LevelMultiplier
	}
	if o.TargetFileBytes <= 0 {
		o.TargetFileBytes = d.TargetFileBytes
	}
	if o.CompactionWorkers <= 0 {
		o.CompactionWorkers = d.CompactionWorkers
	}
	if o.SlowdownDelay <= 0 {
		o.SlowdownDelay = d.SlowdownDelay
	}
	return o
}
