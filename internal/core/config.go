// Package core implements the KV-CSD device-side key-value store — the
// paper's primary contribution (§IV-V). It runs on the SoC inside the device:
//
//   - a keyspace manager tracking application keyspaces through the
//     EMPTY -> WRITABLE -> COMPACTING -> COMPACTED lifecycle, with metadata
//     persisted to a dedicated metadata zone;
//   - a zone manager that allocates ZNS zones in clusters and stripes writes
//     across them with a per-cluster random offset to spread load over SSD
//     channels;
//   - an ingest path that buffers incoming pairs in SoC DRAM (192 KiB) and
//     appends keys and values to separate KLOG / VLOG zone clusters
//     (key-value separation);
//   - deferred compaction: a bounded-DRAM external merge sort that first
//     sorts keys, then sorts values by destination, producing PIDX and
//     SORTED_VALUES clusters plus an in-memory sketch (one pivot key per
//     4 KiB block);
//   - secondary index construction over application-declared value byte
//     ranges, producing SIDX clusters with their own sketches; and
//   - a query engine answering point and range queries over primary and
//     secondary keys entirely inside the device.
package core

import (
	"time"

	"kvcsd/internal/compaction"
)

// metadataZones is the number of zones, the first of the namespace, reserved
// for keyspace metadata.
const metadataZones = 2

// quarantineThreshold is how many corruption detections a zone absorbs before
// it is quarantined and its cluster rebuilt onto a fresh zone.
const quarantineThreshold = 3

// Config sizes the device engine. Defaults follow the paper's prototype
// where stated (192 KiB ingest buffer) and use scaled-down values elsewhere.
type Config struct {
	// IngestBufferBytes is the SoC DRAM buffer per writable keyspace; a full
	// buffer flushes to the keyspace's KLOG/VLOG clusters (paper: 192 KiB).
	IngestBufferBytes int
	// BlockBytes is the data block size for PIDX/SIDX/SORTED_VALUES (4 KiB).
	BlockBytes int
	// StripeWidth is the number of zones per cluster stripe (parallel I/O).
	StripeWidth int
	// SortBudgetBytes bounds DRAM used by one external sort.
	SortBudgetBytes int
	// MergeFanin caps the number of runs merged per pass.
	MergeFanin int
	// DRAMBytes is the total SoC DRAM (budget enforcement; paper: 8 GiB).
	DRAMBytes int64
	// IndexCacheBytes is the one SoC-DRAM budget of the index cache: PIDX/SIDX
	// blocks charged their raw bytes, and the PIDX records point lookups
	// found in evicted blocks, each charged its on-media bytes (header +
	// key). Blocks are evicted before records (KV-CSD caches no application
	// data; this mirrors the baseline pinning its SSTable index blocks).
	// Compactions and index builds admit the blocks they just wrote into
	// whatever budget is free, never evicting for them, and those blocks are
	// evicted first.
	IndexCacheBytes int64
	// MaxKeyLen and MaxValueLen bound record sizes.
	MaxKeyLen   int
	MaxValueLen int
	// DisableKVSeparation stores whole pairs in the KLOG instead of
	// splitting keys and values (ablation: the paper argues separation
	// "reduc[es] overall subsequent keyspace compaction overhead" because
	// values then move through the merge rounds too).
	DisableKVSeparation bool
	// DisableVerify turns off granule checksum verification on the read path
	// (negative control: injected rot then flows to callers as wrong bytes).
	// Checksums are still recorded so verification can judge after the fact.
	DisableVerify bool
	// ScrubInterval is the virtual-time period of the background media
	// scrubber; zero disables it. Scrub reads and SoC CPU contend with
	// foreground work like compaction does.
	ScrubInterval time.Duration
	// Compaction is the starting compaction configuration, the one
	// Engine.SetCompactionConfig replaces at runtime: how many 256 KiB
	// buffers are in flight between the pipeline's read, merge and write
	// stages (default 4; 1 runs the stages sequentially). Who merges sorted
	// runs is no setting: the device SoC alone, unless a host assist loop is
	// attached, and then a split driven by live load signals.
	Compaction compaction.Config
	// ColdHeatThreshold is the per-granule read count below which a sorted
	// zone counts as cold and becomes a migration candidate. Zones whose
	// hottest granule stays under the threshold move to the cold tier.
	ColdHeatThreshold int
	// ColdMigrateBatch caps zones migrated to the cold tier per
	// MigrateCold pass, bounding the background I/O burst.
	ColdMigrateBatch int
}

// DefaultConfig returns simulation defaults.
func DefaultConfig() Config {
	return Config{
		IngestBufferBytes: 192 << 10,
		BlockBytes:        4096,
		StripeWidth:       4,
		SortBudgetBytes:   8 << 20,
		MergeFanin:        16,
		DRAMBytes:         8 << 30,
		IndexCacheBytes:   32 << 20,
		MaxKeyLen:         1 << 10,
		MaxValueLen:       64 << 10,
		Compaction:        compaction.Config{PipelineWidth: 4},
		ColdHeatThreshold: 1,
		ColdMigrateBatch:  4,
	}
}

// sanitize fills zero fields with defaults.
func (c Config) sanitize() Config {
	d := DefaultConfig()
	if c.IngestBufferBytes <= 0 {
		c.IngestBufferBytes = d.IngestBufferBytes
	}
	if c.BlockBytes <= 0 {
		c.BlockBytes = d.BlockBytes
	}
	if c.StripeWidth <= 0 {
		c.StripeWidth = d.StripeWidth
	}
	if c.SortBudgetBytes <= 0 {
		c.SortBudgetBytes = d.SortBudgetBytes
	}
	if c.MergeFanin <= 1 {
		c.MergeFanin = d.MergeFanin
	}
	if c.DRAMBytes <= 0 {
		c.DRAMBytes = d.DRAMBytes
	}
	if c.IndexCacheBytes == 0 {
		c.IndexCacheBytes = d.IndexCacheBytes
	}
	if c.IndexCacheBytes < 0 {
		c.IndexCacheBytes = 0
	}
	if c.MaxKeyLen <= 0 {
		c.MaxKeyLen = d.MaxKeyLen
	}
	if c.MaxValueLen <= 0 {
		c.MaxValueLen = d.MaxValueLen
	}
	if c.Compaction.PipelineWidth <= 0 {
		c.Compaction.PipelineWidth = d.Compaction.PipelineWidth
	}
	if c.ColdHeatThreshold <= 0 {
		c.ColdHeatThreshold = d.ColdHeatThreshold
	}
	if c.ColdMigrateBatch <= 0 {
		c.ColdMigrateBatch = d.ColdMigrateBatch
	}
	return c
}
