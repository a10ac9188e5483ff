// Package workload implements the paper's benchmark driver: a multi-threaded
// program that generates synthetic key-value workloads from a configuration
// and runs identically over both store implementations ("a modular design
// was used such that the same code can run over both DB implementations",
// §VI-B). Engine differences are confined to small Target adapters.
package workload

import (
	"fmt"

	"kvcsd/internal/client"
	"kvcsd/internal/device"
	"kvcsd/internal/host"
	"kvcsd/internal/rocks"
	"kvcsd/internal/sim"
	"kvcsd/internal/vfs"
)

// KS is the keyspace surface the driver uses: the subset of client.Contract
// the software baseline can also offer.
type KS interface {
	Put(p *sim.Proc, key, value []byte) error
	BulkPut(p *sim.Proc, key, value []byte) error
	// Flush sends any staged bulk pairs.
	Flush(p *sim.Proc) error
	Get(p *sim.Proc, key []byte) ([]byte, bool, error)
}

// Target adapts one store implementation to the driver.
type Target interface {
	Name() string
	CreateKeyspace(p *sim.Proc, name string) (KS, error)
	OpenKeyspace(p *sim.Proc, name string) (KS, error)
	// EndInsert is what the application does at the end of its insertion
	// job — including any waiting the engine forces on it. For KV-CSD this
	// invokes compaction and returns immediately; for RocksDB it waits for
	// (auto mode), runs (deferred mode), or skips (disabled) compaction.
	EndInsert(p *sim.Proc, ks KS) error
	// ReadyForQueries blocks until the keyspace is queryable. For KV-CSD
	// this waits out the asynchronous device compaction; the paper excludes
	// this from the application's effective write time.
	ReadyForQueries(p *sim.Proc, ks KS) error
	// DropCaches models cleaning the OS page cache before query runs.
	DropCaches()
}

// --- KV-CSD adapter -------------------------------------------------------

// KVCSDTarget drives a simulated KV-CSD device through the client library.
type KVCSDTarget struct {
	cl  *client.Client
	dev *device.Device
}

// NewKVCSDTarget builds the adapter.
func NewKVCSDTarget(h *host.Host, dev *device.Device) *KVCSDTarget {
	return &KVCSDTarget{cl: client.New(h, dev), dev: dev}
}

// Name identifies the engine in reports.
func (t *KVCSDTarget) Name() string { return "kvcsd" }

// CreateKeyspace creates a device keyspace.
func (t *KVCSDTarget) CreateKeyspace(p *sim.Proc, name string) (KS, error) {
	ks, err := t.cl.CreateKeyspace(p, name)
	if err != nil {
		return nil, err
	}
	return ks, nil
}

// OpenKeyspace opens an existing device keyspace.
func (t *KVCSDTarget) OpenKeyspace(p *sim.Proc, name string) (KS, error) {
	ks, err := t.cl.OpenKeyspace(p, name)
	if err != nil {
		return nil, err
	}
	return ks, nil
}

// EndInsert invokes deferred compaction; the device does the rest
// asynchronously, so the host returns immediately.
func (t *KVCSDTarget) EndInsert(p *sim.Proc, ks KS) error {
	return ks.(*client.Keyspace).Compact(p)
}

// ReadyForQueries waits for the device to finish compacting.
func (t *KVCSDTarget) ReadyForQueries(p *sim.Proc, ks KS) error {
	return ks.(*client.Keyspace).WaitCompacted(p)
}

// DropCaches is a no-op: KV-CSD does not cache data in host or device
// memory (paper §VI-B).
func (t *KVCSDTarget) DropCaches() {}

// --- RocksDB adapter ------------------------------------------------------

// RocksTarget drives the software LSM baseline: one rocks.DB instance per
// keyspace, all atop a shared ext4-like filesystem.
type RocksTarget struct {
	h    *host.Host
	fs   *vfs.FS
	rng  *sim.RNG
	opts rocks.Options
	dbs  map[string]*rocks.DB
	seq  int64
}

// NewRocksTarget builds the adapter.
func NewRocksTarget(h *host.Host, fsys *vfs.FS, rng *sim.RNG, opts rocks.Options) *RocksTarget {
	return &RocksTarget{h: h, fs: fsys, rng: rng, opts: opts, dbs: make(map[string]*rocks.DB)}
}

// Name identifies the engine and compaction mode in reports.
func (t *RocksTarget) Name() string {
	return "rocksdb-" + t.opts.CompactionMode.String()
}

type rocksKS struct{ db *rocks.DB }

func (k *rocksKS) Put(p *sim.Proc, key, value []byte) error { return k.db.Put(p, key, value) }

// BulkPut degrades to Put: the baseline has no device-side bulk command.
func (k *rocksKS) BulkPut(p *sim.Proc, key, value []byte) error { return k.db.Put(p, key, value) }

// Flush is a no-op: BulkPut stages nothing.
func (k *rocksKS) Flush(*sim.Proc) error { return nil }

func (k *rocksKS) Get(p *sim.Proc, key []byte) ([]byte, bool, error) {
	return k.db.Get(p, key)
}

// CreateKeyspace opens a fresh DB instance named after the keyspace.
func (t *RocksTarget) CreateKeyspace(p *sim.Proc, name string) (KS, error) {
	if _, ok := t.dbs[name]; ok {
		return nil, fmt.Errorf("workload: rocks keyspace %s exists", name)
	}
	t.seq++
	db, err := rocks.Open(p, t.h, t.fs, t.rng.Fork(t.seq), name, t.opts)
	if err != nil {
		return nil, err
	}
	t.dbs[name] = db
	return &rocksKS{db: db}, nil
}

// OpenKeyspace returns the existing instance.
func (t *RocksTarget) OpenKeyspace(p *sim.Proc, name string) (KS, error) {
	db, ok := t.dbs[name]
	if !ok {
		return nil, fmt.Errorf("workload: rocks keyspace %s not found", name)
	}
	return &rocksKS{db: db}, nil
}

// EndInsert applies the paper's three RocksDB modes: wait out auto
// compaction, run deferred compaction in a single pass, or just flush.
func (t *RocksTarget) EndInsert(p *sim.Proc, ks KS) error {
	db := ks.(*rocksKS).db
	switch t.opts.CompactionMode {
	case rocks.CompactionAuto:
		if err := db.Flush(p); err != nil {
			return err
		}
		return db.WaitBackgroundIdle(p)
	case rocks.CompactionDeferred:
		return db.CompactAll(p)
	default: // disabled
		return db.Flush(p)
	}
}

// ReadyForQueries is a no-op: the baseline's EndInsert already waited.
func (t *RocksTarget) ReadyForQueries(*sim.Proc, KS) error { return nil }

// DropCaches cleans the page cache and per-DB block caches.
func (t *RocksTarget) DropCaches() {
	t.fs.DropCaches()
	for _, db := range t.dbs {
		db.DropBlockCache()
	}
}

// DB exposes a named instance for engine-specific inspection.
func (t *RocksTarget) DB(name string) *rocks.DB { return t.dbs[name] }
