package workload

import (
	"encoding/binary"
	"fmt"
	"time"

	"kvcsd/internal/sim"
	"kvcsd/internal/stats"
)

// InsertConfig describes one insertion experiment.
type InsertConfig struct {
	Threads        int
	KeysPerThread  int
	KeySize        int // >= 8
	ValueSize      int
	SharedKeyspace bool // all threads write one keyspace vs one each
	Bulk           bool // use bulk puts (KV-CSD) or per-key puts
	Seed           int64
	KeyspacePrefix string
}

// InsertResult reports the phase timings of one insertion run.
type InsertResult struct {
	// InsertTime is when the last thread finished issuing its puts
	// (including any engine-imposed stalls).
	InsertTime time.Duration
	// WriteTime additionally includes EndInsert — the application-visible
	// write time the paper's Figures 7-9 report (for RocksDB this contains
	// the compaction wait; for KV-CSD only the async compaction invoke).
	WriteTime time.Duration
	// ReadyTime additionally includes waiting for the store to become
	// queryable (KV-CSD's device-side compaction window).
	ReadyTime time.Duration
	Keys      int64
	Bytes     int64
}

// keyAt derives the i-th key of a thread deterministically; the same
// function regenerates the key population for the query phase.
func keyAt(seed int64, thread, i, size int) []byte {
	if size < 8 {
		size = 8
	}
	k := make([]byte, size)
	x := mix64(uint64(seed)<<32 ^ uint64(thread)<<20 ^ uint64(i))
	binary.BigEndian.PutUint64(k, x)
	for j := 8; j < size; j++ {
		k[j] = byte(x >> (8 * uint(j%8)))
	}
	return k
}

// valueAt builds the value for a key cheaply but deterministically.
func valueAt(seed int64, thread, i, size int) []byte {
	v := make([]byte, size)
	x := mix64(uint64(seed)<<33 ^ uint64(thread)<<21 ^ uint64(i) ^ 0xABCD)
	for j := 0; j < size; j += 8 {
		for b := 0; b < 8 && j+b < size; b++ {
			v[j+b] = byte(x >> (8 * uint(b)))
		}
		x = mix64(x)
	}
	return v
}

func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// KeyspaceNameFor returns the keyspace thread writes to under cfg (exported
// for harnesses that need to address the same keyspaces afterwards).
func KeyspaceNameFor(cfg InsertConfig, thread int) string {
	return cfg.keyspaceName(thread)
}

// keyspaceName returns the keyspace a thread writes to.
func (c InsertConfig) keyspaceName(thread int) string {
	prefix := c.KeyspacePrefix
	if prefix == "" {
		prefix = "ks"
	}
	if c.SharedKeyspace {
		return prefix
	}
	return fmt.Sprintf("%s-%d", prefix, thread)
}

// RunInsert executes the insertion phase on tgt from within process p:
// Threads writer processes insert KeysPerThread pairs each, then EndInsert
// runs per keyspace, then ReadyForQueries completes the measurement.
func RunInsert(p *sim.Proc, tgt Target, cfg InsertConfig) (InsertResult, error) {
	env := p.Env()
	start := p.Now()
	res := InsertResult{}

	// Create keyspaces up front (one, or one per thread).
	handles := make(map[string]KS)
	for t := 0; t < cfg.Threads; t++ {
		name := cfg.keyspaceName(t)
		if _, ok := handles[name]; ok {
			continue
		}
		ks, err := tgt.CreateKeyspace(p, name)
		if err != nil {
			return res, err
		}
		handles[name] = ks
	}

	errs := make([]error, cfg.Threads)
	var writers []*sim.Proc
	for t := 0; t < cfg.Threads; t++ {
		t := t
		ks := handles[cfg.keyspaceName(t)]
		// For a shared KV-CSD keyspace, each thread needs its own bulk
		// buffer; open a per-thread handle.
		if cfg.SharedKeyspace && t > 0 {
			h, err := tgt.OpenKeyspace(p, cfg.keyspaceName(t))
			if err != nil {
				return res, err
			}
			ks = h
		}
		writers = append(writers, env.Go(fmt.Sprintf("writer-%d", t), func(wp *sim.Proc) {
			for i := 0; i < cfg.KeysPerThread; i++ {
				key := keyAt(cfg.Seed, t, i, cfg.KeySize)
				val := valueAt(cfg.Seed, t, i, cfg.ValueSize)
				var err error
				if cfg.Bulk {
					err = ks.BulkPut(wp, key, val)
				} else {
					err = ks.Put(wp, key, val)
				}
				if err != nil {
					errs[t] = fmt.Errorf("thread %d key %d: %w", t, i, err)
					return
				}
			}
			errs[t] = ks.Flush(wp)
		}))
	}
	p.Join(writers...)
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	res.InsertTime = time.Duration(p.Now() - start)

	// End-of-insert work runs in parallel, one process per keyspace, as the
	// paper's per-thread instances would.
	names := sortedNames(handles)
	endErrs := make([]error, len(names))
	var enders []*sim.Proc
	for i, name := range names {
		i, name := i, name
		enders = append(enders, env.Go("end-"+name, func(ep *sim.Proc) {
			endErrs[i] = tgt.EndInsert(ep, handles[name])
		}))
	}
	p.Join(enders...)
	for _, err := range endErrs {
		if err != nil {
			return res, err
		}
	}
	res.WriteTime = time.Duration(p.Now() - start)

	readyErrs := make([]error, len(names))
	var readiers []*sim.Proc
	for i, name := range names {
		i, name := i, name
		readiers = append(readiers, env.Go("ready-"+name, func(rp *sim.Proc) {
			readyErrs[i] = tgt.ReadyForQueries(rp, handles[name])
		}))
	}
	p.Join(readiers...)
	for _, err := range readyErrs {
		if err != nil {
			return res, err
		}
	}
	res.ReadyTime = time.Duration(p.Now() - start)
	res.Keys = int64(cfg.Threads) * int64(cfg.KeysPerThread)
	res.Bytes = res.Keys * int64(cfg.KeySize+cfg.ValueSize)
	return res, nil
}

func sortedNames(m map[string]KS) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// GetConfig describes a random point-query experiment (Figure 10).
type GetConfig struct {
	Threads          int
	QueriesPerThread int
	KeysPerThread    int // population inserted per thread (key regeneration)
	KeySize          int
	Seed             int64 // must match the insert seed
	QuerySeed        int64
	SharedKeyspace   bool
	KeyspacePrefix   string
}

// GetResult reports a query run.
type GetResult struct {
	QueryTime time.Duration
	Queries   int64
	Found     int64
	Latency   *stats.Histogram
}

// RunRandomGets executes random point GETs, one querying process per thread,
// each targeting its own keyspace (or the shared one).
func RunRandomGets(p *sim.Proc, tgt Target, cfg GetConfig) (GetResult, error) {
	env := p.Env()
	tgt.DropCaches()
	start := p.Now()
	res := GetResult{Latency: stats.NewHistogram("get-latency")}
	found := make([]int64, cfg.Threads)
	errs := make([]error, cfg.Threads)
	hists := make([]*stats.Histogram, cfg.Threads)

	var readers []*sim.Proc
	for t := 0; t < cfg.Threads; t++ {
		t := t
		icfg := InsertConfig{SharedKeyspace: cfg.SharedKeyspace, KeyspacePrefix: cfg.KeyspacePrefix}
		ks, err := tgt.OpenKeyspace(p, icfg.keyspaceName(t))
		if err != nil {
			return res, err
		}
		hists[t] = stats.NewHistogram(fmt.Sprintf("t%d", t))
		readers = append(readers, env.Go(fmt.Sprintf("reader-%d", t), func(rp *sim.Proc) {
			rng := sim.NewRNG(cfg.QuerySeed).Fork(int64(t + 1))
			for q := 0; q < cfg.QueriesPerThread; q++ {
				keyThread := t
				if cfg.SharedKeyspace {
					keyThread = rng.Intn(cfg.Threads)
				}
				key := keyAt(cfg.Seed, keyThread, rng.Intn(cfg.KeysPerThread), cfg.KeySize)
				t0 := rp.Now()
				_, ok, err := ks.Get(rp, key)
				if err != nil {
					errs[t] = err
					return
				}
				hists[t].Record(time.Duration(rp.Now() - t0))
				if ok {
					found[t]++
				}
			}
		}))
	}
	p.Join(readers...)
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	res.QueryTime = time.Duration(p.Now() - start)
	res.Queries = int64(cfg.Threads) * int64(cfg.QueriesPerThread)
	for t := 0; t < cfg.Threads; t++ {
		res.Found += found[t]
		for _, s := range hists[t].Samples() {
			res.Latency.Record(s)
		}
	}
	return res, nil
}
