// Sharded cluster: a 4-device KV-CSD array with 2-way replication — the
// fleet deployment from the paper's Figure 2, where an array of computational
// storage devices serves keyspaces behind one router.
//
// The walk-through shows the full array feature set: range-sharded placement
// on a consistent-hash ring, replicated bulk loading, the staggered fleet
// compaction scheduler, a scatter-gather range scan merged in key order, a
// secondary-index query fanned out to every shard, and — after an injected
// media fault — transparent read failover to a replica with per-device
// health tracking.
//
//	go run ./examples/sharded-cluster
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"

	"kvcsd/internal/array"
	"kvcsd/internal/client"
	"kvcsd/internal/keyenc"
	"kvcsd/internal/sim"
	"kvcsd/internal/stats"
)

const (
	records = 8192
	lookups = 512
)

// recordKey spreads keys uniformly over the shards (the first 8 bytes route).
func recordKey(i int) []byte {
	x := uint64(i) * 0x9E3779B97F4A7C15
	k := make([]byte, 12)
	binary.BigEndian.PutUint64(k, x^x>>29)
	binary.BigEndian.PutUint32(k[8:], uint32(i))
	return k
}

// recordValue embeds a little-endian uint32 "temperature" at offset 0 — the
// field the secondary index is built over.
func recordValue(i int) []byte {
	v := make([]byte, 40)
	binary.LittleEndian.PutUint32(v, uint32(i%500))
	copy(v[4:], fmt.Sprintf("sensor-record-%08d", i))
	return v
}

func main() {
	env := sim.NewEnv()
	opts := array.DefaultOptions() // 4 devices, 2 replicas, round-robin reads
	opts.Metrics = true
	a := array.New(env, opts)

	env.Go("main", func(p *sim.Proc) {
		if err := run(p, a); err != nil {
			log.Fatalf("sharded-cluster: %v", err)
		}
		a.Shutdown()
	})
	env.Run()

	// Fleet-wide and per-device statistics come from one shared registry.
	fmt.Println("\n-- statistics --")
	total := a.Stats()
	fmt.Printf("fleet: media write %s, media read %s, %d commands\n",
		stats.HumanBytes(total.MediaWrite.Value()),
		stats.HumanBytes(total.MediaRead.Value()),
		total.Commands.Value())
	for _, m := range a.Members() {
		fmt.Printf("  device %d: media write %s, commands %d\n",
			m.ID, stats.HumanBytes(m.Stats.MediaWrite.Value()), m.Stats.Commands.Value())
	}
}

func run(p *sim.Proc, a *array.Array) error {
	// 1. One large keyspace, range-split into one shard per device; each
	// shard is placed on the ring and replicated on 2 devices.
	ks, err := a.CreateRangeSharded(p, "sensors", 4)
	if err != nil {
		return err
	}
	fmt.Println("-- placement (seeded consistent-hash ring) --")
	for _, row := range ks.ShardMap() {
		fmt.Printf("  %s\n", row)
	}

	// 2. Replicated bulk load: every pair fans out to both replicas of its
	// shard; full 128 KiB bulk messages flush all replicas in parallel.
	for i := 0; i < records; i++ {
		if err := ks.BulkPut(p, recordKey(i), recordValue(i)); err != nil {
			return err
		}
	}
	if err := ks.Flush(p); err != nil {
		return err
	}
	fmt.Printf("\nloaded %d records x %d replicas in %v (virtual)\n",
		records, a.Options().Replicas, p.Now())

	// 3. Fleet compaction: the scheduler admits at most 2 devices at a time,
	// staggered, and declares the secondary index so each device extracts it
	// during its compaction pass.
	t0 := p.Now()
	err = ks.CompactWithIndexes(p, []client.IndexSpec{{
		Name: "temp", Offset: 0, Length: 4, Type: keyenc.TypeUint32,
	}})
	if err != nil {
		return err
	}
	if err := ks.WaitIndexBuilt(p, "temp"); err != nil {
		return err
	}
	fmt.Printf("fleet compaction + index build (cap %d, stagger %v): %v\n",
		a.Options().MaxConcurrentCompactions, array.CompactionStagger, p.Now()-t0)

	// 4. Scatter-gather range scan: every overlapping shard streams its slice
	// and the router merges them into one key-ordered result.
	pairs, err := ks.Scan(p, nil, nil, 8)
	if err != nil {
		return err
	}
	fmt.Println("\n-- scatter-gather scan, first 8 keys fleet-wide --")
	for _, kv := range pairs {
		fmt.Printf("  %x -> %q\n", kv.Key, kv.Value[4:])
	}

	// 5. Secondary-index query: temperature in [100, 104) — fans out to all
	// shards (a secondary key says nothing about primary placement) and
	// merges by temperature.
	loRaw, hiRaw := make([]byte, 4), make([]byte, 4)
	binary.LittleEndian.PutUint32(loRaw, 100)
	binary.LittleEndian.PutUint32(hiRaw, 104)
	lo, _ := keyenc.TypeUint32.Normalize(loRaw)
	hi, _ := keyenc.TypeUint32.Normalize(hiRaw)
	hits, err := ks.QuerySecondaryRange(p, "temp", lo, hi, 0)
	if err != nil {
		return err
	}
	fmt.Printf("\nsecondary query temp in [100,104): %d hits across %d shards\n",
		len(hits), ks.Partitions())

	// 6. Failure injection: break one owning device's media. Reads served by
	// that device fail with an internal error, the router fails over to the
	// replica, and after FailureThreshold consecutive errors it marks the
	// device down and stops routing to it.
	victim := ks.OwnersOf(recordKey(0))[0]
	fmt.Printf("\ninjecting media faults on device %d (primary for record 0)\n", victim)
	missed := 0
	for i := 0; i < lookups; i++ {
		a.Member(victim).Dev.SSD().InjectFault("zone-read", -1, 1)
		v, ok, err := ks.Get(p, recordKey(i))
		if err != nil {
			return fmt.Errorf("get under fault: %w", err)
		}
		if !ok || !bytes.HasPrefix(v[4:], []byte(fmt.Sprintf("sensor-record-%08d", i))) {
			missed++
		}
	}
	fmt.Printf("%d/%d reads served during the fault window (failover to replicas)\n",
		lookups-missed, lookups)
	fmt.Println("-- health --")
	for _, h := range a.Health() {
		state := "up"
		if h.Down {
			state = "DOWN (reads skip it)"
		}
		fmt.Printf("  device %d: %s\n", h.ID, state)
	}
	return nil
}
