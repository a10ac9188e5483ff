// Network server: a sharded KV-CSD array served over TCP, driven by
// concurrent remote clients — the disaggregated deployment where the
// computational storage sits behind a wire protocol instead of an
// in-process call.
//
// The walk-through starts a kvcsd server on a loopback port fronting a
// 4-device range-sharded array, then dials it with several pipelined
// remote clients at once: a bulk loader streaming batched puts (which the
// server coalesces into single device submissions), a deferred fleet
// compaction, and a pool of reader goroutines issuing pipelined point
// gets and a scatter-gather scan. It finishes with the server's
// per-opcode RPC metrics table — decode/queue/service/write wall-clock
// stages next to the virtual time the simulated devices charged.
//
//	go run ./examples/network-server
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"kvcsd/internal/array"
	"kvcsd/internal/remote"
	"kvcsd/internal/server"
)

const (
	records = 4096
	readers = 8
	getsPer = 64
)

// recordKey spreads keys uniformly over the shards (the first 8 bytes route).
func recordKey(i int) []byte {
	x := uint64(i) * 0x9E3779B97F4A7C15
	k := make([]byte, 12)
	binary.BigEndian.PutUint64(k, x^x>>29)
	binary.BigEndian.PutUint32(k[8:], uint32(i))
	return k
}

func recordValue(i int) []byte {
	return []byte(fmt.Sprintf("payload-%08d-%032x", i, uint64(i)*0xBF58476D1CE4E5B9))
}

func main() {
	// A 4-device, 2-replica array behind one TCP listener. Port 0 lets the
	// kernel pick; everything below dials the address the server reports.
	opts := array.DefaultOptions()
	opts.Seed = 42
	srv := server.NewArray(opts, server.DefaultConfig())
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		log.Fatalf("network-server: start: %v", err)
	}
	fmt.Printf("server listening on %s (4 devices, 2 replicas)\n\n", addr)

	// Loader client: batched puts. BulkPut stages pairs client-side and
	// flushes them as bulk frames; the server coalesces same-keyspace puts
	// arriving in one admission batch into single device submissions.
	ropts := remote.DefaultOptions()
	ropts.Conns = 2
	ropts.Pipeline = 32
	loader, err := remote.Dial(addr.String(), ropts)
	if err != nil {
		log.Fatalf("network-server: dial: %v", err)
	}
	ks, err := loader.CreateRangeSharded("sensor", 4)
	if err != nil {
		log.Fatalf("network-server: create: %v", err)
	}
	for i := 0; i < records; i++ {
		if err := ks.BulkPut(recordKey(i), recordValue(i)); err != nil {
			log.Fatalf("network-server: bulk put: %v", err)
		}
	}
	if err := ks.Flush(); err != nil {
		log.Fatalf("network-server: flush: %v", err)
	}
	fmt.Printf("loaded %d records over the wire\n", records)

	// Deferred compaction: the verb returns once the device accepts the
	// job; WaitCompacted is one CompactStatus request with the wait flag,
	// which the server answers when the fleet finishes.
	if err := ks.Compact(); err != nil {
		log.Fatalf("network-server: compact: %v", err)
	}
	if err := ks.WaitCompacted(); err != nil {
		log.Fatalf("network-server: wait compacted: %v", err)
	}
	info, err := ks.Info()
	if err != nil {
		log.Fatalf("network-server: info: %v", err)
	}
	fmt.Printf("fleet compaction done: state=%s pairs=%d zones=%d\n\n", info.State, info.Pairs, info.ZoneCount)

	// Reader pool: independent clients, each pipelining point gets. All
	// requests multiplex over their connection by ID, so responses may
	// return out of submission order.
	var wg sync.WaitGroup
	errCh := make(chan error, readers)
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := remote.Dial(addr.String(), remote.DefaultOptions())
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			rks, err := c.OpenKeyspace("sensor")
			if err != nil {
				errCh <- err
				return
			}
			for q := 0; q < getsPer; q++ {
				i := (r*getsPer + q*37) % records
				v, ok, err := rks.Get(recordKey(i))
				if err != nil || !ok || !bytes.Equal(v, recordValue(i)) {
					errCh <- fmt.Errorf("reader %d: get %d: ok=%v err=%v", r, i, ok, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		log.Fatalf("network-server: %v", err)
	}
	fmt.Printf("%d readers verified %d pipelined gets\n", readers, readers*getsPer)

	// Scatter-gather scan: the server fans the range out to every shard
	// and streams the merged result back in chunked frames.
	pairs, err := ks.Scan(nil, nil, 5)
	if err != nil {
		log.Fatalf("network-server: scan: %v", err)
	}
	fmt.Printf("scan: first %d keys in shard-merged order:\n", len(pairs))
	for _, kv := range pairs {
		fmt.Printf("  0x%x (%d bytes)\n", kv.Key, len(kv.Value))
	}

	rep, err := loader.Stats()
	if err != nil {
		log.Fatalf("network-server: stats: %v", err)
	}
	fmt.Printf("\nfleet virtual time: %v across %d devices\n", time.Duration(rep.VirtualNanos), rep.Devices)

	loader.Close()
	if err := srv.Close(); err != nil {
		log.Fatalf("network-server: close: %v", err)
	}
	fmt.Printf("\nserver RPC metrics:\n")
	srv.Metrics().Dump(os.Stdout)
}
