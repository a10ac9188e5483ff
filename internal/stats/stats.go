// Package stats collects the I/O and timing statistics the KV-CSD paper
// reports: bytes moved between host and device, bytes read and written at the
// storage media, operation counts, and latency histograms. Figures 7b and 10b
// are rendered directly from these counters.
//
// Collection happens inside a single-threaded discrete-event simulation, but
// the live telemetry endpoint reads counters from HTTP goroutines while the
// simulation runs, so counters are atomics.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Counter is a monotonically increasing count of events or bytes. Reads and
// writes are atomic, so concurrent readers always see a consistent value.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter; negative deltas panic.
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("stats: negative add to counter " + c.name)
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Name returns the counter name.
func (c *Counter) Name() string { return c.name }

// IOStats aggregates the storage-traffic counters for one engine run. The
// split mirrors the paper's Figure 7b / 10b axes.
type IOStats struct {
	// Media traffic: bytes actually read from / written to the SSD NAND.
	MediaRead  Counter
	MediaWrite Counter
	// MediaTorn counts written bytes a power cut destroyed before their
	// channel operation completed (torn and queued appends). Media bytes
	// surviving on NAND = MediaWrite - MediaTorn.
	MediaTorn Counter
	// MediaRotted counts bytes poisoned in place by bit-rot injection:
	// reads of those ranges return wrong bytes, not errors, until a repair
	// rewrites them.
	MediaRotted Counter
	// MediaRepaired counts bytes rewritten in place by extent repair.
	MediaRepaired Counter
	// Integrity machinery: checksum failures detected on the read path or by
	// the scrubber, bytes the scrubber verified, extents rebuilt from a
	// replica, and zones quarantined after repeated corruption.
	CorruptDetected  Counter
	ScrubbedBytes    Counter
	RepairedExtents  Counter
	QuarantinedZones Counter
	// Host link traffic: bytes crossing the host<->device PCIe boundary.
	HostToDevice Counter
	DeviceToHost Counter
	// Logical application traffic for computing amplification factors.
	AppWrite Counter // bytes the application asked to store
	AppRead  Counter // bytes the application asked to read back
	// Operation counts.
	Puts        Counter
	Gets        Counter
	Scans       Counter
	Deletes     Counter
	BulkPuts    Counter
	Commands    Counter // device commands issued (KV-CSD only)
	FSReads     Counter // filesystem-level read calls (baseline only)
	FSWrites    Counter
	CacheHits   Counter
	CacheMisses Counter
}

// NewIOStats creates a named, zeroed stats block.
func NewIOStats() *IOStats {
	s := &IOStats{}
	s.MediaRead.name = "media_read_bytes"
	s.MediaWrite.name = "media_write_bytes"
	s.MediaTorn.name = "media_torn_bytes"
	s.MediaRotted.name = "media_rotted_bytes"
	s.MediaRepaired.name = "media_repaired_bytes"
	s.CorruptDetected.name = "corrupt_detected"
	s.ScrubbedBytes.name = "scrubbed_bytes"
	s.RepairedExtents.name = "repaired_extents"
	s.QuarantinedZones.name = "quarantined_zones"
	s.HostToDevice.name = "host_to_device_bytes"
	s.DeviceToHost.name = "device_to_host_bytes"
	s.AppWrite.name = "app_write_bytes"
	s.AppRead.name = "app_read_bytes"
	s.Puts.name = "puts"
	s.Gets.name = "gets"
	s.Scans.name = "scans"
	s.Deletes.name = "deletes"
	s.BulkPuts.name = "bulk_puts"
	s.Commands.name = "commands"
	s.FSReads.name = "fs_reads"
	s.FSWrites.name = "fs_writes"
	s.CacheHits.name = "cache_hits"
	s.CacheMisses.name = "cache_misses"
	return s
}

// WriteAmplification returns media-written bytes divided by app-written
// bytes, or 0 when nothing was written.
func (s *IOStats) WriteAmplification() float64 {
	if s.AppWrite.Value() == 0 {
		return 0
	}
	return float64(s.MediaWrite.Value()) / float64(s.AppWrite.Value())
}

// ReadInflation returns media-read bytes divided by app-read bytes — the
// paper's "read inflation" (Fig 10b), where a software store reads whole file
// blocks to return small values.
func (s *IOStats) ReadInflation() float64 {
	if s.AppRead.Value() == 0 {
		return 0
	}
	return float64(s.MediaRead.Value()) / float64(s.AppRead.Value())
}

// Clone returns an independent copy of the stats block with the same
// counter values — the "previous sample" operand for Delta.
func (s *IOStats) Clone() *IOStats {
	c := NewIOStats()
	src := s.counters()
	for i, dst := range c.counters() {
		dst.v.Store(src[i].Value())
	}
	return c
}

// Delta returns a new stats block holding s minus prev, counter by counter.
// A nil prev is treated as all zeros. This is how the obs sampler derives
// per-interval rates from cumulative counters without resetting them.
func (s *IOStats) Delta(prev *IOStats) *IOStats {
	d := s.Clone()
	if prev == nil {
		return d
	}
	pc := prev.counters()
	for i, c := range d.counters() {
		c.v.Add(-pc[i].Value())
	}
	return d
}

// Merge adds other's counter values into s, counter by counter — the sum
// counterpart to Clone/Delta. A multi-device array keeps one IOStats per
// device and merges them into a fleet-wide view for reporting. A nil other
// is a no-op.
func (s *IOStats) Merge(other *IOStats) {
	if other == nil {
		return
	}
	oc := other.counters()
	for i, c := range s.counters() {
		c.v.Add(oc[i].Value())
	}
}

// Snapshot returns all counters as a sorted name->value map for reporting.
func (s *IOStats) Snapshot() map[string]int64 {
	m := make(map[string]int64, 16)
	for _, c := range s.counters() {
		m[c.name] = c.Value()
	}
	return m
}

func (s *IOStats) counters() []*Counter {
	return []*Counter{
		&s.MediaRead, &s.MediaWrite, &s.MediaTorn, &s.MediaRotted, &s.MediaRepaired,
		&s.CorruptDetected, &s.ScrubbedBytes, &s.RepairedExtents, &s.QuarantinedZones,
		&s.HostToDevice, &s.DeviceToHost,
		&s.AppWrite, &s.AppRead, &s.Puts, &s.Gets, &s.Scans, &s.Deletes,
		&s.BulkPuts, &s.Commands, &s.FSReads, &s.FSWrites,
		&s.CacheHits, &s.CacheMisses,
	}
}

// String renders the non-zero counters, sorted by name.
func (s *IOStats) String() string {
	type kv struct {
		k string
		v int64
	}
	var rows []kv
	for _, c := range s.counters() {
		if v := c.Value(); v != 0 {
			rows = append(rows, kv{c.name, v})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].k < rows[j].k })
	var b strings.Builder
	for i, r := range rows {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", r.k, r.v)
	}
	return b.String()
}

// HumanBytes formats a byte count with a binary-prefix unit.
func HumanBytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%dB", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%ciB", float64(n)/float64(div), "KMGTPE"[exp])
}
