// Package ssd models the NVMe SSD at the bottom of the KV-CSD stack.
//
// The device exposes two namespaces over the same simulated NAND media:
//
//   - a Zoned Namespace (ZNS), used by the KV-CSD device engine: fixed-size
//     zones with write pointers, sequential-write enforcement, explicit
//     resets, and a zone state machine (EMPTY -> OPEN -> FULL);
//   - a conventional block namespace, used by the ext4-like filesystem under
//     the RocksDB baseline: random 4 KiB block reads/writes with a simple
//     FTL (valid-page tracking and background garbage collection).
//
// The media itself is modelled as N independent channels, each a capacity-1
// sim.Resource with per-operation latency and bandwidth. Zones (and block
// stripes) map statically to channels, so concurrent writers that land on the
// same channel queue behind each other — the channel-conflict effect the
// paper's zone-cluster striping is designed to mitigate.
package ssd

import (
	"errors"
	"fmt"
	"time"

	"kvcsd/internal/obs"
	"kvcsd/internal/sim"
	"kvcsd/internal/stats"
)

// Errors returned by device operations.
var (
	ErrZoneBounds       = errors.New("ssd: zone index out of range")
	ErrNotSequential    = errors.New("ssd: write not at zone write pointer")
	ErrZoneFull         = errors.New("ssd: write exceeds zone capacity")
	ErrZoneState        = errors.New("ssd: operation invalid for zone state")
	ErrReadBeyondWP     = errors.New("ssd: read beyond zone write pointer")
	ErrBlockBounds      = errors.New("ssd: block address out of range")
	ErrInjectedFault    = errors.New("ssd: injected media fault")
	ErrDeviceCapacity   = errors.New("ssd: conventional namespace out of space")
	ErrUnalignedRequest = errors.New("ssd: request not block aligned")
	ErrPoweredOff       = errors.New("ssd: device powered off")
)

// ZoneState is the lifecycle state of a zone.
type ZoneState uint8

// Zone states, a simplified version of the ZNS state machine.
const (
	ZoneEmpty ZoneState = iota
	ZoneOpen
	ZoneFull
)

// String names the state.
func (s ZoneState) String() string {
	switch s {
	case ZoneEmpty:
		return "EMPTY"
	case ZoneOpen:
		return "OPEN"
	case ZoneFull:
		return "FULL"
	default:
		return fmt.Sprintf("ZoneState(%d)", uint8(s))
	}
}

// Config sizes and times the simulated SSD. The defaults approximate the
// paper's 15 TB E1.L ZNS drive scaled down for in-memory simulation: what
// matters for figure shapes is channel count and per-channel bandwidth, not
// total capacity.
type Config struct {
	ZoneSize       int64         // bytes per zone
	NumZones       int           // zones in the zoned namespace
	BlockSize      int           // logical block size (both namespaces)
	ConvBlocks     int64         // blocks in the conventional namespace
	Channels       int           // independent NAND channels
	ReadBandwidth  float64       // bytes/sec per channel
	WriteBandwidth float64       // bytes/sec per channel
	ReadLatency    time.Duration // fixed per-op read latency
	WriteLatency   time.Duration // fixed per-op program latency
	// GCThreshold is the fraction of conventional-namespace free blocks
	// below which background GC kicks in.
	GCThreshold float64
	// OverprovisionPct reserves extra physical blocks for the conventional
	// FTL (affects GC efficiency bookkeeping only).
	OverprovisionPct float64
	// ColdZones dedicates the last N zones of the zoned namespace to a
	// cheap/slow cold tier (dense QLC-style media). Zero disables the tier;
	// the timing model is then untouched.
	ColdZones int
	// ColdReadFactor and ColdWriteFactor scale per-operation time (latency
	// and transfer) on cold-tier zones. Values <= 0 mean 1 (no penalty).
	ColdReadFactor  float64
	ColdWriteFactor float64
}

// DefaultConfig returns the simulation defaults used by all experiments.
func DefaultConfig() Config {
	return Config{
		ZoneSize:         32 << 20, // 32 MiB zones
		NumZones:         2048,     // 64 GiB zoned namespace
		BlockSize:        4096,
		ConvBlocks:       16 << 20, // 64 GiB conventional namespace
		Channels:         16,
		ReadBandwidth:    800e6, // 800 MB/s per channel
		WriteBandwidth:   400e6, // 400 MB/s per channel
		ReadLatency:      60 * time.Microsecond,
		WriteLatency:     20 * time.Microsecond,
		GCThreshold:      0.10,
		OverprovisionPct: 0.07,
	}
}

// zone is one ZNS zone: state machine plus backing bytes (allocated lazily).
type zone struct {
	state ZoneState
	wp    int64 // write pointer, bytes from zone start
	data  []byte
}

// Device is the simulated SSD.
type Device struct {
	cfg      Config
	env      *sim.Env
	channels []*sim.Resource
	zones    []zone
	st       *stats.IOStats

	// Observability (optional): media spans attach to the calling process's
	// current span; zone-state gauges publish into the registry.
	tr         *obs.Tracer
	gZonesOpen *sim.Gauge
	gZonesFull *sim.Gauge
	gWPBytes   *sim.Gauge

	// conventional namespace
	conv        map[int64][]byte // LBA -> block contents
	convWritten map[int64]bool   // physically live blocks (valid pages)
	convFree    int64            // free physical blocks
	gcRuns      int64
	gcCopied    int64

	faults map[faultKey]int // injected fault countdowns
	fprof  *FaultProfile    // probabilistic fault schedule (nil = off)
	frng   *sim.RNG         // fault-profile draws

	// Power-loss state (power.go): while poweredOff every operation fails
	// with ErrPoweredOff; inflight tracks appends a cut would tear.
	poweredOff bool
	inflight   []inflightAppend
	rng        *sim.RNG // torn-append tear offsets
}

type faultKey struct {
	kind string // "zone-write", "zone-read", "block-write", "block-read"
	id   int64  // zone index or LBA; -1 = any
}

// New creates a device attached to the simulation environment. The stats
// block records media traffic; pass a dedicated block per engine under test.
func New(env *sim.Env, cfg Config, st *stats.IOStats) *Device {
	if cfg.Channels < 1 || cfg.NumZones < 1 || cfg.ZoneSize < int64(cfg.BlockSize) {
		panic("ssd: invalid config")
	}
	d := &Device{
		cfg:         cfg,
		env:         env,
		zones:       make([]zone, cfg.NumZones),
		st:          st,
		conv:        make(map[int64][]byte),
		convWritten: make(map[int64]bool),
		convFree:    cfg.ConvBlocks + int64(float64(cfg.ConvBlocks)*cfg.OverprovisionPct),
		faults:      make(map[faultKey]int),
		rng:         sim.NewRNG(1).Fork(0x535344),
	}
	d.channels = make([]*sim.Resource, cfg.Channels)
	for i := range d.channels {
		d.channels[i] = sim.NewResource(env, fmt.Sprintf("ssd-ch%d", i), 1)
	}
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// NumZones returns the zone count of the zoned namespace.
func (d *Device) NumZones() int { return d.cfg.NumZones }

// ZoneSize returns the zone capacity in bytes.
func (d *Device) ZoneSize() int64 { return d.cfg.ZoneSize }

// Channel returns the channel resource a zone maps to, for inspection.
func (d *Device) Channel(zoneIdx int) *sim.Resource {
	return d.channels[zoneIdx%d.cfg.Channels]
}

// ChannelCount returns the number of NAND channels.
func (d *Device) ChannelCount() int { return d.cfg.Channels }

// ChannelBacklog reports the fraction of channels with queued reservations
// right now — an instantaneous utilization signal for load-aware planners.
func (d *Device) ChannelBacklog() float64 {
	if len(d.channels) == 0 {
		return 0
	}
	busy := 0
	for _, ch := range d.channels {
		if ch.NextFree() > d.env.Now() {
			busy++
		}
	}
	return float64(busy) / float64(len(d.channels))
}

// ChannelBusyTimes returns each channel's busy virtual time. Hot data pins
// individual channels while the mean stays low, and a striped operation is
// gated by its busiest channel — so planners should difference these over a
// window and look at the max, not the mean.
func (d *Device) ChannelBusyTimes(out []time.Duration) []time.Duration {
	out = out[:0]
	for _, ch := range d.channels {
		out = append(out, ch.BusyTime())
	}
	return out
}

// IsCold reports whether a zone belongs to the configured cold tier.
func (d *Device) IsCold(zone int) bool {
	return d.cfg.ColdZones > 0 && zone >= d.cfg.NumZones-d.cfg.ColdZones
}

// coldFactor returns the time multiplier for an operation on a zone.
func (d *Device) coldFactor(zone int, write bool) float64 {
	if !d.IsCold(zone) {
		return 1
	}
	f := d.cfg.ColdReadFactor
	if write {
		f = d.cfg.ColdWriteFactor
	}
	if f <= 0 {
		return 1
	}
	return f
}

// readCost and writeCost return the channel time (latency + transfer) for an
// n-byte zone operation, scaled by the zone's tier.
func (d *Device) readCost(zone int, n int64) time.Duration {
	base := d.cfg.ReadLatency + sim.TransferTime(n, d.cfg.ReadBandwidth)
	return time.Duration(float64(base) * d.coldFactor(zone, false))
}

func (d *Device) writeCost(zone int, n int64) time.Duration {
	base := d.cfg.WriteLatency + sim.TransferTime(n, d.cfg.WriteBandwidth)
	return time.Duration(float64(base) * d.coldFactor(zone, true))
}

// Stats returns the device's stats block.
func (d *Device) Stats() *stats.IOStats { return d.st }

// SetObs attaches observability: media operations become "media"-stage child
// spans of the calling process's current span, and zone-state gauges
// (ssd/zones_open, ssd/zones_full, ssd/wp_bytes) publish into reg. Either
// argument may be nil. Gauges are primed from the current zone state.
func (d *Device) SetObs(tr *obs.Tracer, reg *obs.Registry) {
	d.tr = tr
	if reg == nil {
		return
	}
	d.gZonesOpen = reg.Gauge("ssd/zones_open")
	d.gZonesFull = reg.Gauge("ssd/zones_full")
	d.gWPBytes = reg.Gauge("ssd/wp_bytes")
	var open, full int
	var wp int64
	for i := range d.zones {
		switch d.zones[i].state {
		case ZoneOpen:
			open++
		case ZoneFull:
			full++
		}
		wp += d.zones[i].wp
	}
	d.gZonesOpen.Set(float64(open))
	d.gZonesFull.Set(float64(full))
	d.gWPBytes.Set(float64(wp))
}

// traceMedia attaches a media-stage span covering [start, end] to the calling
// process's current span, if tracing is on.
func (d *Device) traceMedia(p *sim.Proc, kind string, n int64, start, end sim.Time) {
	if d.tr == nil {
		return
	}
	cur := d.tr.Current(p)
	if cur == nil {
		return
	}
	sp := cur.ChildFrom("media:"+kind, obs.StageMedia, start)
	sp.SetInt("bytes", n)
	sp.EndAt(end)
}

// noteZoneTransition updates the zone-state gauges for one zone moving from
// one state to another, plus a write-pointer delta.
func (d *Device) noteZoneTransition(from, to ZoneState, wpDelta int64) {
	if d.gZonesOpen == nil {
		return
	}
	if from != to {
		switch from {
		case ZoneOpen:
			d.gZonesOpen.Add(-1)
		case ZoneFull:
			d.gZonesFull.Add(-1)
		}
		switch to {
		case ZoneOpen:
			d.gZonesOpen.Add(1)
		case ZoneFull:
			d.gZonesFull.Add(1)
		}
	}
	if wpDelta != 0 {
		d.gWPBytes.Add(float64(wpDelta))
	}
}

// InjectFault arms an injected error: the n-th matching future operation of
// the given kind on the given zone/LBA (id = -1 matches any) fails with
// ErrInjectedFault. Kinds: "zone-write", "zone-read", "block-write",
// "block-read".
func (d *Device) InjectFault(kind string, id int64, after int) {
	d.faults[faultKey{kind, id}] = after
}

func (d *Device) checkFault(kind string, id int64) error {
	for _, k := range []faultKey{{kind, id}, {kind, -1}} {
		if n, ok := d.faults[k]; ok {
			if n <= 1 {
				delete(d.faults, k)
				return ErrInjectedFault
			}
			d.faults[k] = n - 1
		}
	}
	return d.profileFault(kind)
}

// busy books a channel for an operation of n bytes and waits for it. The
// reservation model lets several operations issued back-to-back by one
// process overlap on distinct channels (NVMe queue depth). kind labels the
// media span emitted when tracing is on; the span covers channel queueing as
// well as the transfer itself (channel conflicts count as media time).
func (d *Device) busy(p *sim.Proc, ch *sim.Resource, kind string, lat time.Duration, n int64, bw float64) {
	start := d.env.Now()
	done := ch.Reserve(lat + sim.TransferTime(n, bw))
	p.SleepUntil(done)
	d.traceMedia(p, kind, n, start, done)
}

// busyDur is busy with a fully precomputed channel time (used where tier
// scaling has already been folded into the duration).
func (d *Device) busyDur(p *sim.Proc, ch *sim.Resource, kind string, dur time.Duration, n int64) {
	start := d.env.Now()
	done := ch.Reserve(dur)
	p.SleepUntil(done)
	d.traceMedia(p, kind, n, start, done)
}

// ZoneSpan names a contiguous byte range inside one zone.
type ZoneSpan struct {
	Zone int
	Off  int64
	N    int
}

// ReadZoneSpans reads several zone spans as one parallel I/O burst: each
// span's channel is reserved immediately and the caller sleeps until the
// last completion. Spans on distinct channels proceed in parallel — the
// large-request behavior of ZNS reads.
func (d *Device) ReadZoneSpans(p *sim.Proc, spans []ZoneSpan) ([][]byte, error) {
	if d.poweredOff {
		return nil, ErrPoweredOff
	}
	out := make([][]byte, len(spans))
	start := d.env.Now()
	var total int64
	var latest sim.Time
	for i, sp := range spans {
		if sp.Zone < 0 || sp.Zone >= len(d.zones) {
			return nil, ErrZoneBounds
		}
		z := &d.zones[sp.Zone]
		if sp.Off < 0 || sp.Off+int64(sp.N) > z.wp {
			return nil, ErrReadBeyondWP
		}
		if err := d.checkFault("zone-read", int64(sp.Zone)); err != nil {
			return nil, err
		}
		d.maybeRot("zone-read", sp.Zone, sp.Off, int64(sp.N))
		done := d.Channel(sp.Zone).Reserve(d.readCost(sp.Zone, int64(sp.N)) + d.faultLatency("zone-read"))
		if done > latest {
			latest = done
		}
		out[i] = z.data[sp.Off : sp.Off+int64(sp.N) : sp.Off+int64(sp.N)]
		d.st.MediaRead.Add(int64(sp.N))
		total += int64(sp.N)
	}
	p.SleepUntil(latest)
	if d.poweredOff {
		return nil, ErrPoweredOff
	}
	if len(spans) > 0 {
		d.traceMedia(p, "read", total, start, latest)
	}
	return out, nil
}

// WriteZoneSpans appends data to several zones as one parallel burst. Each
// write must land exactly at its zone's write pointer (spans for the same
// zone must be given in order). The bytes are copied into the zones before
// the call sleeps, so the caller may reuse data while it waits.
func (d *Device) WriteZoneSpans(p *sim.Proc, zones []int, data [][]byte) error {
	if len(zones) != len(data) {
		return fmt.Errorf("ssd: zones/data length mismatch")
	}
	if d.poweredOff {
		return ErrPoweredOff
	}
	start := d.env.Now()
	var total int64
	var latest sim.Time
	for i, zi := range zones {
		if zi < 0 || zi >= len(d.zones) {
			return ErrZoneBounds
		}
		z := &d.zones[zi]
		if z.state == ZoneFull {
			return ErrZoneState
		}
		if z.wp+int64(len(data[i])) > d.cfg.ZoneSize {
			return ErrZoneFull
		}
		if err := d.checkFault("zone-write", int64(zi)); err != nil {
			return err
		}
		done := d.Channel(zi).Reserve(d.writeCost(zi, int64(len(data[i]))) + d.faultLatency("zone-write"))
		if done > latest {
			latest = done
		}
		d.noteAppend(zi, z.wp, int64(len(data[i])), done)
		if z.data == nil {
			z.data = make([]byte, 0, 64<<10)
		}
		z.data = append(z.data, data[i]...)
		prev := z.state
		z.wp += int64(len(data[i]))
		if z.state == ZoneEmpty {
			z.state = ZoneOpen
		}
		if z.wp == d.cfg.ZoneSize {
			z.state = ZoneFull
		}
		d.noteZoneTransition(prev, z.state, int64(len(data[i])))
		d.st.MediaWrite.Add(int64(len(data[i])))
		total += int64(len(data[i]))
	}
	p.SleepUntil(latest)
	if d.poweredOff {
		return ErrPoweredOff
	}
	if len(zones) > 0 {
		d.traceMedia(p, "write", total, start, latest)
	}
	return nil
}

// ReadBlockRun reads count consecutive LBAs starting at lba as one parallel
// burst (filesystem readahead), returning one buffer per block.
func (d *Device) ReadBlockRun(p *sim.Proc, lba int64, count int) ([][]byte, error) {
	if lba < 0 || lba+int64(count) > d.cfg.ConvBlocks {
		return nil, ErrBlockBounds
	}
	if d.poweredOff {
		return nil, ErrPoweredOff
	}
	out := make([][]byte, count)
	start := d.env.Now()
	var latest sim.Time
	for i := 0; i < count; i++ {
		cur := lba + int64(i)
		if err := d.checkFault("block-read", cur); err != nil {
			return nil, err
		}
		done := d.convChannel(cur).Reserve(d.cfg.ReadLatency + d.faultLatency("block-read") + sim.TransferTime(int64(d.cfg.BlockSize), d.cfg.ReadBandwidth))
		if done > latest {
			latest = done
		}
		buf := make([]byte, d.cfg.BlockSize)
		if blk := d.conv[cur]; blk != nil {
			copy(buf, blk)
		}
		out[i] = buf
		d.st.MediaRead.Add(int64(d.cfg.BlockSize))
	}
	p.SleepUntil(latest)
	if d.poweredOff {
		return nil, ErrPoweredOff
	}
	if count > 0 {
		d.traceMedia(p, "read", int64(count)*int64(d.cfg.BlockSize), start, latest)
	}
	return out, nil
}

// WriteBlockRun writes len(blocks) consecutive LBAs starting at lba as one
// parallel burst (filesystem writeback).
func (d *Device) WriteBlockRun(p *sim.Proc, lba int64, blocks [][]byte) error {
	if lba < 0 || lba+int64(len(blocks)) > d.cfg.ConvBlocks {
		return ErrBlockBounds
	}
	if d.poweredOff {
		return ErrPoweredOff
	}
	start := d.env.Now()
	var total int64
	var latest sim.Time
	for i, b := range blocks {
		if len(b) != d.cfg.BlockSize {
			return ErrUnalignedRequest
		}
		cur := lba + int64(i)
		if err := d.checkFault("block-write", cur); err != nil {
			return err
		}
		if !d.convWritten[cur] {
			if d.convFree == 0 {
				return ErrDeviceCapacity
			}
			d.convWritten[cur] = true
			d.convFree--
		}
		done := d.convChannel(cur).Reserve(d.cfg.WriteLatency + d.faultLatency("block-write") + sim.TransferTime(int64(len(b)), d.cfg.WriteBandwidth))
		if done > latest {
			latest = done
		}
		blk := d.conv[cur]
		if blk == nil {
			blk = make([]byte, d.cfg.BlockSize)
			d.conv[cur] = blk
		} else {
			d.maybeGC(p)
		}
		copy(blk, b)
		d.st.MediaWrite.Add(int64(len(b)))
		total += int64(len(b))
	}
	p.SleepUntil(latest)
	if d.poweredOff {
		return ErrPoweredOff
	}
	if len(blocks) > 0 {
		d.traceMedia(p, "write", total, start, latest)
	}
	return nil
}

// ZoneInfo is an inspection snapshot of one zone.
type ZoneInfo struct {
	Index        int
	State        ZoneState
	WritePointer int64
	Channel      int
}

// Zone returns an inspection snapshot.
func (d *Device) Zone(idx int) (ZoneInfo, error) {
	if idx < 0 || idx >= len(d.zones) {
		return ZoneInfo{}, ErrZoneBounds
	}
	z := &d.zones[idx]
	return ZoneInfo{Index: idx, State: z.state, WritePointer: z.wp, Channel: idx % d.cfg.Channels}, nil
}

// WriteZone appends data at the zone's write pointer. The zone transitions
// EMPTY->OPEN on first write and OPEN->FULL when it fills exactly. Writes
// that would cross the zone capacity fail with ErrZoneFull, and writes to a
// FULL zone fail with ErrZoneState. Virtual time: one channel operation.
func (d *Device) WriteZone(p *sim.Proc, idx int, data []byte) error {
	if idx < 0 || idx >= len(d.zones) {
		return ErrZoneBounds
	}
	if d.poweredOff {
		return ErrPoweredOff
	}
	z := &d.zones[idx]
	if z.state == ZoneFull {
		return ErrZoneState
	}
	if z.wp+int64(len(data)) > d.cfg.ZoneSize {
		return ErrZoneFull
	}
	if err := d.checkFault("zone-write", int64(idx)); err != nil {
		return err
	}
	// The append lands on media at issue time (matching WriteZoneSpans) so a
	// power cut during the channel sleep can tear it at a byte offset.
	start := d.env.Now()
	done := d.Channel(idx).Reserve(d.writeCost(idx, int64(len(data))) + d.faultLatency("zone-write"))
	d.noteAppend(idx, z.wp, int64(len(data)), done)
	if z.data == nil {
		z.data = make([]byte, 0, 64<<10)
	}
	z.data = append(z.data, data...)
	prev := z.state
	z.wp += int64(len(data))
	if z.state == ZoneEmpty {
		z.state = ZoneOpen
	}
	if z.wp == d.cfg.ZoneSize {
		z.state = ZoneFull
	}
	d.noteZoneTransition(prev, z.state, int64(len(data)))
	d.st.MediaWrite.Add(int64(len(data)))
	p.SleepUntil(done)
	if d.poweredOff {
		return ErrPoweredOff
	}
	d.traceMedia(p, "write", int64(len(data)), start, done)
	return nil
}

// ReadZone reads n bytes at offset off within a zone. Reads beyond the write
// pointer fail. The returned slice aliases device memory; callers must not
// mutate it.
func (d *Device) ReadZone(p *sim.Proc, idx int, off int64, n int) ([]byte, error) {
	if idx < 0 || idx >= len(d.zones) {
		return nil, ErrZoneBounds
	}
	if d.poweredOff {
		return nil, ErrPoweredOff
	}
	z := &d.zones[idx]
	if off < 0 || off+int64(n) > z.wp {
		return nil, ErrReadBeyondWP
	}
	if err := d.checkFault("zone-read", int64(idx)); err != nil {
		return nil, err
	}
	d.maybeRot("zone-read", idx, off, int64(n))
	d.busyDur(p, d.Channel(idx), "read", d.readCost(idx, int64(n))+d.faultLatency("zone-read"), int64(n))
	if d.poweredOff {
		return nil, ErrPoweredOff
	}
	if off+int64(n) > z.wp {
		return nil, ErrReadBeyondWP // a concurrent power cut tore this range
	}
	d.st.MediaRead.Add(int64(n))
	return z.data[off : off+int64(n) : off+int64(n)], nil
}

// ResetZone rewinds a zone to EMPTY, discarding its contents. Resetting an
// empty zone is a no-op (permitted by ZNS).
func (d *Device) ResetZone(p *sim.Proc, idx int) error {
	if idx < 0 || idx >= len(d.zones) {
		return ErrZoneBounds
	}
	if d.poweredOff {
		return ErrPoweredOff
	}
	z := &d.zones[idx]
	if z.state == ZoneEmpty {
		return nil
	}
	// A reset is a management command: cheap, one latency unit on the channel.
	d.busy(p, d.Channel(idx), "reset", d.cfg.WriteLatency, 0, d.cfg.WriteBandwidth)
	if d.poweredOff {
		return ErrPoweredOff
	}
	d.noteZoneTransition(z.state, ZoneEmpty, -z.wp)
	z.state = ZoneEmpty
	z.wp = 0
	z.data = nil
	return nil
}

// FinishZone transitions an OPEN zone to FULL, sealing it against writes.
func (d *Device) FinishZone(p *sim.Proc, idx int) error {
	if idx < 0 || idx >= len(d.zones) {
		return ErrZoneBounds
	}
	if d.poweredOff {
		return ErrPoweredOff
	}
	z := &d.zones[idx]
	if z.state != ZoneOpen {
		return ErrZoneState
	}
	z.state = ZoneFull
	d.noteZoneTransition(ZoneOpen, ZoneFull, 0)
	return nil
}

// openZoneCount returns the number of zones currently OPEN (inspection).
func (d *Device) OpenZones() int {
	n := 0
	for i := range d.zones {
		if d.zones[i].state == ZoneOpen {
			n++
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// Conventional namespace (block interface + simple FTL) for the baseline.

// convChannel maps an LBA to a channel, striping consecutive blocks.
func (d *Device) convChannel(lba int64) *sim.Resource {
	return d.channels[int(lba)%d.cfg.Channels]
}

// WriteBlock writes one logical block. Overwrites invalidate the previous
// physical page; when free physical blocks fall below GCThreshold the FTL
// garbage-collects (charged as extra media traffic — the block-interface tax
// ZNS avoids).
func (d *Device) WriteBlock(p *sim.Proc, lba int64, data []byte) error {
	if lba < 0 || lba >= d.cfg.ConvBlocks {
		return ErrBlockBounds
	}
	if len(data) != d.cfg.BlockSize {
		return ErrUnalignedRequest
	}
	if d.poweredOff {
		return ErrPoweredOff
	}
	if err := d.checkFault("block-write", lba); err != nil {
		return err
	}
	d.busy(p, d.convChannel(lba), "write", d.cfg.WriteLatency+d.faultLatency("block-write"), int64(len(data)), d.cfg.WriteBandwidth)
	if d.poweredOff {
		return ErrPoweredOff // the in-flight block write never hit media
	}
	if !d.convWritten[lba] {
		if d.convFree == 0 {
			return ErrDeviceCapacity
		}
		d.convWritten[lba] = true
		d.convFree--
	}
	// An overwrite consumes a fresh physical page and invalidates the old one.
	blk := d.conv[lba]
	if blk == nil {
		blk = make([]byte, d.cfg.BlockSize)
		d.conv[lba] = blk
	} else {
		d.maybeGC(p)
	}
	copy(blk, data)
	d.st.MediaWrite.Add(int64(len(data)))
	return nil
}

// ReadBlock reads one logical block; unwritten blocks read as zeros.
func (d *Device) ReadBlock(p *sim.Proc, lba int64, buf []byte) error {
	if lba < 0 || lba >= d.cfg.ConvBlocks {
		return ErrBlockBounds
	}
	if len(buf) != d.cfg.BlockSize {
		return ErrUnalignedRequest
	}
	if d.poweredOff {
		return ErrPoweredOff
	}
	if err := d.checkFault("block-read", lba); err != nil {
		return err
	}
	d.busy(p, d.convChannel(lba), "read", d.cfg.ReadLatency+d.faultLatency("block-read"), int64(len(buf)), d.cfg.ReadBandwidth)
	if d.poweredOff {
		return ErrPoweredOff
	}
	if blk := d.conv[lba]; blk != nil {
		copy(buf, blk)
	} else {
		for i := range buf {
			buf[i] = 0
		}
	}
	d.st.MediaRead.Add(int64(len(buf)))
	return nil
}

// TrimBlock marks a logical block unused, returning its physical page to the
// free pool (what ext4 issues on file deletion).
func (d *Device) TrimBlock(p *sim.Proc, lba int64) error {
	if lba < 0 || lba >= d.cfg.ConvBlocks {
		return ErrBlockBounds
	}
	if d.poweredOff {
		return ErrPoweredOff
	}
	if d.convWritten[lba] {
		delete(d.convWritten, lba)
		delete(d.conv, lba)
		d.convFree++
	}
	return nil
}

// maybeGC models FTL garbage collection pressure: when the free pool is low
// relative to live blocks, each overwrite triggers a copy-forward of victim
// pages, charged as extra media read+write traffic.
func (d *Device) maybeGC(p *sim.Proc) {
	total := float64(d.cfg.ConvBlocks) * (1 + d.cfg.OverprovisionPct)
	if float64(d.convFree)/total >= d.cfg.GCThreshold {
		return
	}
	// Copy-forward a victim's worth of valid data: modelled as moving 4
	// blocks per GC step.
	const victims = 4
	n := int64(victims * d.cfg.BlockSize)
	ch := d.channels[int(d.gcRuns)%d.cfg.Channels]
	d.busy(p, ch, "gc", d.cfg.ReadLatency+d.cfg.WriteLatency,
		2*n, d.cfg.WriteBandwidth)
	d.st.MediaRead.Add(n)
	d.st.MediaWrite.Add(n)
	d.gcRuns++
	d.gcCopied += n
}

// GCRuns returns how many GC steps the conventional FTL performed.
func (d *Device) GCRuns() int64 { return d.gcRuns }

// GCCopiedBytes returns the bytes copied forward by GC.
func (d *Device) GCCopiedBytes() int64 { return d.gcCopied }

// FreeConvBlocks returns the free physical block count of the conventional
// namespace (inspection/testing).
func (d *Device) FreeConvBlocks() int64 { return d.convFree }
