package core

import (
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"kvcsd/internal/sim"
	"kvcsd/internal/ssd"
)

// Errors from zone and cluster management.
var (
	ErrNoZones       = errors.New("core: no free zones")
	ErrClusterSealed = errors.New("core: cluster sealed")
	ErrReadBounds    = errors.New("core: read beyond cluster length")
	ErrUnverified    = errors.New("core: granule has no checksum to repair against")
)

// ZoneType labels what a zone cluster stores (paper Figure 4).
type ZoneType uint8

// Zone cluster types.
const (
	ZoneKLOG ZoneType = iota
	ZoneVLOG
	ZonePIDX
	ZoneSIDX
	ZoneSortedValues
	ZoneTemp // intermediate sort runs
)

// String names the zone type.
func (t ZoneType) String() string {
	switch t {
	case ZoneKLOG:
		return "KLOG"
	case ZoneVLOG:
		return "VLOG"
	case ZonePIDX:
		return "PIDX"
	case ZoneSIDX:
		return "SIDX"
	case ZoneSortedValues:
		return "SORTED_VALUES"
	case ZoneTemp:
		return "TEMP"
	default:
		return fmt.Sprintf("ZoneType(%d)", uint8(t))
	}
}

// ZoneManager allocates and frees zones of the underlying ZNS SSD and builds
// zone clusters. The first metadataZones zones are reserved for the
// keyspace manager's metadata.
type ZoneManager struct {
	dev *ssd.Device
	cfg Config
	rng *sim.RNG
	// free and freeCold hold each channel's free zones of the hot tier and of
	// the cold tier (the device tail), LIFO; a zone's channel is its index
	// modulo the channel count. nfree and nfreeCold count them.
	free      [][]int
	freeCold  [][]int
	nfree     int
	nfreeCold int
	// load counts the allocated zones on each channel, both tiers; cursor is
	// the channel after the last one the previous stripe took. Placement
	// reads these two, never the history of the free lists.
	load        []int
	cursor      int
	coldStart   int // zones at index >= coldStart belong to the cold tier
	used        map[int]ZoneType
	quarantined map[int]bool // retired zones: never allocated again
	clusterSeq  int64
	// sumsDirty names clusters whose checksum table changed since a metadata
	// frame last carried it. Persist writes only those tables (recovery folds
	// the rest forward) and clears their marks; a cluster not yet in the
	// keyspace table keeps its mark until it joins the table or is released.
	sumsDirty map[int64]bool
	// scratch lends the device's short-lived chunk buffers: a burst's
	// per-zone gather, an ingest flush's log bytes, a scan's read window.
	scratch bufList
	// gatherZones, gatherData and gatherCounts are gatherByZone's burst
	// layout, reused from one burst to the next.
	gatherZones  []int
	gatherData   [][]byte
	gatherCounts []int
}

// bufList is a free list of chunk buffers for work that holds a buffer
// across the yields of its I/O, where concurrent procs each need their own.
// The simulation runs one proc at a time, so it needs no lock. It keeps at
// most keptScratch buffers of scratchSize to maxScratch bytes: what a burst
// of concurrent users needs beyond that is garbage afterwards, so it is
// sized to its use, and an idle device pins no more than that.
type bufList struct {
	free [][]byte
	out  int // buffers lent and not yet handed back
}

const (
	// scratchSize is a kept buffer's least capacity: a 256 KiB scan window,
	// or a 256 KiB append's granules plus the one its tail carried.
	scratchSize = scanChunk + 4<<10
	keptScratch = 1
	maxScratch  = 1 << 20
)

// get returns a buffer of length n: a kept one that holds n, else a new one
// with capacity max(n, scratchSize) — or, while another buffer is lent out,
// of exactly n bytes, a buffer put lets go of. n = 0 asks for a buffer to
// append to, which always gets scratchSize.
func (l *bufList) get(n int) []byte {
	l.out++
	if k := len(l.free); k > 0 {
		b := l.free[k-1]
		l.free[k-1] = nil
		l.free = l.free[:k-1]
		if cap(b) >= n {
			return b[:n]
		}
	}
	if l.out > 1 && n > 0 {
		return make([]byte, n)
	}
	return make([]byte, n, max(n, scratchSize))
}

// put hands a buffer back. Its bytes are poisoned (see poisonReleased): no
// view of them may outlive this call.
func (l *bufList) put(b []byte) {
	l.out--
	poison(b[:cap(b)])
	if len(l.free) < keptScratch && cap(b) >= scratchSize && cap(b) <= maxScratch {
		l.free = append(l.free, b)
	}
}

// NewZoneManager creates a manager over all non-reserved zones. The device's
// trailing ColdZones (if configured) form a separate cold-tier pool used only
// by explicit cold migration, never by regular allocation.
func NewZoneManager(dev *ssd.Device, cfg Config, rng *sim.RNG) *ZoneManager {
	chans := dev.ChannelCount()
	zm := &ZoneManager{dev: dev, cfg: cfg, rng: rng, used: make(map[int]ZoneType),
		quarantined: make(map[int]bool), sumsDirty: make(map[int64]bool),
		free: make([][]int, chans), freeCold: make([][]int, chans), load: make([]int, chans)}
	zm.coldStart = dev.NumZones()
	if cz := dev.Config().ColdZones; cz > 0 && cz < dev.NumZones()-metadataZones {
		zm.coldStart = dev.NumZones() - cz
	}
	for i := dev.NumZones() - 1; i >= metadataZones; i-- {
		zm.pushFree(i)
	}
	// The first stripe starts on the first allocatable zone's channel, so an
	// even start takes zones in index order.
	zm.cursor = zm.chanOf(metadataZones)
	return zm
}

// chanOf returns the channel a zone maps to (ssd.Device.Channel).
func (zm *ZoneManager) chanOf(z int) int { return z % len(zm.load) }

// pushFree returns a zone to its channel's free list in its tier.
func (zm *ZoneManager) pushFree(z int) {
	c := zm.chanOf(z)
	if zm.IsColdZone(z) {
		zm.freeCold[c] = append(zm.freeCold[c], z)
		zm.nfreeCold++
	} else {
		zm.free[c] = append(zm.free[c], z)
		zm.nfree++
	}
}

// popFree takes the last zone freed on channel c from pool (zm.free or
// zm.freeCold) and allocates it as type t.
func (zm *ZoneManager) popFree(pool [][]int, c int, t ZoneType) int {
	z := pool[c][len(pool[c])-1]
	pool[c] = pool[c][:len(pool[c])-1]
	if zm.IsColdZone(z) {
		zm.nfreeCold--
	} else {
		zm.nfree--
	}
	zm.used[z] = t
	zm.load[c]++
	return z
}

// IsColdZone reports whether a zone index belongs to the cold tier.
func (zm *ZoneManager) IsColdZone(z int) bool { return z >= zm.coldStart }

// ColdCapacity returns the number of unallocated cold-tier zones.
func (zm *ZoneManager) ColdCapacity() int { return zm.nfreeCold }

// channelUtil reports the fraction of SSD channels with a reservation
// backlog right now — the planner's device-I/O-pressure signal.
func (zm *ZoneManager) channelUtil() float64 { return zm.dev.ChannelBacklog() }

// channelBusyTimes returns per-channel busy time (see ssd.ChannelBusyTimes).
func (zm *ZoneManager) channelBusyTimes(out []sim.Duration) []sim.Duration {
	return zm.dev.ChannelBusyTimes(out)
}

// Device returns the underlying SSD.
func (zm *ZoneManager) Device() *ssd.Device { return zm.dev }

// FreeZones returns the number of unallocated hot-tier zones.
func (zm *ZoneManager) FreeZones() int { return zm.nfree }

// UsedZones returns the number of allocated zones.
func (zm *ZoneManager) UsedZones() int { return len(zm.used) }

// UsedByType counts allocated zones per type (inspection).
func (zm *ZoneManager) UsedByType() map[ZoneType]int {
	out := make(map[ZoneType]int)
	for _, t := range zm.used {
		out[t]++
	}
	return out
}

// QuarantinedZones returns the number of zones retired from allocation.
func (zm *ZoneManager) QuarantinedZones() int { return len(zm.quarantined) }

// quarantine retires a zone: it leaves the used set and never re-enters the
// free pool, modelling a worn-out region of media the FTL maps out.
func (zm *ZoneManager) quarantine(z int) {
	if zm.quarantined[z] {
		return
	}
	zm.quarantined[z] = true
	zm.unuse(z)
	zm.dropFree(z)
	zm.dev.Stats().QuarantinedZones.Add(1)
}

// unuse drops a zone from the used set and its channel's load.
func (zm *ZoneManager) unuse(z int) {
	if _, ok := zm.used[z]; ok {
		delete(zm.used, z)
		zm.load[zm.chanOf(z)]--
	}
}

// dropFree removes a zone from whichever free list holds it.
func (zm *ZoneManager) dropFree(z int) {
	pool, n := zm.free, &zm.nfree
	if zm.IsColdZone(z) {
		pool, n = zm.freeCold, &zm.nfreeCold
	}
	c := zm.chanOf(z)
	if i := slices.Index(pool[c], z); i >= 0 {
		pool[c] = slices.Delete(pool[c], i, i+1)
		*n--
	}
}

// leastLoaded returns the channel with a zone free in pool whose load is
// lowest, ties going to the first from the cursor on; skip (may be nil)
// rules channels out. It returns -1 when no channel qualifies.
func (zm *ZoneManager) leastLoaded(pool [][]int, skip func(c int) bool) int {
	best := -1
	for i := range pool {
		c := (zm.cursor + i) % len(pool)
		if len(pool[c]) > 0 && (skip == nil || !skip(c)) && (best < 0 || zm.load[c] < zm.load[best]) {
			best = c
		}
	}
	return best
}

// pickChannel returns the least-loaded channel with a free hot zone that
// holds no zone of stripe or of the apart clusters; failing that, one that
// holds no zone of stripe; failing that, any with a free hot zone.
func (zm *ZoneManager) pickChannel(stripe []int, apart []*Cluster) int {
	on := func(zones []int, c int) bool {
		return slices.ContainsFunc(zones, func(z int) bool { return zm.chanOf(z) == c })
	}
	inStripe := func(c int) bool { return on(stripe, c) }
	held := func(c int) bool {
		return inStripe(c) || slices.ContainsFunc(apart, func(a *Cluster) bool {
			return slices.ContainsFunc(a.stripes, func(s []int) bool { return on(s, c) })
		})
	}
	if c := zm.leastLoaded(zm.free, held); c >= 0 {
		return c
	}
	if c := zm.leastLoaded(zm.free, inStripe); c >= 0 {
		return c
	}
	return zm.leastLoaded(zm.free, nil)
}

// allocZone takes a single zone to replace bad in stripe (zone replacement):
// from bad's own channel if it has a free zone, else from the channel
// pickChannel names.
func (zm *ZoneManager) allocZone(t ZoneType, bad int, stripe []int) (int, error) {
	if zm.nfree == 0 {
		return 0, fmt.Errorf("%w: need 1, have 0", ErrNoZones)
	}
	c := zm.chanOf(bad)
	if len(zm.free[c]) == 0 {
		c = zm.pickChannel(stripe, nil)
	}
	return zm.popFree(zm.free, c, t), nil
}

// allocColdZone takes a single zone from the cold-tier pool (cold migration),
// on its least-loaded channel.
func (zm *ZoneManager) allocColdZone(t ZoneType) (int, error) {
	if zm.nfreeCold == 0 {
		return 0, fmt.Errorf("%w: cold tier exhausted", ErrNoZones)
	}
	return zm.popFree(zm.freeCold, zm.leastLoaded(zm.freeCold, nil), t), nil
}

// allocStripe takes StripeWidth zones on distinct channels: the least-loaded
// channels with a free zone, ties going round-robin from the cursor, which
// then moves past the last channel taken. Placement thus follows each
// channel's allocated zones, not the order zones were freed in: which
// channels a cluster gets no longer depends on which scratch clusters were
// released before it. Channels that hold a zone of an apart cluster — one
// streamed in the same pass as the stripe's — come last: a zone goes there
// only when every other channel with a free zone is in the stripe already. A
// stripe wider than the channels with a free zone reuses channels. Each zone
// costs one pass over the channels, checking each against the stripe so far
// and the apart clusters' zones: O(channels x (StripeWidth + apart zones) x
// StripeWidth) per stripe, no scan of a free list or of the used set, and no
// allocation besides the stripe.
func (zm *ZoneManager) allocStripe(t ZoneType, apart ...*Cluster) ([]int, error) {
	w := zm.cfg.StripeWidth
	if zm.nfree < w {
		return nil, fmt.Errorf("%w: need %d, have %d", ErrNoZones, w, zm.nfree)
	}
	stripe := make([]int, 0, w)
	for range w {
		stripe = append(stripe, zm.popFree(zm.free, zm.pickChannel(stripe, apart), t))
	}
	zm.cursor = (zm.chanOf(stripe[w-1]) + 1) % len(zm.free)
	return stripe, nil
}

// claim marks a zone as used (metadata recovery path): it is removed from
// the free pool without being reset.
func (zm *ZoneManager) claim(z int, t ZoneType) {
	if _, ok := zm.used[z]; ok {
		return
	}
	zm.used[z] = t
	zm.load[zm.chanOf(z)]++
	zm.dropFree(z)
}

// release resets one cluster's zones as one burst (ssd.ResetZones) and
// returns them to the pool. Quarantined zones are reset but stay retired. A
// burst that fails — the device lost power — returns none of them: they are
// left to the recovery sweep. Zones of several clusters are released one
// cluster at a time; batching them into one burst moves the collaborative
// compaction's shape (DESIGN.md §3, "Reset bursts").
func (zm *ZoneManager) release(p *sim.Proc, zones []int) error {
	if err := zm.dev.ResetZones(p, zones); err != nil {
		return err
	}
	for _, z := range zones {
		zm.unuse(z)
		if !zm.quarantined[z] {
			zm.pushFree(z)
		}
	}
	return nil
}

// NewCluster creates an empty zone cluster of the given type. Zones are
// allocated lazily on first write, off the channels of the apart clusters
// while others have free zones (allocStripe). The cluster's random stripe
// offset (paper §IV, Zone Manager) spreads concurrent writers over distinct
// SSD channels.
func (zm *ZoneManager) NewCluster(t ZoneType, apart ...*Cluster) *Cluster {
	zm.clusterSeq++
	return &Cluster{
		zm:      zm,
		id:      zm.clusterSeq,
		typ:     t,
		apart:   apart,
		offset:  zm.rng.Intn(zm.cfg.StripeWidth),
		blockSz: zm.cfg.BlockBytes,
		perZone: int(zm.dev.ZoneSize()) / zm.cfg.BlockBytes,
	}
}

// Cluster is a logical append-only byte stream striped over groups of zones.
// Writes land in BlockBytes granules distributed round-robin (with the
// cluster's random starting offset) over the zones of the current stripe;
// reads reassemble the logical stream. A partial tail granule lives in SoC
// DRAM until enough bytes arrive or the cluster is sealed.
type Cluster struct {
	zm      *ZoneManager
	id      int64
	typ     ZoneType
	stripes [][]int
	apart   []*Cluster // clusters its stripes keep off the channels of
	offset  int        // random starting zone within each stripe
	blockSz int
	perZone int // granules per zone
	length  int64
	tail    []byte
	sealed  bool
	// sums holds one CRC32-C per flushed granule; 0 means unverified (the
	// sentinel costs one in 2^32 granules their coverage, which the scrubber
	// simply skips). Granules past len(sums) are also unverified — snapshots
	// taken before a crash cover only what they saw.
	sums []uint32
}

// Type returns what the cluster stores.
func (c *Cluster) Type() ZoneType { return c.typ }

// Len returns the logical byte length (including the DRAM tail).
func (c *Cluster) Len() int64 { return c.length }

// Zones returns all zones backing the cluster, stripe by stripe.
func (c *Cluster) Zones() []int {
	var out []int
	for _, s := range c.stripes {
		out = append(out, s...)
	}
	return out
}

// granulesPerStripe returns how many granules one stripe holds.
func (c *Cluster) granulesPerStripe() int {
	return c.zm.cfg.StripeWidth * c.perZone
}

// locate maps a granule index to (zone, byte offset inside zone).
func (c *Cluster) locate(granule int64) (zone int, off int64) {
	gps := int64(c.granulesPerStripe())
	stripe := granule / gps
	gs := granule % gps
	w := int64(c.zm.cfg.StripeWidth)
	zone = c.stripes[stripe][(int64(c.offset)+gs)%w]
	off = (gs / w) * int64(c.blockSz)
	return zone, off
}

// ensureStripe allocates stripes until granule fits.
func (c *Cluster) ensureStripe(granule int64) error {
	gps := int64(c.granulesPerStripe())
	for int64(len(c.stripes))*gps <= granule {
		s, err := c.zm.allocStripe(c.typ, c.apart...)
		if err != nil {
			return err
		}
		c.stripes = append(c.stripes, s)
	}
	return nil
}

// Append adds data to the logical stream. Full granules are gathered into
// per-zone write bursts (one large sequential write per zone, issued in
// parallel across channels); the ragged tail stays buffered. data is copied
// into the tail before Append first yields, so while this proc waits on the
// media another may already refill the caller's buffer — the shared scratch
// buffers and the block writers rely on that.
func (c *Cluster) Append(p *sim.Proc, data []byte) error {
	if c.sealed {
		return ErrClusterSealed
	}
	c.tail = append(c.tail, data...)
	c.length += int64(len(data))
	for len(c.tail) >= c.blockSz {
		full := len(c.tail) / c.blockSz
		first := (c.length - int64(len(c.tail))) / int64(c.blockSz)
		// Batch at most up to the end of the current stripe so every zone's
		// burst stays sequential at its write pointer.
		gps := int64(c.granulesPerStripe())
		stripeEnd := (first/gps + 1) * gps
		if first+int64(full) > stripeEnd {
			full = int(stripeEnd - first)
		}
		if err := c.ensureStripe(first + int64(full) - 1); err != nil {
			return err
		}
		buf := c.zm.scratch.get(full * c.blockSz)
		zones, data := c.gatherByZone(first, full, buf)
		err := c.zm.dev.WriteZoneSpans(p, zones, data)
		clear(data) // the kept layout must not pin buf
		c.zm.scratch.put(buf)
		if err != nil {
			return err
		}
		for g := 0; g < full; g++ {
			c.noteGranule(first+int64(g), c.tail[g*c.blockSz:(g+1)*c.blockSz])
		}
		// Move the remainder to the front instead of reslicing past it: the
		// tail keeps its capacity, so the next Append does not reallocate it.
		c.tail = c.tail[:copy(c.tail, c.tail[full*c.blockSz:])]
	}
	return nil
}

// gatherByZone copies the first full granules of the tail (granules first,
// first+1, ... of the cluster, all within one stripe) into one contiguous
// span of buf per zone, zones in order of first use: granules of one zone are
// stride-W apart in the logical stream but contiguous inside the zone. buf
// holds exactly full granules. The layout slices are the zone manager's and
// the next burst reuses them: WriteZoneSpans copies the spans into the zones
// before it first yields, and Append reads none of them after it returns.
func (c *Cluster) gatherByZone(first int64, full int, buf []byte) (zones []int, data [][]byte) {
	zm := c.zm
	zones, data, counts := zm.gatherZones[:0], zm.gatherData[:0], zm.gatherCounts[:0]
	slot := func(zone int) int {
		for i, z := range zones {
			if z == zone {
				return i
			}
		}
		return -1
	}
	for g := 0; g < full; g++ {
		zone, _ := c.locate(first + int64(g))
		i := slot(zone)
		if i < 0 {
			i = len(zones)
			zones = append(zones, zone)
			counts = append(counts, 0)
		}
		counts[i]++
	}
	for _, n := range counts {
		data, buf = append(data, buf[:0:n*c.blockSz]), buf[n*c.blockSz:]
	}
	for g := 0; g < full; g++ {
		zone, _ := c.locate(first + int64(g))
		i := slot(zone)
		data[i] = append(data[i], c.tail[g*c.blockSz:(g+1)*c.blockSz]...)
	}
	zm.gatherZones, zm.gatherData, zm.gatherCounts = zones, data, counts
	return zones, data
}

// noteGranule records the checksum of one flushed granule's full bytes.
func (c *Cluster) noteGranule(g int64, b []byte) {
	for int64(len(c.sums)) <= g {
		c.sums = append(c.sums, 0)
	}
	c.sums[g] = crc32.Checksum(b, castagnoli)
	c.markSums()
}

// markSums flags the cluster's checksum table as changed so the next metadata
// frame persists it. Every mutation of c.sums must call this.
func (c *Cluster) markSums() {
	c.zm.sumsDirty[c.id] = true
}

// Seal flushes the tail (zero-padded to a granule) and freezes the cluster.
// The logical length is unchanged; padding is invisible to readers.
func (c *Cluster) Seal(p *sim.Proc) error {
	if c.sealed {
		return nil
	}
	if len(c.tail) > 0 {
		granule := (c.length - int64(len(c.tail))) / int64(c.blockSz)
		if err := c.ensureStripe(granule); err != nil {
			return err
		}
		zone, _ := c.locate(granule)
		padded := make([]byte, c.blockSz)
		copy(padded, c.tail)
		if err := c.zm.dev.WriteZone(p, zone, padded); err != nil {
			return err
		}
		c.noteGranule(granule, padded)
	}
	c.tail = nil // Append kept its capacity for a next Append; there is none
	c.sealed = true
	return nil
}

// Sealed reports whether the cluster is frozen.
func (c *Cluster) Sealed() bool { return c.sealed }

// ReadAt fills buf from logical offset off, crossing granule and stripe
// boundaries as needed. Granules are grouped into one contiguous span per
// zone and issued as a parallel burst across channels (large-request ZNS
// reads). Unsealed tails are served from DRAM.
func (c *Cluster) ReadAt(p *sim.Proc, buf []byte, off int64) error {
	if off < 0 || off+int64(len(buf)) > c.length {
		return ErrReadBounds
	}
	flushed := c.length - int64(len(c.tail))
	n := 0
	for n < len(buf) {
		pos := off + int64(n)
		if pos >= flushed {
			n += copy(buf[n:], c.tail[pos-flushed:])
			continue
		}
		end := off + int64(len(buf))
		if end > flushed {
			end = flushed
		}
		if err := c.readFlushed(p, buf[n:n+int(end-pos)], pos); err != nil {
			return err
		}
		n += int(end - pos)
	}
	return nil
}

// granuleRef remembers where each granule's bytes land in the caller buffer.
type granuleRef struct {
	granule int64
	spanIdx int
	spanOff int64
}

// readFlushed reads a fully flushed byte range via per-zone span bursts.
func (c *Cluster) readFlushed(p *sim.Proc, buf []byte, off int64) error {
	firstG := off / int64(c.blockSz)
	lastG := (off + int64(len(buf)) - 1) / int64(c.blockSz)

	// A point read touches one granule, or a few that sit in one zone: that
	// is a single span, built in place.
	zone, zoff := c.locate(firstG)
	oneZone := true
	for g := firstG + 1; g <= lastG && oneZone; g++ {
		z, _ := c.locate(g)
		oneZone = z == zone
	}
	if oneZone {
		req := [1]ssd.ZoneSpan{{Zone: zone, Off: zoff, N: int(lastG-firstG+1) * c.blockSz}}
		datas, err := c.zm.dev.ReadZoneSpans(p, req[:])
		if err != nil {
			return err
		}
		return c.scatterSpan(buf, off, zone, zoff, firstG, datas[0])
	}

	// Group consecutive granules per zone into spans (contiguous in-zone), in
	// the order their zones first appear. A range touches a stripe's few
	// zones, so a linear search beats a map.
	req := make([]ssd.ZoneSpan, 0, c.zm.cfg.StripeWidth+1)
	first := make([]int64, 0, c.zm.cfg.StripeWidth+1) // each span's first granule
	for g := firstG; g <= lastG; g++ {
		zone, zoff := c.locate(g)
		i := 0
		for i < len(req) && req[i].Zone != zone {
			i++
		}
		if i < len(req) {
			// Flushed granules are always whole blocks: no clamp to the
			// zone write pointer is needed.
			req[i].N += c.blockSz
		} else {
			req = append(req, ssd.ZoneSpan{Zone: zone, Off: zoff, N: c.blockSz})
			first = append(first, g)
		}
	}
	datas, err := c.zm.dev.ReadZoneSpans(p, req)
	if err != nil {
		return err
	}
	for i, s := range req {
		if err := c.scatterSpan(buf, off, s.Zone, s.Off, first[i], datas[i]); err != nil {
			return err
		}
	}
	return nil
}

// scatterSpan copies one zone span's bytes (granules firstG, firstG+W, ... of
// the cluster, read from in-zone offset start) into the caller buffer, which
// holds logical range [off, off+len(buf)), verifying each whole granule
// against its recorded checksum on the way (spans are granule aligned, so
// verification needs no extra I/O).
func (c *Cluster) scatterSpan(buf []byte, off int64, zone int, start, firstG int64, data []byte) error {
	w := int64(c.zm.cfg.StripeWidth)
	verify := !c.zm.cfg.DisableVerify
	for k := int64(0); k*int64(c.blockSz) < int64(len(data)); k++ {
		g := firstG + k*w
		if verify && g < int64(len(c.sums)) && c.sums[g] != 0 {
			block := data[k*int64(c.blockSz) : (k+1)*int64(c.blockSz)]
			if crc32.Checksum(block, castagnoli) != c.sums[g] {
				c.zm.dev.Stats().CorruptDetected.Add(1)
				return &CorruptionError{Type: c.typ, Cluster: c.id, Granule: g,
					Zone: zone, ZoneOff: start + k*int64(c.blockSz)}
			}
		}
		gStart := g * int64(c.blockSz) // logical offset of granule start
		// Intersect [gStart, gStart+blockSz) with [off, off+len(buf)).
		lo := gStart
		if lo < off {
			lo = off
		}
		hi := gStart + int64(c.blockSz)
		if hi > off+int64(len(buf)) {
			hi = off + int64(len(buf))
		}
		if lo >= hi {
			continue
		}
		srcOff := k*int64(c.blockSz) + (lo - gStart)
		copy(buf[lo-off:hi-off], data[srcOff:srcOff+(hi-lo)])
	}
	return nil
}

// Release resets the cluster's zones and returns them to the pool.
func (c *Cluster) Release(p *sim.Proc) error {
	var zones []int
	for _, s := range c.stripes {
		zones = append(zones, s...)
	}
	c.stripes = nil
	c.tail = nil
	c.length = 0
	c.sealed = true
	c.sums = nil
	delete(c.zm.sumsDirty, c.id)
	return c.zm.release(p, zones)
}

// mediaGranules returns how many granules have media backing: flushed bytes
// rounded up, because Seal pads the final partial granule onto media.
func (c *Cluster) mediaGranules() int64 {
	fl := c.length - int64(len(c.tail))
	return (fl + int64(c.blockSz) - 1) / int64(c.blockSz)
}

// errReleased reports a cluster released while a scan of it was reading: the
// bytes read may belong to the zones' next owner.
var errReleased = errors.New("core: cluster released during the scan")

// corruptGranule is one granule a scan found corrupt, with the zone that held
// it when the scan read it.
type corruptGranule struct {
	g    int64
	zone int
}

// scanGranules reads back the flushed granules in [lo, hi] (clamped to media)
// and checks each against its recorded checksum, returning the corrupt
// granules in order plus the bytes read. Granules without coverage are read
// but not judged. Every granule's zone is resolved before the read yields; a
// cluster released during the read (compaction retiring a log, keyspace
// deletion) fails the scan with errReleased. Counters are the caller's job —
// the scrubber owns its own accounting, and a scan must not double-count with
// the read path.
func (c *Cluster) scanGranules(p *sim.Proc, lo, hi int64) ([]corruptGranule, int64, error) {
	if mg := c.mediaGranules(); hi >= mg {
		hi = mg - 1
	}
	if lo < 0 {
		lo = 0
	}
	if lo > hi {
		return nil, 0, nil
	}
	// Group consecutive granules per zone into spans, as readFlushed does.
	type spanAcc struct {
		zone   int
		start  int64
		n      int64
		firstG int64
	}
	spans := make(map[int]*spanAcc)
	var order []int
	zones := make([]int, 0, hi-lo+1)
	for g := lo; g <= hi; g++ {
		zone, zoff := c.locate(g)
		zones = append(zones, zone)
		if acc, ok := spans[zone]; ok {
			acc.n += int64(c.blockSz)
		} else {
			spans[zone] = &spanAcc{zone: zone, start: zoff, n: int64(c.blockSz), firstG: g}
			order = append(order, zone)
		}
	}
	req := make([]ssd.ZoneSpan, len(order))
	for i, z := range order {
		acc := spans[z]
		req[i] = ssd.ZoneSpan{Zone: acc.zone, Off: acc.start, N: int(acc.n)}
	}
	datas, err := c.zm.dev.ReadZoneSpans(p, req)
	if err != nil {
		return nil, 0, err
	}
	if c.stripes == nil {
		return nil, 0, errReleased
	}
	byZone := make(map[int][]byte, len(order))
	for i, z := range order {
		byZone[z] = datas[i]
	}
	var corrupt []corruptGranule
	var scanned int64
	w := int64(c.zm.cfg.StripeWidth)
	for g := lo; g <= hi; g++ {
		zone := zones[g-lo]
		acc := spans[zone]
		k := (g - acc.firstG) / w
		block := byZone[zone][k*int64(c.blockSz) : (k+1)*int64(c.blockSz)]
		scanned += int64(c.blockSz)
		if g >= int64(len(c.sums)) || c.sums[g] == 0 {
			continue
		}
		if crc32.Checksum(block, castagnoli) != c.sums[g] {
			corrupt = append(corrupt, corruptGranule{g: g, zone: zone})
		}
	}
	return corrupt, scanned, nil
}

// ReadGranule returns the full media bytes of one flushed granule, verified
// against its checksum — the donor side of replica repair must never hand out
// poisoned bytes. The returned slice is a copy.
func (c *Cluster) ReadGranule(p *sim.Proc, g int64) ([]byte, error) {
	if g < 0 || g >= c.mediaGranules() {
		return nil, ErrReadBounds
	}
	zone, off := c.locate(g)
	data, err := c.zm.dev.ReadZone(p, zone, off, c.blockSz)
	if err != nil {
		return nil, err
	}
	if !c.zm.cfg.DisableVerify && g < int64(len(c.sums)) && c.sums[g] != 0 &&
		crc32.Checksum(data, castagnoli) != c.sums[g] {
		c.zm.dev.Stats().CorruptDetected.Add(1)
		return nil, &CorruptionError{Type: c.typ, Cluster: c.id, Granule: g, Zone: zone, ZoneOff: off}
	}
	out := make([]byte, len(data))
	copy(out, data) // ReadZone aliases the zone buffer
	return out, nil
}

// RepairGranule rewrites one granule in place from a healthy copy. The payload
// must match the recorded checksum — repair must never launder wrong bytes
// into a verified granule — so unverified granules refuse repair and a payload
// that fails the check (the donor replica was itself corrupt) is rejected as
// ErrCorrupted.
func (c *Cluster) RepairGranule(p *sim.Proc, g int64, data []byte) error {
	if g < 0 || g >= c.mediaGranules() {
		return ErrReadBounds
	}
	if len(data) != c.blockSz {
		return fmt.Errorf("core: repair payload %d bytes, granule is %d", len(data), c.blockSz)
	}
	if g >= int64(len(c.sums)) || c.sums[g] == 0 {
		return ErrUnverified
	}
	if crc32.Checksum(data, castagnoli) != c.sums[g] {
		return fmt.Errorf("%w: repair payload fails granule %d checksum", ErrCorrupted, g)
	}
	zone, off := c.locate(g)
	if err := c.zm.dev.Rewrite(p, zone, off, data); err != nil {
		return err
	}
	c.zm.dev.Stats().RepairedExtents.Add(1)
	return nil
}

// replaceZone rebuilds one stripe member onto a freshly allocated zone and
// quarantines the old one: the written bytes are copied as-is (corrupt
// granules keep mismatching their checksums until replica repair rewrites
// them), the stripe entry is swapped, and the bad zone is retired from
// allocation. Returns the replacement zone.
func (c *Cluster) replaceZone(p *sim.Proc, bad int) (int, error) {
	si, sj := -1, -1
	for i, s := range c.stripes {
		for j, z := range s {
			if z == bad {
				si, sj = i, j
			}
		}
	}
	if si < 0 {
		return 0, fmt.Errorf("core: zone %d not in cluster %d", bad, c.id)
	}
	fresh, err := c.zm.allocZone(c.typ, bad, c.stripes[si])
	if err != nil {
		return 0, err
	}
	info, err := c.zm.dev.Zone(bad)
	if err != nil {
		return 0, err
	}
	if info.WritePointer > 0 {
		data, err := c.zm.dev.ReadZone(p, bad, 0, int(info.WritePointer))
		if err != nil {
			return 0, err
		}
		cp := make([]byte, len(data))
		copy(cp, data)
		if err := c.zm.dev.WriteZone(p, fresh, cp); err != nil {
			return 0, err
		}
	}
	c.stripes[si][sj] = fresh
	c.zm.quarantine(bad)
	return fresh, nil
}

// migrateZone copies one stripe member onto a freshly allocated cold-tier
// zone and swaps the stripe entry — lifetime-aware placement moving a cold
// zone onto the cheap/slow tier. The old zone is NOT released here: callers
// persist metadata (which then references the fresh zone) first and release
// afterwards — the same persist-before-release invariant compaction uses, so
// a power cut leaves the old zone as an orphan for the recovery sweep rather
// than a dangling reference.
func (c *Cluster) migrateZone(p *sim.Proc, old int) (int, error) {
	si, sj := -1, -1
	for i, s := range c.stripes {
		for j, z := range s {
			if z == old {
				si, sj = i, j
			}
		}
	}
	if si < 0 {
		return 0, fmt.Errorf("core: zone %d not in cluster %d", old, c.id)
	}
	fresh, err := c.zm.allocColdZone(c.typ)
	if err != nil {
		return 0, err
	}
	info, err := c.zm.dev.Zone(old)
	if err != nil {
		return 0, err
	}
	if info.WritePointer > 0 {
		data, err := c.zm.dev.ReadZone(p, old, 0, int(info.WritePointer))
		if err != nil {
			return 0, err
		}
		cp := make([]byte, len(data))
		copy(cp, data)
		if err := c.zm.dev.WriteZone(p, fresh, cp); err != nil {
			return 0, err
		}
	}
	c.stripes[si][sj] = fresh
	return fresh, nil
}

// zoneGranules lists the granule indexes stored on one stripe member, in
// ascending order — the heat scan for cold-migration candidacy.
func (c *Cluster) zoneGranules(zone int) []int64 {
	var out []int64
	mg := c.mediaGranules()
	for g := int64(0); g < mg; g++ {
		if z, _ := c.locate(g); z == zone {
			out = append(out, g)
		}
	}
	return out
}
