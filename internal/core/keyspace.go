package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"time"

	"kvcsd/internal/compaction"
	"kvcsd/internal/keyenc"
	"kvcsd/internal/sim"
	"kvcsd/internal/ssd"
)

// KeyspaceState is the paper's keyspace lifecycle (§IV, Keyspace Manager).
type KeyspaceState uint8

// Keyspace states.
const (
	StateEmpty KeyspaceState = iota
	StateWritable
	StateCompacting
	StateCompacted
)

// String names the state as the paper does.
func (s KeyspaceState) String() string {
	switch s {
	case StateEmpty:
		return "EMPTY"
	case StateWritable:
		return "WRITABLE"
	case StateCompacting:
		return "COMPACTING"
	case StateCompacted:
		return "COMPACTED"
	default:
		return fmt.Sprintf("KeyspaceState(%d)", uint8(s))
	}
}

// Errors from keyspace management.
var (
	ErrKeyspaceExists   = errors.New("core: keyspace already exists")
	ErrKeyspaceNotFound = errors.New("core: keyspace not found")
	ErrKeyspaceState    = errors.New("core: operation invalid in keyspace state")
	ErrIndexExists      = errors.New("core: secondary index already exists")
	ErrIndexNotFound    = errors.New("core: secondary index not found")
	ErrMetaCorrupt      = errors.New("core: metadata zone corrupt")
)

// sketchEntry is one pivot of a PIDX/SIDX sketch: the first key of a 4 KiB
// index block plus the block's ordinal (paper §V: "a pivot ... key and a
// block pointer for every constituent ... data block").
type sketchEntry struct {
	pivot []byte
	block int64
}

// secondaryIndex holds one built (or building) secondary index.
type secondaryIndex struct {
	spec    SecondarySpec
	cluster *Cluster
	sketch  []sketchEntry
	done    *sim.Event // fires when construction completes
	buildNS time.Duration
}

// Keyspace is one application keyspace: a container of key-value pairs with
// its own zone clusters, state, and indexes.
type Keyspace struct {
	name  string
	state KeyspaceState

	// Ingest side.
	klog, vlog *Cluster
	buf        []bufferedPair
	bufBytes   int
	// logFrames tracks which KLOG byte ranges hold validated CRC frames;
	// crash recovery can leave dead-byte holes between extents.
	logFrames []frameExtent

	// Compacted side.
	pidx, sorted *Cluster
	sketch       []sketchEntry

	count  int64 // live pairs (post-compaction: deduplicated)
	bytes  int64 // application bytes inserted
	minKey []byte
	maxKey []byte

	secondary map[string]*secondaryIndex

	compactDone   *sim.Event
	compactStart  sim.Time
	compactFinish sim.Time
	compactErr    error // last compaction attempt's failure, nil once one succeeds
	pendingDelete bool

	// ingestLock serializes buffer and log-cluster mutation: the device may
	// dispatch commands for one keyspace on several SoC cores at once.
	ingestLock *sim.Resource

	// combinedSeq numbers insertions in the DisableKVSeparation ablation.
	combinedSeq uint64

	// heat counts reads per SORTED_VALUES granule since the last compaction
	// (or migration pass) — the lifetime signal cold-tier placement acts on.
	// Persisted with the metadata snapshot so restarts keep placement history.
	heat *compaction.HeatTable
	// progress is the live compaction-progress snapshot stats report.
	progress compaction.Progress
	// pipelineOcc is this keyspace's share of buffered pipeline chunks.
	pipelineOcc int
}

// bufferedPair is one staged pair; key and value view the slab of the command
// that carried it (see Engine.ingest).
type bufferedPair struct {
	key   []byte
	value []byte
	tomb  bool // deletion marker (paper §I: bulk deletes)
}

// resetBuffer empties the ingest buffer after a flush. The slots are cleared
// before the slice is reused, so pairs already written do not pin their
// commands' slabs until the next flush overwrites them.
func (ks *Keyspace) resetBuffer() {
	clear(ks.buf)
	ks.buf = ks.buf[:0]
	ks.bufBytes = 0
}

// Name returns the keyspace name.
func (ks *Keyspace) Name() string { return ks.name }

// State returns the current lifecycle state.
func (ks *Keyspace) State() KeyspaceState { return ks.state }

// Count returns the number of live pairs.
func (ks *Keyspace) Count() int64 { return ks.count }

// Bytes returns total application bytes inserted.
func (ks *Keyspace) Bytes() int64 { return ks.bytes }

// MinKey and MaxKey return the key bounds (nil when empty).
func (ks *Keyspace) MinKey() []byte { return ks.minKey }

// MaxKey returns the largest key.
func (ks *Keyspace) MaxKey() []byte { return ks.maxKey }

// SecondaryIndexNames returns the names of built secondary indexes, sorted.
func (ks *Keyspace) SecondaryIndexNames() []string {
	var names []string
	for n, si := range ks.secondary {
		if si.done.Fired() {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// secondaryNames returns every secondary index name (built or not), sorted,
// so cluster teardown walks them in a deterministic order.
func (ks *Keyspace) secondaryNames() []string {
	var names []string
	for n := range ks.secondary {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CompactErr reports why the last compaction attempt failed (nil while one
// is running or after one succeeds). Status polls surface it so waiters see
// a typed failure — e.g. ErrCorrupted from a rotted log extent — instead of
// polling a keyspace that will never reach COMPACTED.
func (ks *Keyspace) CompactErr() error { return ks.compactErr }

// CompactionProgress returns the live compaction-progress snapshot.
func (ks *Keyspace) CompactionProgress() compaction.Progress { return ks.progress }

// Heat returns the per-granule read-heat table (nil before first compaction).
func (ks *Keyspace) Heat() *compaction.HeatTable { return ks.heat }

// touchHeat records foreground reads of n bytes at byte offset off in the
// keyspace's SORTED_VALUES cluster, bumping every granule the span covers.
func (ks *Keyspace) touchHeat(off int64, n int, blockSize int) {
	if ks.heat == nil || n <= 0 || blockSize <= 0 {
		return
	}
	for g := off / int64(blockSize); g <= (off+int64(n)-1)/int64(blockSize); g++ {
		ks.heat.Touch(int(g))
	}
}

// CompactionDuration returns how long device-side compaction took (0 until
// it finishes).
func (ks *Keyspace) CompactionDuration() time.Duration {
	if ks.compactFinish == 0 {
		return 0
	}
	return time.Duration(ks.compactFinish - ks.compactStart)
}

// ZoneCount returns the total zones backing the keyspace.
func (ks *Keyspace) ZoneCount() int {
	n := 0
	for _, c := range []*Cluster{ks.klog, ks.vlog, ks.pidx, ks.sorted} {
		if c != nil {
			n += len(c.Zones())
		}
	}
	for _, si := range ks.secondary {
		if si.cluster != nil {
			n += len(si.cluster.Zones())
		}
	}
	return n
}

// Manager is the keyspace manager: the in-memory keyspace table backed by a
// metadata zone for persistence (paper §IV).
type Manager struct {
	cfg   Config
	zm    *ZoneManager
	env   *sim.Env
	table map[string]*Keyspace
	// onRelease lets the engine invalidate cached index blocks when a
	// keyspace's clusters are released.
	onRelease func(clusterID int64)

	metaSeq     uint64
	activeMeta  int // which metadata zone receives appends
	persistLock *sim.Resource
}

// NewManager creates a keyspace manager.
func NewManager(env *sim.Env, zm *ZoneManager, cfg Config) *Manager {
	return &Manager{
		cfg:         cfg,
		zm:          zm,
		env:         env,
		table:       make(map[string]*Keyspace),
		persistLock: sim.NewResource(env, "meta-persist", 1),
	}
}

// Create registers a new EMPTY keyspace and persists the table.
func (m *Manager) Create(p *sim.Proc, name string) (*Keyspace, error) {
	if name == "" {
		return nil, fmt.Errorf("core: keyspace needs a name")
	}
	if _, ok := m.table[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrKeyspaceExists, name)
	}
	ks := &Keyspace{
		name:        name,
		state:       StateEmpty,
		secondary:   make(map[string]*secondaryIndex),
		compactDone: sim.NewEvent(m.env),
		ingestLock:  sim.NewResource(m.env, "ingest-"+name, 1),
	}
	m.table[name] = ks
	if err := m.Persist(p); err != nil {
		delete(m.table, name)
		return nil, err
	}
	return ks, nil
}

// Get looks up a keyspace.
func (m *Manager) Get(name string) (*Keyspace, bool) {
	ks, ok := m.table[name]
	return ks, ok
}

// Names returns all keyspace names, sorted.
func (m *Manager) Names() []string {
	var out []string
	for n := range m.table {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Remove deletes a keyspace from the table and releases its zones. Callers
// (the engine) must ensure no background job is still using it.
func (m *Manager) Remove(p *sim.Proc, name string) error {
	ks, ok := m.table[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrKeyspaceNotFound, name)
	}
	// Disclaim before releasing: once the snapshot no longer names these
	// zones, a power cut mid-release leaves orphans for the recovery sweep —
	// releasing first would let a cut recover a snapshot whose keyspace
	// claims reset zones.
	delete(m.table, name)
	if err := m.Persist(p); err != nil {
		return err
	}
	clusters := []*Cluster{ks.klog, ks.vlog, ks.pidx, ks.sorted}
	for _, n := range ks.secondaryNames() {
		if si := ks.secondary[n]; si.cluster != nil {
			clusters = append(clusters, si.cluster)
		}
	}
	for _, c := range clusters {
		if c != nil {
			if m.onRelease != nil {
				m.onRelease(c.id)
			}
			if err := c.Release(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- Metadata persistence ------------------------------------------------

// Persisted snapshot schema (gob).
type metaSnapshot struct {
	Seq       uint64
	Keyspaces []metaKeyspace
}

// gob numbers types process-wide in order of first use, and the numbers are
// part of every stream. Numbering the schema here, before anything runs,
// keeps the size of a metadata frame — and, through the media time it costs,
// every virtual clock after it — from depending on whether something else in
// the process (the RocksDB baseline's manifest) used gob first.
func init() {
	if err := gob.NewEncoder(io.Discard).Encode(&metaSnapshot{}); err != nil {
		panic(err)
	}
}

type metaKeyspace struct {
	Name      string
	State     uint8
	Count     int64
	Bytes     int64
	MinKey    []byte
	MaxKey    []byte
	KLOG      *metaCluster
	VLOG      *metaCluster
	PIDX      *metaCluster
	Sorted    *metaCluster
	LogFrames [][2]int64 // validated KLOG frame extents [start, end)
	Sketch    []metaSketch
	Secondary []metaSecondary
	// Heat is the encoded per-granule read-heat table (compaction.EncodeHeat);
	// empty when the keyspace has no compacted data yet.
	Heat []byte
}

type metaCluster struct {
	// ID is the cluster's manager-lifetime identity, persisted so the sums
	// delta scheme below can match tables across frames. Recovery bumps the
	// zone manager's cluster sequence past every recovered ID, keeping IDs
	// unique across restarts even though frames from several runs share a zone.
	ID      int64
	Type    uint8
	Stripes [][]int
	Offset  int
	Length  int64
	Sealed  bool
	Tail    []byte
	// Sums is the per-granule CRC32-C table (0 = unverified), persisted as a
	// delta: a snapshot carries it (HasSums true) only when it changed since
	// the previous frame, or when the frame is the first in its zone — earlier
	// frames are gone, so the table must be self-contained. Recovery folds
	// sums forward across the winning zone's frames by cluster ID. Without
	// the delta, every full-table snapshot rewrites O(total granules) of CRCs
	// and metadata persistence dominates ingest.
	HasSums bool
	Sums    []uint32
}

type metaSketch struct {
	Pivot []byte
	Block int64
}

type metaSecondary struct {
	Name    string
	Offset  int
	Length  int
	Type    uint8
	Built   bool
	Cluster *metaCluster
	Sketch  []metaSketch
}

func clusterMeta(c *Cluster, withSums bool) *metaCluster {
	if c == nil {
		return nil
	}
	mc := &metaCluster{
		ID:      c.id,
		Type:    uint8(c.typ),
		Stripes: c.stripes,
		Offset:  c.offset,
		Length:  c.length,
		Sealed:  c.sealed,
		Tail:    append([]byte(nil), c.tail...),
	}
	if withSums {
		mc.HasSums = true
		mc.Sums = append([]uint32(nil), c.sums...)
	}
	return mc
}

// clusterFromMeta rebuilds a cluster from the winning snapshot, taking its
// checksum table from the snapshot itself when present or from the sums folded
// across the zone's earlier frames otherwise.
func (m *Manager) clusterFromMeta(mc *metaCluster, folded map[int64][]uint32) *Cluster {
	if mc == nil {
		return nil
	}
	c := m.zm.NewCluster(ZoneType(mc.Type))
	c.id = mc.ID
	if mc.ID > m.zm.clusterSeq {
		m.zm.clusterSeq = mc.ID
	}
	c.stripes = mc.Stripes
	c.offset = mc.Offset
	c.length = mc.Length
	c.sealed = mc.Sealed
	c.tail = append([]byte(nil), mc.Tail...)
	if mc.HasSums {
		c.sums = append([]uint32(nil), mc.Sums...)
	} else {
		c.sums = append([]uint32(nil), folded[mc.ID]...)
	}
	for _, s := range mc.Stripes {
		for _, z := range s {
			m.zm.claim(z, ZoneType(mc.Type))
		}
	}
	return c
}

func sketchMeta(s []sketchEntry) []metaSketch {
	out := make([]metaSketch, len(s))
	for i, e := range s {
		out[i] = metaSketch{Pivot: e.pivot, Block: e.block}
	}
	return out
}

func sketchFromMeta(ms []metaSketch) []sketchEntry {
	out := make([]sketchEntry, len(ms))
	for i, e := range ms {
		out[i] = sketchEntry{pivot: e.Pivot, block: e.Block}
	}
	return out
}

// Persist appends a full-table snapshot to the active metadata zone,
// switching (and resetting) zones when the active one fills. Concurrent
// callers serialize so frames and zone switches never interleave. Checksum
// tables are written as deltas: only clusters marked dirty since the previous
// frame carry their sums, unless the frame opens a fresh zone (the frames a
// recovery would fold over were just destroyed, so it must be self-contained).
func (m *Manager) Persist(p *sim.Proc) error {
	p.Acquire(m.persistLock)
	defer p.Release(m.persistLock)
	m.metaSeq++
	dirty := m.zm.takeSumsDirty()
	if err := m.persistFrame(p, dirty); err != nil {
		m.zm.mergeSumsDirty(dirty)
		return err
	}
	return nil
}

func (m *Manager) persistFrame(p *sim.Proc, dirty map[int64]bool) error {
	dev := m.zm.dev
	zi, err := dev.Zone(m.activeMeta)
	if err != nil {
		return err
	}
	frame, err := m.encodeFrame(zi.WritePointer == 0, dirty)
	if err != nil {
		return err
	}
	if zi.WritePointer+int64(len(frame)) > dev.ZoneSize() {
		// Switch to the other metadata zone; its first frame carries every
		// sums table.
		m.activeMeta = (m.activeMeta + 1) % metadataZones
		if err := dev.ResetZone(p, m.activeMeta); err != nil {
			return err
		}
		if frame, err = m.encodeFrame(true, dirty); err != nil {
			return err
		}
	}
	return dev.WriteZone(p, m.activeMeta, frame)
}

// encodeFrame builds one snapshot frame. A cluster's sums table is included
// when full is set or the cluster is in the dirty set.
func (m *Manager) encodeFrame(full bool, dirty map[int64]bool) ([]byte, error) {
	withSums := func(c *Cluster) bool {
		return full || (c != nil && dirty[c.id])
	}
	snap := metaSnapshot{Seq: m.metaSeq}
	var names []string
	for n := range m.table {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ks := m.table[n]
		mk := metaKeyspace{
			Name:      ks.name,
			State:     uint8(ks.state),
			Count:     ks.count,
			Bytes:     ks.bytes,
			MinKey:    ks.minKey,
			MaxKey:    ks.maxKey,
			KLOG:      clusterMeta(ks.klog, withSums(ks.klog)),
			VLOG:      clusterMeta(ks.vlog, withSums(ks.vlog)),
			PIDX:      clusterMeta(ks.pidx, withSums(ks.pidx)),
			Sorted:    clusterMeta(ks.sorted, withSums(ks.sorted)),
			LogFrames: extentsMeta(ks.logFrames),
			Sketch:    sketchMeta(ks.sketch),
		}
		if ks.heat != nil {
			mk.Heat = compaction.EncodeHeat(ks.heat)
		}
		var snames []string
		for sn := range ks.secondary {
			snames = append(snames, sn)
		}
		sort.Strings(snames)
		for _, sn := range snames {
			si := ks.secondary[sn]
			mk.Secondary = append(mk.Secondary, metaSecondary{
				Name:    si.spec.Name,
				Offset:  si.spec.Offset,
				Length:  si.spec.Length,
				Type:    uint8(si.spec.Type),
				Built:   si.done.Fired(),
				Cluster: clusterMeta(si.cluster, withSums(si.cluster)),
				Sketch:  sketchMeta(si.sketch),
			})
		}
		snap.Keyspaces = append(snap.Keyspaces, mk)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		return nil, fmt.Errorf("core: metadata encode: %w", err)
	}
	frame := make([]byte, 12+buf.Len())
	binary.LittleEndian.PutUint32(frame[0:], uint32(buf.Len()))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(buf.Bytes()))
	binary.LittleEndian.PutUint32(frame[8:], 0x4b564d44) // "KVMD"
	copy(frame[12:], buf.Bytes())
	return frame, nil
}

// Recover rebuilds the keyspace table from the metadata zones, using the
// snapshot with the highest sequence number. Partially written (torn) tail
// frames are ignored.
func (m *Manager) Recover(p *sim.Proc) error {
	var best *metaSnapshot
	var bestSums map[int64][]uint32
	for z := 0; z < metadataZones; z++ {
		snap, folded, err := m.scanMetaZone(p, z)
		if err != nil {
			return err
		}
		if snap != nil && (best == nil || snap.Seq > best.Seq) {
			best = snap
			bestSums = folded
			m.activeMeta = z
		}
	}
	m.table = make(map[string]*Keyspace)
	if best == nil {
		return nil
	}
	if err := validateSnapshot(best); err != nil {
		return err
	}
	m.metaSeq = best.Seq
	for _, mk := range best.Keyspaces {
		ks := &Keyspace{
			name:        mk.Name,
			ingestLock:  sim.NewResource(m.env, "ingest-"+mk.Name, 1),
			state:       KeyspaceState(mk.State),
			count:       mk.Count,
			bytes:       mk.Bytes,
			minKey:      mk.MinKey,
			maxKey:      mk.MaxKey,
			klog:        m.clusterFromMeta(mk.KLOG, bestSums),
			vlog:        m.clusterFromMeta(mk.VLOG, bestSums),
			pidx:        m.clusterFromMeta(mk.PIDX, bestSums),
			sorted:      m.clusterFromMeta(mk.Sorted, bestSums),
			logFrames:   extentsFromMeta(mk.LogFrames),
			sketch:      sketchFromMeta(mk.Sketch),
			secondary:   make(map[string]*secondaryIndex),
			compactDone: sim.NewEvent(m.env),
		}
		if len(mk.Heat) > 0 {
			if ht, err := compaction.DecodeHeat(mk.Heat); err == nil {
				ks.heat = ht
			}
			// Undecodable heat is advisory: placement restarts cold.
		}
		// A keyspace caught mid-compaction rolls back to WRITABLE: its
		// KLOG/VLOG are intact, and compaction can simply be reinvoked.
		if ks.state == StateCompacting {
			ks.state = StateWritable
		}
		if ks.state == StateCompacted {
			ks.compactDone.Signal()
		}
		for _, ms := range mk.Secondary {
			if !ms.Built {
				continue // incomplete index builds vanish; reinvoke
			}
			si := &secondaryIndex{
				spec: SecondarySpec{
					Name:   ms.Name,
					Offset: ms.Offset,
					Length: ms.Length,
					Type:   keyenc.SecondaryType(ms.Type),
				},
				cluster: m.clusterFromMeta(ms.Cluster, bestSums),
				sketch:  sketchFromMeta(ms.Sketch),
				done:    sim.NewEvent(m.env),
			}
			si.done.Signal()
			ks.secondary[ms.Name] = si
		}
		m.table[mk.Name] = ks
	}
	return nil
}

// validateSnapshot guards Recover against corrupt-but-CRC-valid metadata:
// a duplicate keyspace name would silently collapse two table entries, and a
// zone claimed by two clusters would poison the free pool (claim is
// idempotent), so both fail recovery with ErrMetaCorrupt.
func validateSnapshot(snap *metaSnapshot) error {
	names := make(map[string]bool)
	owners := make(map[int]string)
	for _, mk := range snap.Keyspaces {
		if names[mk.Name] {
			return fmt.Errorf("%w: duplicate keyspace %q", ErrMetaCorrupt, mk.Name)
		}
		names[mk.Name] = true
		clusters := []*metaCluster{mk.KLOG, mk.VLOG, mk.PIDX, mk.Sorted}
		for _, ms := range mk.Secondary {
			clusters = append(clusters, ms.Cluster)
		}
		for _, mc := range clusters {
			if mc == nil {
				continue
			}
			for _, stripe := range mc.Stripes {
				for _, z := range stripe {
					if owner, ok := owners[z]; ok {
						return fmt.Errorf("%w: zone %d claimed by both %q and %q", ErrMetaCorrupt, z, owner, mk.Name)
					}
					owners[z] = mk.Name
				}
			}
		}
	}
	return nil
}

// rotateMeta abandons the active metadata zone — after a power cut its tip
// may hold a torn frame that would shadow anything appended behind it — and
// persists a fresh snapshot into the next zone.
func (m *Manager) rotateMeta(p *sim.Proc) error {
	next := (m.activeMeta + 1) % metadataZones
	if err := m.zm.dev.ResetZone(p, next); err != nil {
		return err
	}
	m.activeMeta = next
	return m.Persist(p)
}

// scanMetaZone reads frames until the write pointer, returning the last valid
// snapshot in the zone (nil if none) plus the checksum tables folded forward
// across every valid frame, keyed by cluster ID — snapshots persist sums as
// deltas, so a cluster's current table may live in an earlier frame than the
// winning one.
func (m *Manager) scanMetaZone(p *sim.Proc, zone int) (*metaSnapshot, map[int64][]uint32, error) {
	zi, err := m.zm.dev.Zone(zone)
	if err != nil {
		return nil, nil, err
	}
	var last *metaSnapshot
	folded := make(map[int64][]uint32)
	var off int64
	for off+12 <= zi.WritePointer {
		hdr, err := m.zm.dev.ReadZone(p, zone, off, 12)
		if err != nil {
			if errors.Is(err, ssd.ErrReadBeyondWP) {
				break
			}
			return nil, nil, err
		}
		plen := int64(binary.LittleEndian.Uint32(hdr[0:]))
		wantCRC := binary.LittleEndian.Uint32(hdr[4:])
		if binary.LittleEndian.Uint32(hdr[8:]) != 0x4b564d44 {
			break // unrecognized frame: stop scanning this zone
		}
		if off+12+plen > zi.WritePointer {
			break // torn frame
		}
		payload, err := m.zm.dev.ReadZone(p, zone, off+12, int(plen))
		if err != nil {
			return nil, nil, err
		}
		if crc32.ChecksumIEEE(payload) != wantCRC {
			break
		}
		var snap metaSnapshot
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrMetaCorrupt, err)
		}
		for _, mk := range snap.Keyspaces {
			clusters := []*metaCluster{mk.KLOG, mk.VLOG, mk.PIDX, mk.Sorted}
			for _, ms := range mk.Secondary {
				clusters = append(clusters, ms.Cluster)
			}
			for _, mc := range clusters {
				if mc != nil && mc.HasSums {
					folded[mc.ID] = mc.Sums
				}
			}
		}
		last = &snap
		off += 12 + plen
	}
	return last, folded, nil
}
