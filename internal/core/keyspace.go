package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
	"time"

	"kvcsd/internal/codec"
	"kvcsd/internal/compaction"
	"kvcsd/internal/keyenc"
	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
	"kvcsd/internal/ssd"
	"kvcsd/internal/stats"
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
	ErrIndexFailed      = errors.New("core: secondary index build failed")
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
	spec    nvme.SecondaryIndexSpec
	cluster *Cluster
	sketch  []sketchEntry
	// done fires when construction ends and is reported: failed, or built
	// with a metadata frame on media that records it built.
	done *sim.Event
	err  error // why construction failed (wraps ErrIndexFailed)
}

// finish records how construction ended and wakes its waiters. A build
// puts its SIDX cluster in place, persists, and only then finishes, so a
// waiter is never told "built" before the frame that says so is on media.
func (si *secondaryIndex) finish(err error) {
	if err != nil {
		si.err = fmt.Errorf("%w: %s: %w", ErrIndexFailed, si.spec.Name, err)
	}
	si.done.Signal()
}

// packed reports whether the index's SIDX cluster is in place and its build
// has not failed: what a metadata frame records as built.
func (si *secondaryIndex) packed() bool { return si.cluster != nil && si.err == nil }

// built reports whether construction finished without error and was
// reported so.
func (si *secondaryIndex) built() bool { return si.done.Fired() && si.err == nil }

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
	joined    []*sidxStage // index builds riding the running compaction (consolidated.go)
	joinable  bool         // builds may join it: its value pass has not begun

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
		if si.built() {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// IndexStatus reports whether the named secondary index is built, and the
// error its construction failed with; an index still building or never
// declared is neither.
func (ks *Keyspace) IndexStatus(name string) (bool, error) {
	si, ok := ks.secondary[name]
	if !ok || !si.done.Fired() {
		return false, nil
	}
	return si.err == nil, si.err
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
	meta        metaWriter
	// metaFrames and metaBytes count what Persist appended to the metadata
	// zones (engine/meta_frames, engine/meta_bytes).
	metaFrames, metaBytes stats.Counter
	// persistHook, when set, runs between encoding a frame and writing it:
	// tests check that each frame recovers the table it was encoded from.
	persistHook func(p *sim.Proc)
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

// metaWriter is the metadata log's writer state, kept from frame to frame.
type metaWriter struct {
	// written holds each keyspace's record as last written to the active
	// zone: a frame carries a record only when its encoding differs. nil
	// means what the zone holds is unknown (a write failed, or the table was
	// just recovered), so the next frame is a snapshot.
	written map[string][]byte
	frame   []byte
	// The frame being built: where each record it carries lies in frame,
	// and the written names it removes.
	upserts []recordSpan
	removed []string
	// Scratch for encodeFrame: the table's names, the record being encoded
	// (viewing its keyspace's live fields) and the table's clusters in
	// record order.
	names    []string
	snames   []string
	rec      metaKeyspace
	clusters []metaCluster
	heat     []byte
	live     []*Cluster
}

type recordSpan struct {
	name       string
	start, end int
}

// record points w.rec at ks's live fields without copying any of them, so it
// is good until the next yield, and appends ks's clusters to w.live.
func (w *metaWriter) record(ks *Keyspace) *metaKeyspace {
	w.snames = w.snames[:0]
	for n := range ks.secondary {
		w.snames = append(w.snames, n)
	}
	slices.Sort(w.snames)
	if n := 4 + len(w.snames); len(w.clusters) < n {
		w.clusters = make([]metaCluster, n)
	}
	cl := w.clusters
	secondary := w.rec.secondary[:0]
	w.rec = metaKeyspace{
		name:      ks.name,
		state:     uint8(ks.state),
		count:     ks.count,
		bytes:     ks.bytes,
		minKey:    ks.minKey,
		maxKey:    ks.maxKey,
		klog:      w.cluster(&cl[0], ks.klog),
		vlog:      w.cluster(&cl[1], ks.vlog),
		pidx:      w.cluster(&cl[2], ks.pidx),
		sorted:    w.cluster(&cl[3], ks.sorted),
		logFrames: ks.logFrames,
		sketch:    ks.sketch,
	}
	for i, n := range w.snames {
		si := ks.secondary[n]
		secondary = append(secondary, metaSecondary{
			name:    si.spec.Name,
			offset:  si.spec.Offset,
			length:  si.spec.Length,
			typ:     uint8(si.spec.Type),
			built:   si.packed(),
			cluster: w.cluster(&cl[4+i], si.cluster),
			sketch:  si.sketch,
		})
	}
	w.rec.secondary = secondary
	w.heat = w.heat[:0]
	if ks.heat != nil {
		w.heat = compaction.AppendHeat(w.heat, ks.heat)
	}
	w.rec.heat = w.heat
	return &w.rec
}

func (w *metaWriter) cluster(mc *metaCluster, c *Cluster) *metaCluster {
	if c == nil {
		return nil
	}
	*mc = metaCluster{id: c.id, typ: uint8(c.typ), stripes: c.stripes, offset: c.offset,
		length: c.length, sealed: c.sealed, tail: c.tail}
	w.live = append(w.live, c)
	return mc
}

// commit records what a frame just written put in the zone.
func (w *metaWriter) commit() {
	if w.written == nil {
		w.written = make(map[string][]byte, len(w.upserts))
	}
	for _, n := range w.removed {
		delete(w.written, n)
	}
	for _, u := range w.upserts {
		w.written[u.name] = append(w.written[u.name][:0], w.frame[u.start:u.end]...)
	}
}

// Persist appends a frame holding what changed since the previous one to the
// active metadata zone, switching (and resetting) zones when the active one
// fills. Concurrent callers serialize so frames and zone switches never
// interleave. After a failure what the zone holds is unknown, so the next
// frame is a snapshot.
func (m *Manager) Persist(p *sim.Proc) error {
	p.Acquire(m.persistLock)
	defer p.Release(m.persistLock)
	m.metaSeq++
	if err := m.persistFrame(p); err != nil {
		m.meta.written = nil
		return err
	}
	return nil
}

func (m *Manager) persistFrame(p *sim.Proc) error {
	dev := m.zm.dev
	zi, err := dev.Zone(m.activeMeta)
	if err != nil {
		return err
	}
	frame := m.encodeFrame(zi.WritePointer == 0)
	if zi.WritePointer+int64(len(frame)) > dev.ZoneSize() {
		// Switch to the other metadata zone, which a snapshot opens.
		m.activeMeta = (m.activeMeta + 1) % metadataZones
		if err := dev.ResetZone(p, m.activeMeta); err != nil {
			return err
		}
		frame = m.encodeFrame(true)
	}
	if m.persistHook != nil {
		m.persistHook(p)
	}
	if err := dev.WriteZone(p, m.activeMeta, frame); err != nil {
		return err
	}
	m.meta.commit()
	m.metaFrames.Add(1)
	m.metaBytes.Add(int64(len(frame)))
	return nil
}

// encodeFrame builds the next frame: each record whose encoding differs from
// the one last written, the names last written that left the table, and the
// checksum tables marked changed. A snapshot carries every record and every
// table instead. Checksum marks are consumed here, before the write yields:
// a granule noted during the write marks its table again for the next frame,
// and a failed write makes the next frame a snapshot anyway.
func (m *Manager) encodeFrame(snapshot bool) []byte {
	w := &m.meta
	snapshot = snapshot || w.written == nil
	w.names = w.names[:0]
	for n := range m.table {
		w.names = append(w.names, n)
	}
	slices.Sort(w.names)

	b := beginMetaFrame(w.frame[:0], m.metaSeq, snapshot)
	at := len(b)
	w.upserts, w.live = w.upserts[:0], w.live[:0]
	for _, n := range w.names {
		start := len(b)
		b = appendMetaRecord(b, w.record(m.table[n]))
		if !snapshot && bytes.Equal(b[start:], w.written[n]) {
			b = b[:start]
			continue
		}
		w.upserts = append(w.upserts, recordSpan{name: n, start: start, end: len(b)})
	}
	b, k := insertCount(b, at, len(w.upserts))
	for i := range w.upserts {
		w.upserts[i].start += k
		w.upserts[i].end += k
	}

	w.removed = w.removed[:0]
	for n := range w.written {
		if _, ok := m.table[n]; !ok {
			w.removed = append(w.removed, n)
		}
	}
	slices.Sort(w.removed)
	if snapshot {
		b = binary.AppendUvarint(b, 0) // the fold starts over: nothing to remove
	} else {
		b = binary.AppendUvarint(b, uint64(len(w.removed)))
		for _, n := range w.removed {
			b = codec.AppendBytes(b, n)
		}
	}

	at, n := len(b), 0
	for _, c := range w.live {
		if snapshot || m.zm.sumsDirty[c.id] {
			b = appendClusterSums(b, c.id, c.sums)
			delete(m.zm.sumsDirty, c.id)
			n++
		}
	}
	clear(w.live) // the next frame's record fill must not pin released clusters
	b, _ = insertCount(b, at, n)
	finishMetaFrame(b)
	w.frame = b
	return b
}

// metaFold is one zone's frames folded forward: the live records by name and
// the latest checksum table of each cluster ID.
type metaFold struct {
	seq     uint64
	records map[string]metaKeyspace
	sums    map[int64][]uint32
}

// apply folds one frame in, in payload order. A removal of a name the fold
// does not hold is a no-op: a frame may repeat one whose earlier write failed
// after reaching the zone.
func (f *metaFold) apply(fr *metaFrame) error {
	if fr.snapshot {
		clear(f.records)
		clear(f.sums)
	}
	f.seq = fr.seq
	seen := make(map[string]bool, len(fr.upserts))
	for _, u := range fr.upserts {
		// Believing either copy would silently drop the other.
		if seen[u.name] {
			return fmt.Errorf("%w: duplicate keyspace %q in frame %d", ErrMetaCorrupt, u.name, fr.seq)
		}
		seen[u.name] = true
		f.records[u.name] = u
	}
	for _, n := range fr.removals {
		delete(f.records, n)
	}
	for _, s := range fr.sums {
		f.sums[s.id] = s.sums
	}
	return nil
}

// clusterFromMeta rebuilds a cluster from its recovered record and the
// checksum table folded for its ID.
func (m *Manager) clusterFromMeta(mc *metaCluster, sums map[int64][]uint32) *Cluster {
	if mc == nil {
		return nil
	}
	c := m.zm.NewCluster(ZoneType(mc.typ))
	c.id = mc.id
	if mc.id > m.zm.clusterSeq {
		m.zm.clusterSeq = mc.id
	}
	c.stripes = mc.stripes
	c.offset = mc.offset
	c.length = mc.length
	c.sealed = mc.sealed
	c.tail = append([]byte(nil), mc.tail...)
	c.sums = append([]uint32(nil), sums[mc.id]...)
	for _, s := range mc.stripes {
		for _, z := range s {
			m.zm.claim(z, ZoneType(mc.typ))
		}
	}
	return c
}

// Recover rebuilds the keyspace table from the metadata zones: the zone whose
// last valid frame has the highest sequence number wins, and its frames,
// folded, are the table. Partially written (torn) tail frames are ignored.
func (m *Manager) Recover(p *sim.Proc) error {
	var best *metaFold
	for z := 0; z < metadataZones; z++ {
		fold, err := m.scanMetaZone(p, z)
		if err != nil {
			return err
		}
		if fold != nil && (best == nil || fold.seq > best.seq) {
			best = fold
			m.activeMeta = z
		}
	}
	m.table = make(map[string]*Keyspace)
	m.meta.written = nil
	if best == nil {
		return nil
	}
	names := make([]string, 0, len(best.records))
	for n := range best.records {
		names = append(names, n)
	}
	slices.Sort(names)
	records := make([]metaKeyspace, len(names))
	for i, n := range names {
		records[i] = best.records[n]
	}
	if err := validateSnapshot(records); err != nil {
		return err
	}
	m.metaSeq = best.seq
	for i := range records {
		mk := &records[i]
		ks := &Keyspace{
			name:        mk.name,
			ingestLock:  sim.NewResource(m.env, "ingest-"+mk.name, 1),
			state:       KeyspaceState(mk.state),
			count:       mk.count,
			bytes:       mk.bytes,
			minKey:      mk.minKey,
			maxKey:      mk.maxKey,
			klog:        m.clusterFromMeta(mk.klog, best.sums),
			vlog:        m.clusterFromMeta(mk.vlog, best.sums),
			pidx:        m.clusterFromMeta(mk.pidx, best.sums),
			sorted:      m.clusterFromMeta(mk.sorted, best.sums),
			logFrames:   mk.logFrames,
			sketch:      mk.sketch,
			secondary:   make(map[string]*secondaryIndex),
			compactDone: sim.NewEvent(m.env),
		}
		if len(mk.heat) > 0 {
			if ht, err := compaction.DecodeHeat(mk.heat); err == nil {
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
		for _, ms := range mk.secondary {
			if !ms.built {
				continue // incomplete index builds vanish; reinvoke
			}
			si := &secondaryIndex{
				spec: nvme.SecondaryIndexSpec{
					Name:   ms.name,
					Offset: ms.offset,
					Length: ms.length,
					Type:   keyenc.SecondaryType(ms.typ),
				},
				cluster: m.clusterFromMeta(ms.cluster, best.sums),
				sketch:  ms.sketch,
				done:    sim.NewEvent(m.env),
			}
			si.done.Signal()
			ks.secondary[ms.name] = si
		}
		m.table[mk.name] = ks
	}
	return nil
}

// validateSnapshot guards Recover against corrupt-but-CRC-valid metadata: a
// zone claimed by two clusters would poison the free pool (claim is
// idempotent), so it fails recovery with ErrMetaCorrupt. (A name upserted
// twice in one frame is caught by the fold.)
func validateSnapshot(records []metaKeyspace) error {
	owners := make(map[int]string)
	for _, mk := range records {
		clusters := []*metaCluster{mk.klog, mk.vlog, mk.pidx, mk.sorted}
		for _, ms := range mk.secondary {
			clusters = append(clusters, ms.cluster)
		}
		for _, mc := range clusters {
			if mc == nil {
				continue
			}
			for _, stripe := range mc.stripes {
				for _, z := range stripe {
					if owner, ok := owners[z]; ok {
						return fmt.Errorf("%w: zone %d claimed by both %q and %q", ErrMetaCorrupt, z, owner, mk.name)
					}
					owners[z] = mk.name
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

// scanMetaZone reads a zone's frames up to the write pointer and folds them
// (nil if the zone holds none). A torn or checksum-failing frame ends the
// scan; a whole frame of another version, one that does not decode, or a
// zone whose first frame is not a snapshot is ErrMetaCorrupt.
func (m *Manager) scanMetaZone(p *sim.Proc, zone int) (*metaFold, error) {
	zi, err := m.zm.dev.Zone(zone)
	if err != nil {
		return nil, err
	}
	var fold *metaFold
	var off int64
	for off+metaHeaderLen <= zi.WritePointer {
		hdr, err := m.zm.dev.ReadZone(p, zone, off, metaHeaderLen)
		if err != nil {
			if errors.Is(err, ssd.ErrReadBeyondWP) {
				break
			}
			return nil, err
		}
		plen := int64(binary.LittleEndian.Uint32(hdr[0:]))
		wantCRC := binary.LittleEndian.Uint32(hdr[4:])
		magic := binary.LittleEndian.Uint32(hdr[8:])
		if magic&^0xff != metaMagicFamily {
			break // unrecognized frame: stop scanning this zone
		}
		if off+metaHeaderLen+plen > zi.WritePointer {
			break // torn frame
		}
		payload, err := m.zm.dev.ReadZone(p, zone, off+metaHeaderLen, int(plen))
		if err != nil {
			return nil, err
		}
		if crc32.ChecksumIEEE(payload) != wantCRC {
			break
		}
		if v := magic & 0xff; v != metaVersion {
			return nil, fmt.Errorf("%w: zone %d offset %d: frame version %d", ErrMetaCorrupt, zone, off, v)
		}
		// The frame's fields view its payload, so it gets a copy of its own:
		// ReadZone lends zone memory.
		fr, err := decodeMetaPayload(bytes.Clone(payload))
		if err != nil {
			return nil, fmt.Errorf("%w: zone %d offset %d: %v", ErrMetaCorrupt, zone, off, err)
		}
		if fold == nil {
			if !fr.snapshot {
				return nil, fmt.Errorf("%w: zone %d opens with a delta frame", ErrMetaCorrupt, zone)
			}
			fold = &metaFold{records: make(map[string]metaKeyspace), sums: make(map[int64][]uint32)}
		}
		if err := fold.apply(fr); err != nil {
			return nil, err
		}
		off += metaHeaderLen + plen
	}
	return fold, nil
}
