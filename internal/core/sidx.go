package core

import (
	"bytes"
	"fmt"
	"slices"

	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
)

// runIndexBuild constructs one secondary index (paper §V, "Secondary Index
// Construction"): a full scan of the compacted keyspace extracts the
// secondary key bytes from every value (paired with the primary key and
// value location), the pairs are sorted by secondary key, and the result is
// packed into SIDX blocks with a sketch pivot per block. The index is put in
// place, persisted, its kept blocks admitted into the index cache, and only
// then reported built.
func (e *Engine) runIndexBuild(p *sim.Proc, ks *Keyspace, si *secondaryIndex) (err error) {
	defer func() { si.finish(err) }()

	// The build was queued behind a compaction (BuildSecondaryIndex waits on
	// compactDone, which fires on failure too): if that compaction was cut
	// short — a power cut, a media fault — there is no primary index to scan.
	if e.halted || ks.state != StateCompacted {
		return notCompacted(ks, si)
	}

	var kept [][]byte
	if ks.count == 0 {
		cluster := e.zm.NewCluster(ZoneSIDX)
		if err := cluster.Seal(p); err != nil {
			return err
		}
		si.cluster = cluster
	} else {
		// Validate the byte range against actual values lazily: the extractor
		// errors on the first undersized value.
		sorter := e.newSidxSorter(ks, si.spec)
		src := e.newSidxSource(ks, si.spec, sorter.pipe)
		kept, err = e.packSIDX(p, si, sorter, src, nil)
		src.stop(p)
		if err != nil {
			return err
		}
	}
	if err := e.mgr.Persist(p); err != nil {
		return err
	}
	e.admitBuilt(si.cluster, kept, sidxFormat)
	return nil
}

// notCompacted fails a build whose compaction did not leave ks COMPACTED.
func notCompacted(ks *Keyspace, si *secondaryIndex) error {
	return fmt.Errorf("%w: %s is %s, not compacted; index %s not built", ErrKeyspaceState, ks.name, ks.state, si.spec.Name)
}

// sidxKey is a secondary-index entry's sort key: its secondary key.
func sidxKey(e sidxEntry) []byte { return e.skey }

// newSidxSorter returns the sorter of an index build on ks, staged as its
// compaction is. Both builds feed it in
// ascending primary-key order — sidxSource walks PIDX, the consolidated build
// walks SORTED_VALUES — and every secondary key is exactly spec.Length bytes,
// so for keys of at most 4 bytes a stable radix sort on the key alone gives
// compareSidx order. Wider keys stay on msdSort: eight digit passes can cost
// more than it does. Either way the sorter merges on as many cores as it
// sorts on.
func (e *Engine) newSidxSorter(ks *Keyspace, spec nvme.SecondaryIndexSpec) *Sorter[sidxEntry] {
	s := newEngineSorter[sidxEntry](e, phaseRunSidx, sidxCodec{}, sidxKey, compareSidx)
	s.radix = sidxRadixKey(spec.Length)
	s.splitMerges = true
	s.pipe = e.pipeline(ks)
	return s
}

// sidxRadixKey returns the radix key of secondary keys width bytes wide — the
// key read as a big-endian number, which orders keys of one width as
// bytes.Compare does — or nil when width is over 4.
func sidxRadixKey(width int) func(sidxEntry) uint64 {
	if width > 4 {
		return nil
	}
	return func(e sidxEntry) uint64 {
		var k uint64
		for _, b := range e.skey {
			k = k<<8 | uint64(b)
		}
		return k
	}
}

// compareSidx orders secondary-index entries by secondary key, then primary
// key.
func compareSidx(a, b sidxEntry) int {
	if c := bytes.Compare(a.skey, b.skey); c != 0 {
		return c
	}
	return bytes.Compare(a.pkey, b.pkey)
}

// sidxSource streams extraction results: it walks PIDX in order and reads the
// co-sorted values sequentially, emitting one sidxEntry per pair. This is the
// "full scan of the keyspace data" of the paper, fused with run generation so
// extracted pairs feed the sorter directly. An entry's primary key views the
// PIDX cursor's window and its secondary key views the source's normalization
// buffer; both are valid until the next call (see recordSource).
type sidxSource struct {
	spec nvme.SecondaryIndexSpec
	pidx *pidxCursor
	vals clusterWindow // SORTED_VALUES, read ascending

	skey []byte // the last entry's normalized secondary key
	pkey []byte // the last entry's primary key, a view of the cursor's window
}

// newSidxSource returns the scan of compacted keyspace ks for index spec,
// both its streams read ahead by pl; each PIDX block it decodes is charged to
// the extraction phase. The caller stops it.
func (e *Engine) newSidxSource(ks *Keyspace, spec nvme.SecondaryIndexSpec, pl pipeline) *sidxSource {
	cur := &pidxCursor{win: clusterWindow{c: ks.pidx, pf: pl.prefetch(whole(ks.pidx))}, cfg: e.cfg, blockCPU: &e.cpu[phaseSidxExtract]}
	return &sidxSource{spec: spec, pidx: cur, vals: clusterWindow{c: ks.sorted, pf: pl.prefetch(whole(ks.sorted))}}
}

// stop stops both read-aheads, on any exit of the scan.
func (s *sidxSource) stop(p *sim.Proc) {
	s.pidx.win.pf.stop(p)
	s.vals.pf.stop(p)
}

func (s *sidxSource) next(p *sim.Proc) (sidxEntry, bool, error) {
	poison(s.skey)
	poison(s.pkey)
	ent, ok, err := s.pidx.next(p)
	if err != nil || !ok {
		return sidxEntry{}, false, err
	}
	value, err := s.vals.read(p, int64(ent.vlogOff), int(ent.vlen)) // svOff in PIDX entries
	if err != nil {
		return sidxEntry{}, false, err
	}
	se, err := extractSidx(s.spec, s.skey, ent.key, ent.vlogOff, value)
	if err != nil {
		return sidxEntry{}, false, err
	}
	s.skey, s.pkey = se.skey, se.pkey
	return se, true, nil
}

// extractSidx returns the index entry of spec for the pair (pkey, value),
// whose value sits at svOff in SORTED_VALUES. The secondary key is
// normalized onto skey[:0], a buffer the caller reuses from call to call; a
// byte range running past the value is an error.
func extractSidx(spec nvme.SecondaryIndexSpec, skey, pkey []byte, svOff uint64, value []byte) (sidxEntry, error) {
	if spec.Offset > len(value)-spec.Length {
		return sidxEntry{}, fmt.Errorf("core: secondary byte range [%d,%d) exceeds %d-byte value of key %x",
			spec.Offset, spec.Offset+spec.Length, len(value), pkey)
	}
	skey, err := spec.Type.AppendNormalized(skey[:0], value[spec.Offset:spec.Offset+spec.Length])
	if err != nil {
		return sidxEntry{}, err
	}
	return sidxEntry{
		skey:  skey[:len(skey):len(skey)],
		pkey:  pkey[:len(pkey):len(pkey)],
		svOff: svOff,
		vlen:  uint32(len(value)),
	}, nil
}

// checkSpecs validates index specs about to be declared on ks: each must
// pass its Validate, and no two may share a name with each other or with an
// index ks has.
func (ks *Keyspace) checkSpecs(specs []nvme.SecondaryIndexSpec) error {
	for i, spec := range specs {
		if err := spec.Validate(); err != nil {
			return err
		}
		_, exists := ks.secondary[spec.Name]
		if exists || slices.ContainsFunc(specs[:i], func(s nvme.SecondaryIndexSpec) bool { return s.Name == spec.Name }) {
			return fmt.Errorf("%w: %s", ErrIndexExists, spec.Name)
		}
	}
	return nil
}
