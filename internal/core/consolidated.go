package core

import (
	"fmt"

	"kvcsd/internal/sim"
)

// Consolidated index construction implements the paper's stated future work
// (§V): "in future we expect to run these index construction operations in
// one single step to prevent from having to repeatedly reading back keyspace
// data into SoC DRAM". Secondary index specs are declared at compaction
// time; as the compaction's final pass streams sorted values into
// SORTED_VALUES, the engine extracts every declared secondary key in flight
// and stages the (skey, pkey) pairs into temp clusters, so each secondary
// index costs one extra sort but no extra full read-back of the keyspace.
//
// As the paper also anticipates, the engine "resort[s] back to separated
// index construction when DRAM resources become a bottleneck": if the
// combined sort batches of all declared indexes would exceed half the SoC
// DRAM, the specs are built the classic way instead.

// CompactWithIndexes invokes compaction with secondary indexes declared
// upfront. The call returns immediately like Compact; WaitCompacted and
// WaitIndexBuilt observe the phases.
func (e *Engine) CompactWithIndexes(p *sim.Proc, name string, specs []SecondarySpec) error {
	ks, err := e.Keyspace(name)
	if err != nil {
		return err
	}
	if ks.pendingDelete {
		return ErrDeleted
	}
	if ks.state != StateWritable && ks.state != StateEmpty {
		return fmt.Errorf("%w: %s is %s", ErrKeyspaceState, name, ks.state)
	}
	seen := make(map[string]bool, len(specs))
	for _, spec := range specs {
		if spec.Name == "" || spec.Offset < 0 || spec.Length <= 0 {
			return fmt.Errorf("core: invalid secondary index spec %+v", spec)
		}
		if w := spec.Type.Width(); w != 0 && spec.Length != w {
			return fmt.Errorf("core: secondary type %s needs length %d", spec.Type, w)
		}
		if _, ok := ks.secondary[spec.Name]; ok || seen[spec.Name] {
			return fmt.Errorf("%w: %s", ErrIndexExists, spec.Name)
		}
		seen[spec.Name] = true
	}

	// DRAM bottleneck check: fall back to separate builds when the combined
	// working sets would not fit comfortably.
	if int64(len(specs)+1)*int64(e.cfg.SortBudgetBytes) > e.cfg.DRAMBytes/2 {
		if err := e.Compact(p, name); err != nil {
			return err
		}
		for _, spec := range specs {
			if err := e.BuildSecondaryIndex(p, name, spec); err != nil {
				return err
			}
		}
		return nil
	}

	if ks.state == StateEmpty {
		ks.state = StateCompacted
		ks.compactDone.Signal()
		for _, spec := range specs {
			si := &secondaryIndex{spec: spec, done: sim.NewEvent(e.env)}
			si.cluster = e.zm.NewCluster(ZoneSIDX)
			si.done.Signal()
			ks.secondary[spec.Name] = si
		}
		return e.mgr.Persist(p)
	}

	sis := make([]*secondaryIndex, len(specs))
	for i, spec := range specs {
		sis[i] = &secondaryIndex{spec: spec, done: sim.NewEvent(e.env)}
		ks.secondary[spec.Name] = sis[i]
	}
	ks.state = StateCompacting
	ks.compactStart = p.Now()
	if err := e.mgr.Persist(p); err != nil {
		return err
	}
	e.spawnJob("compact+idx-"+name, func(jp *sim.Proc) error {
		if err := e.takeIngest(jp, ks); err != nil {
			ks.compactDone.Signal()
			for _, si := range sis {
				si.done.Signal()
			}
			return err
		}
		return e.runConsolidated(jp, ks, sis)
	})
	return nil
}

// sidxStage accumulates extraction output for one declared index.
type sidxStage struct {
	si      *secondaryIndex
	cluster *Cluster
	buf     []byte
	skey    []byte // the secondary key being extracted, reused per pair
}

// runConsolidated is runCompaction with in-flight secondary key extraction.
func (e *Engine) runConsolidated(p *sim.Proc, ks *Keyspace, sis []*secondaryIndex) error {
	stages := make([]*sidxStage, len(sis))
	for i, si := range sis {
		stages[i] = &sidxStage{si: si, cluster: e.zm.NewCluster(ZoneTemp)}
	}
	// The extractor consumes each (pkey, value) pair once, as the final
	// compaction pass streams it through SoC DRAM.
	codec := sidxCodec{}
	extract := func(sp *sim.Proc, pkey []byte, svOff uint64, value []byte) error {
		for _, st := range stages {
			spec := st.si.spec
			if spec.Offset+spec.Length > len(value) {
				return fmt.Errorf("core: secondary byte range [%d,%d) exceeds %d-byte value",
					spec.Offset, spec.Offset+spec.Length, len(value))
			}
			skey, err := spec.Type.AppendNormalized(st.skey[:0], value[spec.Offset:spec.Offset+spec.Length])
			if err != nil {
				return err
			}
			st.skey = skey
			st.buf = codec.Encode(st.buf, sidxEntry{
				skey: skey, pkey: pkey, svOff: svOff, vlen: uint32(len(value)),
			})
			if len(st.buf) >= 256<<10 {
				if err := st.cluster.Append(sp, st.buf); err != nil {
					return err
				}
				st.buf = st.buf[:0]
			}
		}
		return nil
	}

	err := e.compactInto(p, ks, extract)
	ks.compactDone.Signal()
	if err != nil {
		for _, si := range sis {
			si.done.Signal()
		}
		return err
	}

	// Sort each staged index and pack SIDX blocks — no keyspace read-back.
	for _, st := range stages {
		start := p.Now()
		if len(st.buf) > 0 {
			if err := st.cluster.Append(p, st.buf); err != nil {
				st.si.done.Signal()
				return err
			}
			st.buf = nil
		}
		if err := st.cluster.Seal(p); err != nil {
			st.si.done.Signal()
			return err
		}
		sorted, err := e.newSidxSorter(st.si.spec).SortCluster(p, st.cluster)
		if err != nil {
			st.si.done.Signal()
			return err
		}
		if err := st.cluster.Release(p); err != nil {
			st.si.done.Signal()
			return err
		}
		if err := e.packSIDX(p, st.si, sorted); err != nil {
			st.si.done.Signal()
			return err
		}
		st.si.buildNS = sim.Duration(p.Now() - start)
		st.si.done.Signal()
	}
	return e.mgr.Persist(p)
}

// packSIDX drains a sorted sidxEntry cluster into SIDX blocks + sketch and
// releases the input.
func (e *Engine) packSIDX(p *sim.Proc, si *secondaryIndex, sorted *Cluster) error {
	cluster := e.zm.NewCluster(ZoneSIDX)
	w := newBlockWriter(cluster, e.cfg.BlockBytes)
	sc := newScanner(sorted, sidxCodec{}, 0)
	codec := sidxCodec{}
	var enc []byte
	for {
		rec, ok, err := sc.next(p)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		enc = codec.Encode(enc[:0], rec)
		if err := w.add(p, enc, rec.skey); err != nil {
			return err
		}
	}
	if err := w.finish(p); err != nil {
		return err
	}
	if err := sorted.Release(p); err != nil {
		return err
	}
	si.cluster = cluster
	si.sketch = w.sketch
	return nil
}
