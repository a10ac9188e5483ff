package core

import "kvcsd/internal/sim"

// Consolidated index construction implements the paper's stated future work
// (§V): "in future we expect to run these index construction operations in
// one single step to prevent from having to repeatedly reading back keyspace
// data into SoC DRAM". Secondary index specs are declared at compaction
// time; as the compaction's final pass streams sorted values into
// SORTED_VALUES, the engine extracts every declared secondary key in flight
// and pushes each (skey, pkey) pair straight into its index's run-formation
// batch, so each secondary index costs one extra sort — none of the media
// when it fits one batch — but no extra full read-back of the keyspace.
//
// As the paper also anticipates, the engine "resort[s] back to separated
// index construction when DRAM resources become a bottleneck": if the
// combined sort batches of all declared indexes would exceed half the SoC
// DRAM, the specs are built the classic way instead. So are they in the
// combined layout (DisableKVSeparation), whose compaction has no value pass
// to extract from.

// consolidates reports whether n secondary indexes declared at compaction
// time are extracted in flight: the layout keeps keys and values apart, and
// the sort batches of the compaction and the n index builds fit in half the
// SoC DRAM.
func (e *Engine) consolidates(n int) bool {
	return !e.cfg.DisableKVSeparation && int64(n+1)*int64(e.cfg.SortBudgetBytes) <= e.cfg.DRAMBytes/2
}

// sidxStage accumulates extraction output for one declared index: its
// sorter's run-formation batch, whose DRAM consolidates reserves.
type sidxStage struct {
	si     *secondaryIndex
	sorter *Sorter[sidxEntry]
	skey   []byte   // the secondary key being extracted, reused per pair
	kept   [][]byte // the SIDX blocks kept for the index cache
}

// newSidxStages opens a sorter for each declared index.
func (e *Engine) newSidxStages(sis []*secondaryIndex) []*sidxStage {
	stages := make([]*sidxStage, len(sis))
	for i, si := range sis {
		stages[i] = &sidxStage{si: si, sorter: e.newSidxSorter(si.spec)}
	}
	return stages
}

// extractStaged adds every declared index's entry for one pair to its
// sorter, as the value pass streams the pair through SoC DRAM.
func extractStaged(p *sim.Proc, stages []*sidxStage, pkey []byte, svOff uint64, value []byte) error {
	for _, st := range stages {
		ent, err := extractSidx(st.si.spec, st.skey, pkey, svOff, value)
		if err != nil {
			return err
		}
		st.skey = ent.skey
		if err := st.sorter.add(p, ent); err != nil {
			return err
		}
	}
	return nil
}

// buildStaged sorts each staged index and packs its SIDX blocks — no
// keyspace read-back — persists, admits the kept blocks into the index cache,
// and only then reports the built ones. The bytes it appends count in moved,
// the compaction's progress. A failure fails the remaining indexes; every
// index's done event fires either way.
func (e *Engine) buildStaged(p *sim.Proc, stages []*sidxStage, moved *uint64) error {
	var err error
	for i, st := range stages {
		start := p.Now()
		if st.kept, err = e.packSIDX(p, st.si, st.sorter, nil, moved); err != nil {
			failStages(stages[i:], err)
			stages = stages[:i]
			break
		}
		st.si.buildNS = sim.Duration(p.Now() - start)
	}
	perr := e.mgr.Persist(p)
	for _, st := range stages {
		if perr == nil {
			e.admitBuilt(st.si.cluster, st.kept, sidxFormat)
		}
		st.si.finish(perr)
	}
	if err == nil {
		err = perr
	}
	return err
}

// failStages ends staged builds with err and lets go of their batches.
func failStages(stages []*sidxStage, err error) {
	for _, st := range stages {
		st.sorter.drop()
		st.si.finish(err)
	}
}

// packSIDX sorts the entries sorter holds and those of src (nil: none) into
// SIDX blocks + sketch, and returns the blocks it kept for the index cache.
// The bytes of its runs and blocks count in moved when it is set.
func (e *Engine) packSIDX(p *sim.Proc, si *secondaryIndex, sorter *Sorter[sidxEntry], src recordSource[sidxEntry], moved *uint64) ([][]byte, error) {
	cluster := e.zm.NewCluster(ZoneSIDX)
	w := e.newIndexWriter(cluster)
	w.moved = moved
	codec := sidxCodec{}
	var enc []byte
	err := sorter.Stream(p, src, func(p *sim.Proc, rec sidxEntry) error {
		enc = codec.Encode(enc[:0], rec)
		return w.add(p, enc, rec.skey)
	})
	if moved != nil {
		*moved += sorter.written
	}
	if err == nil {
		err = w.finish(p)
	}
	if err != nil {
		return nil, err
	}
	si.cluster = cluster
	si.sketch = w.sketch
	return w.kept, nil
}
