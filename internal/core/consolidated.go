package core

import "kvcsd/internal/sim"

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

// sidxStage accumulates extraction output for one declared index.
type sidxStage struct {
	si      *secondaryIndex
	cluster *Cluster
	w       chunkWriter
	skey    []byte // the secondary key being extracted, reused per pair
}

// newSidxStages opens a staging cluster for each declared index.
func (e *Engine) newSidxStages(sis []*secondaryIndex) []*sidxStage {
	stages := make([]*sidxStage, len(sis))
	for i, si := range sis {
		st := &sidxStage{si: si, cluster: e.zm.NewCluster(ZoneTemp)}
		st.w.open(st.cluster, pipeline{}, nil)
		stages[i] = st
	}
	return stages
}

// extractStaged stages every declared index's entry for one pair, as the
// value pass streams it through SoC DRAM.
func extractStaged(p *sim.Proc, stages []*sidxStage, pkey []byte, svOff uint64, value []byte) error {
	for _, st := range stages {
		ent, err := extractSidx(st.si.spec, st.skey, pkey, svOff, value)
		if err != nil {
			return err
		}
		st.skey = ent.skey
		if err := putRecord(p, &st.w, sidxCodec{}, ent); err != nil {
			return err
		}
	}
	return nil
}

// buildStaged sorts each staged index and packs its SIDX blocks — no
// keyspace read-back — then persists. A failure leaves the remaining
// indexes unbuilt; every index's done event fires either way.
func (e *Engine) buildStaged(p *sim.Proc, stages []*sidxStage) error {
	for i, st := range stages {
		start := p.Now()
		err := st.w.finish(p)
		var sorted *Cluster
		if err == nil {
			sorted, err = e.newSidxSorter(st.si.spec).SortCluster(p, st.cluster)
		}
		if err == nil {
			err = st.cluster.Release(p)
		}
		if err == nil {
			err = e.packSIDX(p, st.si, sorted)
		}
		if err != nil {
			for _, rest := range stages[i:] {
				rest.si.finish(err)
			}
			return err
		}
		st.si.buildNS = sim.Duration(p.Now() - start)
		st.si.finish(nil)
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
