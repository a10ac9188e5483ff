package core

import (
	"cmp"

	"kvcsd/internal/sim"
)

// Consolidated index construction implements the paper's stated future work
// (§V): "in future we expect to run these index construction operations in
// one single step to prevent from having to repeatedly reading back keyspace
// data into SoC DRAM". A secondary index requested while its keyspace
// compacts — declared with the compaction (CompactWithIndexes) or built after
// it (BuildSecondaryIndex) — joins that compaction until its value pass
// starts. As the pass streams sorted values into SORTED_VALUES, the engine
// extracts every joined index's secondary key in flight and pushes each
// (skey, pkey) pair straight into its index's run-formation batch, so each
// secondary index costs one extra sort — none of the media when it fits one
// batch — but no extra full read-back of the keyspace. Each joined index
// extracts, forms runs, sorts and packs on procs of its own, in parallel.
//
// As the paper also anticipates, the engine "resort[s] back to separated
// index construction when DRAM resources become a bottleneck": an index joins
// only while the value pass's two spans and the sort batch of every joined
// index fit in half the SoC DRAM. One that does not, one that arrives once
// the value pass has begun or the keyspace is COMPACTED, and every index in
// the combined layout (DisableKVSeparation), whose compaction has no value
// pass to extract from, is built the classic way, by a separate read-back.

// consolidates reports whether n secondary indexes are extracted in flight
// by one compaction: the layout keeps keys and values apart, and the value
// pass's two spans of placed values, each about a sort budget, fit beside the
// n index builds' sort batches in half the SoC DRAM. The compaction's own sort
// batch is let go of before the value pass, so it fits in their place.
func (e *Engine) consolidates(n int) bool {
	return !e.cfg.DisableKVSeparation && int64(n+2)*int64(e.cfg.SortBudgetBytes) <= e.cfg.DRAMBytes/2
}

// sidxStage accumulates extraction output for one joined index: its sorter's
// run-formation batch, whose DRAM consolidates reserves.
type sidxStage struct {
	si     *secondaryIndex
	sorter *Sorter[sidxEntry]
	skey   []byte   // the secondary key being extracted, reused per pair
	kept   [][]byte // the SIDX blocks kept for the index cache
	err    error    // why extraction failed; reported when the compaction ends
	// declared with the compaction (CompactWithIndexes): a failed extraction
	// fails it too. An index that joined later fails alone.
	declared bool
}

// extractStaged starts a proc per joined index still extracting that adds
// its entry for each pair of a placed value span — PIDX entries ents,
// values vals at SORTED_VALUES offset at, both kept until they are joined — to
// its sorter. An index whose byte range runs past a value, or whose run
// fails, stops extracting and lets go of its batch.
func (e *Engine) extractStaged(stages []*sidxStage, ents []pidxEntry, vals []byte, at uint64) []*sim.Proc {
	var procs []*sim.Proc
	for _, st := range stages {
		if st.err != nil {
			continue
		}
		procs = append(procs, e.env.Go("sidx-extract-"+st.si.spec.Name, func(q *sim.Proc) {
			for _, pe := range ents {
				ent, err := extractSidx(st.si.spec, st.skey, pe.key, pe.vlogOff, vals[pe.vlogOff-at:][:pe.vlen])
				if err == nil {
					st.skey = ent.skey
					err = st.sorter.add(q, ent)
				}
				if err != nil {
					st.sorter.drop(q)
					st.err = err
					return
				}
			}
		}))
	}
	return procs
}

// buildStaged packs each staged index whose extraction did not fail — no
// keyspace read-back — on a proc of its own, persists once, admits the kept
// blocks into the index cache, and only then reports every index, built or
// failed. The bytes it appends count in moved, the compaction's progress. A
// stage that fails fails its own index; a failed persist fails them all.
func (e *Engine) buildStaged(p *sim.Proc, stages []*sidxStage, moved *uint64) error {
	errs := make([]error, len(stages))
	var packs []*sim.Proc
	for i, st := range stages {
		if errs[i] = st.err; st.err == nil {
			packs = append(packs, e.env.Go("sidx-pack-"+st.si.spec.Name, func(q *sim.Proc) {
				st.kept, errs[i] = e.packSIDX(q, st.si, st.sorter, nil, moved)
			}))
		}
	}
	p.Join(packs...)
	perr := e.mgr.Persist(p)
	for i, st := range stages {
		if errs[i] == nil && perr == nil {
			e.admitBuilt(st.si.cluster, st.kept, sidxFormat)
		}
		st.si.finish(cmp.Or(errs[i], perr))
	}
	return cmp.Or(append(errs, perr)...)
}

// failStages ends the staged builds of a failed compaction — with their own
// error, or as a build queued behind it would — and lets go of their batches
// and runs.
func failStages(p *sim.Proc, ks *Keyspace, stages []*sidxStage) {
	for _, st := range stages {
		st.sorter.drop(p)
		st.si.finish(cmp.Or(st.err, notCompacted(ks, st.si)))
	}
}

// packSIDX sorts the entries sorter holds and those of src (nil: none) into
// SIDX blocks + sketch, and returns the blocks it kept for the index cache.
// The bytes of its runs and blocks count in moved when it is set.
func (e *Engine) packSIDX(p *sim.Proc, si *secondaryIndex, sorter *Sorter[sidxEntry], src recordSource[sidxEntry], moved *uint64) ([][]byte, error) {
	cluster := e.zm.NewCluster(ZoneSIDX)
	w := e.newIndexWriter(cluster, sorter.pipe)
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
		_ = w.app.stop(p)
		_ = cluster.Release(p)
		return nil, err
	}
	si.cluster = cluster
	si.sketch = w.sketch
	return w.kept, nil
}
