package bench

import (
	"fmt"
	"time"

	"kvcsd/internal/client"
	"kvcsd/internal/keyenc"
	"kvcsd/internal/rocks"
	"kvcsd/internal/sim"
	"kvcsd/internal/vpic"
	"kvcsd/internal/workload"
)

// The macro benchmark (paper §VI-C) loads a VPIC particle dump — 16 files,
// one loader thread and one keyspace per file, one key-value pair per
// particle (16 B particle ID key, 32 B payload value) — then queries by
// kinetic energy at several selectivity levels.
//
// KV-CSD: the loader inserts with bulk puts, invokes compaction and
// secondary-index construction, and exits; the device does both
// asynchronously. Queries are device-side secondary range queries streaming
// back full particles.
//
// RocksDB: the loader inserts a primary pair plus an auxiliary
// energy-keyed pair per particle (1 B prefix distinguishes them); automatic
// compaction sorts both. A query is two-step: range-scan the auxiliary
// index, then point-GET each matching particle.

const (
	rocksPrimaryPrefix = 0x00
	rocksAuxPrefix     = 0x01
)

// MacroResult carries both figures plus the measurements behind them.
type MacroResult struct {
	Fig11 *Table
	Fig12 *Table
	// SoCLedger is where the KV-CSD run's SoC core time went, per engine
	// phase, over the whole run: ingest, the device-side compaction and index
	// builds, and the Fig 12 queries.
	SoCLedger *Table

	KVCSDInsert  time.Duration
	KVCSDCompact time.Duration
	KVCSDIndex   time.Duration
	// KVCSDSkew is the KV-CSD run's chan_skew cell from the first put to the
	// last index built.
	KVCSDSkew   string
	RocksInsert time.Duration
	RocksTotal  time.Duration
}

// RunMacro executes the full write + query phases for both engines.
func RunMacro(s Scale) (*MacroResult, error) {
	ds := vpic.Generate(s.Seed, s.VPICFiles, s.VPICParticlesPerFile)
	out := &MacroResult{
		Fig11: &Table{
			Fig: "11", Keys: []string{"engine"},
			Title:  "Figure 11: breakdown of KV-CSD and RocksDB insertion time (VPIC dump)",
			Header: []string{"engine", "insert_s", "compaction_s", "sec_index_s", "effective_write_s", "where", "chan_skew"},
		},
		Fig12: &Table{
			Fig: "12", Keys: []string{"selectivity_pct"},
			Title:  "Figure 12: KV-CSD vs RocksDB secondary index (energy) query time",
			Header: []string{"selectivity_pct", "matches", "kvcsd_s", "rocksdb_s", "speedup", "chan_skew"},
		},
		SoCLedger: &Table{
			Fig: "socledger", Keys: []string{"phase"},
			Title:  "SoC ledger: KV-CSD SoC core time per engine phase (Figure 11/12 run)",
			Header: []string{"phase", "soc_ms", "share_pct", "units_per_record"},
		},
	}

	kvQueryTimes, kvCounts, kvSkews, err := runMacroKVCSD(s, ds, out)
	if err != nil {
		return nil, fmt.Errorf("macro kvcsd: %w", err)
	}
	rkQueryTimes, rkCounts, err := runMacroRocks(s, ds, out)
	if err != nil {
		return nil, fmt.Errorf("macro rocks: %w", err)
	}

	out.Fig11.Add("kvcsd", secs(out.KVCSDInsert), secs(out.KVCSDCompact), secs(out.KVCSDIndex),
		secs(out.KVCSDInsert), "compaction+indexing async in device", out.KVCSDSkew)
	out.Fig11.Add("rocksdb", secs(out.RocksInsert), secs(out.RocksTotal-out.RocksInsert), "(in compaction)",
		secs(out.RocksTotal), "all on host; app waits", "-")
	out.Fig11.Add("speedup", "-", "-", "-", ratio(out.RocksTotal, out.KVCSDInsert), "effective write time", "-")
	out.Fig11.Notes = append(out.Fig11.Notes,
		fmt.Sprintf("dataset: %d files x %d particles (48B each)", s.VPICFiles, s.VPICParticlesPerFile),
		"paper: 66s effective vs 704s => ~10.6x",
		"chan_skew: the KV-CSD device's busiest NAND channel busy time over the mean, from the first put to the last index built")

	out.Fig12.VirtualEndNs = out.Fig11.VirtualEndNs // both tables read the same runs
	for i, sel := range s.Selectivities {
		out.Fig12.Add(fmt.Sprintf("%.2f", sel*100), fmt.Sprint(kvCounts[i]),
			secs(kvQueryTimes[i]), secs(rkQueryTimes[i]), ratio(rkQueryTimes[i], kvQueryTimes[i]), kvSkews[i])
		if kvCounts[i] != rkCounts[i] {
			out.Fig12.Notes = append(out.Fig12.Notes,
				fmt.Sprintf("MISMATCH at %.2f%%: kvcsd=%d rocks=%d", sel*100, kvCounts[i], rkCounts[i]))
		}
	}
	out.Fig12.Notes = append(out.Fig12.Notes,
		"paper: ~7.4x at 0.1% falling to ~1.3x at 20% (RocksDB client-side caching pays off at low selectivity)",
		"chan_skew: the KV-CSD device's busiest NAND channel busy time over the mean, during the queries")
	return out, nil
}

func runMacroKVCSD(s Scale, ds *vpic.Dataset, out *MacroResult) ([]time.Duration, []int, []string, error) {
	data := int64(ds.TotalParticles()) * vpic.ParticleSize
	rig := newKVCSDRig(32, data*2, s.Seed)
	queryTimes := make([]time.Duration, len(s.Selectivities))
	counts := make([]int, len(s.Selectivities))
	skews := make([]string, len(s.Selectivities))
	err := out.Fig11.runSim(rig.env, func(p *sim.Proc) error {
		cl := client.New(rig.h, rig.dev)
		// Write phase: 16 loader threads, one keyspace per file.
		start := p.Now()
		var loaders []*sim.Proc
		handles := make([]*client.Keyspace, len(ds.Files))
		errs := make([]error, len(ds.Files))
		for i := range ds.Files {
			i := i
			loaders = append(loaders, rig.env.Go(fmt.Sprintf("loader-%d", i), func(lp *sim.Proc) {
				ks, err := cl.CreateKeyspace(lp, fmt.Sprintf("particles-%d", i))
				if err != nil {
					errs[i] = err
					return
				}
				handles[i] = ks
				for j := range ds.Files[i].Particles {
					pt := &ds.Files[i].Particles[j]
					if err := ks.BulkPut(lp, pt.Key(), pt.Payload[:]); err != nil {
						errs[i] = err
						return
					}
				}
				// Invoke compaction and secondary index construction; both
				// run asynchronously in the device.
				if err := ks.Compact(lp); err != nil {
					errs[i] = err
					return
				}
				errs[i] = ks.BuildSecondaryIndex(lp, client.IndexSpec{
					Name: "energy", Offset: vpic.EnergyOffset, Length: 4, Type: keyenc.TypeFloat32,
				})
			}))
		}
		p.Join(loaders...)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		out.KVCSDInsert = time.Duration(p.Now() - start)

		// Device-side background phases (not visible to the application).
		cDone := p.Now()
		for _, ks := range handles {
			if err := ks.WaitCompacted(p); err != nil {
				return err
			}
		}
		out.KVCSDCompact = time.Duration(p.Now()-start) - out.KVCSDInsert
		cDone = p.Now()
		for _, ks := range handles {
			if err := ks.WaitIndexBuilt(p, "energy"); err != nil {
				return err
			}
		}
		out.KVCSDIndex = time.Duration(p.Now() - cDone)
		out.KVCSDSkew = chanSkew(rig.dev.SSD(), nil)

		// Query phase: energy > threshold, per selectivity, 16 query threads.
		for si, sel := range s.Selectivities {
			lo := keyenc.PutFloat32(vpic.EnergyThreshold(sel))
			q0 := p.Now()
			busy0 := rig.dev.SSD().ChannelBusyTimes(nil)
			var readers []*sim.Proc
			matches := make([]int, len(handles))
			for i, ks := range handles {
				i, ks := i, ks
				readers = append(readers, rig.env.Go(fmt.Sprintf("query-%d", i), func(rp *sim.Proc) {
					pairs, err := ks.QuerySecondaryRange(rp, "energy", lo, nil, 0)
					if err != nil {
						errs[i] = err
						return
					}
					matches[i] = len(pairs)
				}))
			}
			p.Join(readers...)
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			queryTimes[si] = time.Duration(p.Now() - q0)
			skews[si] = chanSkew(rig.dev.SSD(), busy0)
			for _, m := range matches {
				counts[si] += m
			}
		}
		rig.dev.Shutdown()
		return nil
	})
	if err == nil {
		err = socLedgerRows(out.SoCLedger, rig, int64(ds.TotalParticles()))
	}
	out.SoCLedger.VirtualEndNs = out.Fig11.VirtualEndNs
	return queryTimes, counts, skews, err
}

// socLedgerRows fills t from the device engine's SoC ledger: core time per
// phase, its share of the total, and its size in compare units (one
// CompareCost on the SoC, 40 ns / 0.45) per record loaded. The phases must sum
// to the SoC's busy time exactly.
func socLedgerRows(t *Table, rig *kvcsdRig, records int64) error {
	soc := rig.dev.SoC()
	busy := soc.BusyNs().Value()
	unit := float64(soc.Config().CompareCost) / soc.Config().Speed
	var sum int64
	for _, ph := range rig.dev.Engine().SoCLedger() {
		sum += ph.Ns
		t.Add(ph.Phase, fmt.Sprintf("%.3f", float64(ph.Ns)/1e6), fmt.Sprintf("%.1f", 100*float64(ph.Ns)/float64(busy)),
			fmt.Sprintf("%.2f", float64(ph.Ns)/unit/float64(records)))
	}
	if sum != busy {
		return fmt.Errorf("soc ledger sums to %d ns, busy %d ns", sum, busy)
	}
	t.Add("total", fmt.Sprintf("%.3f", float64(busy)/1e6), "100.0", fmt.Sprintf("%.2f", float64(busy)/unit/float64(records)))
	t.Notes = append(t.Notes, fmt.Sprintf("%d records loaded; one unit = CompareCost/Speed = %.1f ns; phases sum exactly to engine/soc_busy_ns", records, unit))
	return nil
}

func runMacroRocks(s Scale, ds *vpic.Dataset, out *MacroResult) ([]time.Duration, []int, error) {
	data := int64(ds.TotalParticles()) * vpic.ParticleSize * 2 // primary + aux rows
	rig := newRocksRig(32, rocks.CompactionAuto, data, s.Seed)
	queryTimes := make([]time.Duration, len(s.Selectivities))
	counts := make([]int, len(s.Selectivities))
	err := out.Fig11.runSim(rig.env, func(p *sim.Proc) error {
		start := p.Now()
		var loaders []*sim.Proc
		kss := make([]workload.KS, len(ds.Files))
		errs := make([]error, len(ds.Files))
		for i := range ds.Files {
			i := i
			ks, err := rig.tgt.CreateKeyspace(p, fmt.Sprintf("particles-%d", i))
			if err != nil {
				return err
			}
			kss[i] = ks
			loaders = append(loaders, rig.env.Go(fmt.Sprintf("loader-%d", i), func(lp *sim.Proc) {
				for j := range ds.Files[i].Particles {
					pt := &ds.Files[i].Particles[j]
					// Primary pair: 0x00 | ID16 -> payload.
					pk := append([]byte{rocksPrimaryPrefix}, pt.Key()...)
					if err := ks.Put(lp, pk, pt.Payload[:]); err != nil {
						errs[i] = err
						return
					}
					// Auxiliary pair: 0x01 | energy(order-preserving) | ID16 -> nil.
					ak := make([]byte, 0, 21)
					ak = append(ak, rocksAuxPrefix)
					ak = append(ak, keyenc.PutFloat32(pt.Energy())...)
					ak = append(ak, pt.Key()...)
					if err := ks.Put(lp, ak, nil); err != nil {
						errs[i] = err
						return
					}
				}
			}))
		}
		p.Join(loaders...)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		out.RocksInsert = time.Duration(p.Now() - start)
		// Wait for automatic compaction to conclude (paper methodology);
		// this sorts both primary and auxiliary rows.
		for _, ks := range kss {
			if err := rig.tgt.EndInsert(p, ks); err != nil {
				return err
			}
		}
		out.RocksTotal = time.Duration(p.Now() - start)

		// Query phase: two-step — scan the aux index, then point-GET the
		// matching particles by ID.
		for si, sel := range s.Selectivities {
			rig.tgt.DropCaches()
			t := vpic.EnergyThreshold(sel)
			lo := append([]byte{rocksAuxPrefix}, keyenc.PutFloat32(t)...)
			hi := []byte{rocksAuxPrefix + 1}
			q0 := p.Now()
			var readers []*sim.Proc
			matches := make([]int, len(kss))
			for i := range kss {
				i := i
				db := rig.tgt.DB(fmt.Sprintf("particles-%d", i))
				readers = append(readers, rig.env.Go(fmt.Sprintf("query-%d", i), func(rp *sim.Proc) {
					var ids [][]byte
					_, err := db.Scan(rp, lo, hi, 0, func(k, v []byte) bool {
						id := append([]byte(nil), k[len(k)-16:]...)
						ids = append(ids, id)
						return true
					})
					if err != nil {
						errs[i] = err
						return
					}
					for _, id := range ids {
						pk := append([]byte{rocksPrimaryPrefix}, id...)
						_, found, err := db.Get(rp, pk)
						if err != nil {
							errs[i] = err
							return
						}
						if found {
							matches[i]++
						}
					}
				}))
			}
			p.Join(readers...)
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			queryTimes[si] = time.Duration(p.Now() - q0)
			for _, m := range matches {
				counts[si] += m
			}
		}
		for i := range kss {
			if err := rig.tgt.DB(fmt.Sprintf("particles-%d", i)).Close(p); err != nil {
				return err
			}
		}
		return nil
	})
	return queryTimes, counts, err
}
