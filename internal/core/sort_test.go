package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"kvcsd/internal/compaction"
	"kvcsd/internal/host"
	"kvcsd/internal/sim"
	"kvcsd/internal/ssd"
	"kvcsd/internal/stats"
)

type sortFixture struct {
	env *sim.Env
	zm  *ZoneManager
	soc *host.Host
	st  *stats.IOStats
	cfg Config
}

func newSortFixture(budget int) *sortFixture {
	env := sim.NewEnv()
	scfg := ssd.DefaultConfig()
	scfg.ZoneSize = 256 << 10
	scfg.NumZones = 512
	st := stats.NewIOStats()
	dev := ssd.New(env, scfg, st)
	cfg := DefaultConfig()
	if budget > 0 {
		cfg.SortBudgetBytes = budget
	}
	cfg = cfg.sanitize()
	return &sortFixture{
		env: env,
		zm:  NewZoneManager(dev, cfg, sim.NewRNG(3)),
		soc: host.New(env, host.DefaultSoCConfig()),
		st:  st,
		cfg: cfg,
	}
}

// onCores gives the fixture a SoC of the default kind with the given cores.
func (fx *sortFixture) onCores(cores int) *sortFixture {
	cfg := host.DefaultSoCConfig()
	cfg.Cores = cores
	fx.soc = host.New(fx.env, cfg)
	return fx
}

func (fx *sortFixture) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	fx.env.Go("test", fn)
	fx.env.Run()
}

func writeKlogCluster(t *testing.T, p *sim.Proc, fx *sortFixture, n int, keyOf func(i int) []byte) *Cluster {
	t.Helper()
	c := fx.zm.NewCluster(ZoneKLOG)
	codec := klogCodec{}
	var buf []byte
	for i := 0; i < n; i++ {
		buf = codec.Encode(buf, klogEntry{key: keyOf(i), vlen: 32, vlogOff: uint64(i) * 32})
		if len(buf) > 64<<10 {
			if err := c.Append(p, buf); err != nil {
				t.Fatal(err)
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if err := c.Append(p, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Seal(p); err != nil {
		t.Fatal(err)
	}
	return c
}

// streamSorted streams the records of in through s and returns copies of
// them in the order emitted.
func streamSorted(t *testing.T, p *sim.Proc, s *Sorter[klogEntry], in *Cluster) []klogEntry {
	t.Helper()
	var got []klogEntry
	err := s.Stream(p, &scanner[klogEntry]{c: in, codec: klogCodec{}}, func(_ *sim.Proc, rec klogEntry) error {
		rec.key = bytes.Clone(rec.key) // the record is valid until emit returns
		got = append(got, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSorterSingleRun(t *testing.T) {
	fx := newSortFixture(1 << 20)
	fx.run(t, func(p *sim.Proc) {
		in := writeKlogCluster(t, p, fx, 500, func(i int) []byte {
			return []byte(fmt.Sprintf("k-%04d", (i*7919)%10000))
		})
		s := NewSorter[klogEntry](fx.zm, fx.soc, fx.cfg, klogCodec{}, klogKey, compareKlog)
		written0 := fx.st.MediaWrite.Value()
		got := streamSorted(t, p, s, in)
		if s.runs != 0 || s.merges != 0 || s.written != 0 {
			t.Fatalf("runs=%d merges=%d written=%d, want a sort in DRAM", s.runs, s.merges, s.written)
		}
		if w := fx.st.MediaWrite.Value() - written0; w != 0 {
			t.Fatalf("a one-batch sort wrote %d media bytes", w)
		}
		if len(got) != 500 {
			t.Fatalf("got %d records", len(got))
		}
		for i := 1; i < len(got); i++ {
			if bytes.Compare(got[i-1].key, got[i].key) > 0 {
				t.Fatal("output not sorted")
			}
		}
	})
}

func TestSorterMultiRunMerge(t *testing.T) {
	fx := newSortFixture(4 << 10) // tiny budget forces many runs
	fx.run(t, func(p *sim.Proc) {
		n := 3000
		in := writeKlogCluster(t, p, fx, n, func(i int) []byte {
			return []byte(fmt.Sprintf("k-%05d", (i*104729)%99991))
		})
		s := NewSorter[klogEntry](fx.zm, fx.soc, fx.cfg, klogCodec{}, klogKey, compareKlog)
		got := streamSorted(t, p, s, in)
		if s.runs < 2 {
			t.Fatalf("expected multiple runs, got %d", s.runs)
		}
		if s.merges < 1 {
			t.Fatal("expected at least one merge")
		}
		if len(got) != n {
			t.Fatalf("got %d of %d records", len(got), n)
		}
		for i := 1; i < len(got); i++ {
			if bytes.Compare(got[i-1].key, got[i].key) > 0 {
				t.Fatal("output not sorted")
			}
		}
	})
}

func TestSorterMultiPassWhenRunsExceedFanin(t *testing.T) {
	fx := newSortFixture(2 << 10)
	fx.cfg.MergeFanin = 2 // force multiple merge rounds
	fx.run(t, func(p *sim.Proc) {
		n := 2000
		in := writeKlogCluster(t, p, fx, n, func(i int) []byte {
			return []byte(fmt.Sprintf("k-%05d", (n-i)*3%99991))
		})
		s := NewSorter[klogEntry](fx.zm, fx.soc, fx.cfg, klogCodec{}, klogKey, compareKlog)
		got := streamSorted(t, p, s, in)
		// A 2-way merge folds two runs into one, so merging them all takes
		// runs-1 merges at least, over several passes.
		if s.runs <= 2 || s.merges < s.runs-1 {
			t.Fatalf("expected %d runs to merge in several passes with fanin 2, got %d merges", s.runs, s.merges)
		}
		if len(got) != n {
			t.Fatalf("record count %d", len(got))
		}
	})
}

func TestSorterEmptyInput(t *testing.T) {
	fx := newSortFixture(0)
	fx.run(t, func(p *sim.Proc) {
		in := fx.zm.NewCluster(ZoneKLOG)
		_ = in.Seal(p)
		s := NewSorter[klogEntry](fx.zm, fx.soc, fx.cfg, klogCodec{}, klogKey, compareKlog)
		if got := streamSorted(t, p, s, in); len(got) != 0 {
			t.Fatalf("empty sort emitted %d records", len(got))
		}
	})
}

func TestSorterStability(t *testing.T) {
	// Equal keys must keep the higher-vlogOff entry first (recency rule).
	fx := newSortFixture(2 << 10)
	fx.run(t, func(p *sim.Proc) {
		in := fx.zm.NewCluster(ZoneKLOG)
		codec := klogCodec{}
		var buf []byte
		for i := 0; i < 500; i++ {
			buf = codec.Encode(buf, klogEntry{key: []byte("dup"), vlen: 8, vlogOff: uint64(i * 8)})
		}
		_ = in.Append(p, buf)
		_ = in.Seal(p)
		s := NewSorter[klogEntry](fx.zm, fx.soc, fx.cfg, klogCodec{}, klogKey, compareKlog)
		got := streamSorted(t, p, s, in)
		for i := 1; i < len(got); i++ {
			if got[i-1].vlogOff < got[i].vlogOff {
				t.Fatal("duplicate ordering violated (newest first)")
			}
		}
	})
}

func TestSorterReleasesTempZones(t *testing.T) {
	fx := newSortFixture(2 << 10)
	fx.run(t, func(p *sim.Proc) {
		in := writeKlogCluster(t, p, fx, 2000, func(i int) []byte {
			return []byte(fmt.Sprintf("k-%05d", (i*31)%1000))
		})
		used0 := fx.zm.UsedZones()
		s := NewSorter[klogEntry](fx.zm, fx.soc, fx.cfg, klogCodec{}, klogKey, compareKlog)
		if got := streamSorted(t, p, s, in); len(got) != 2000 {
			t.Fatalf("emitted %d records", len(got))
		}
		// Only the input should remain allocated.
		if extra := fx.zm.UsedZones() - used0; extra != 0 {
			t.Fatalf("%d temp zones leaked", extra)
		}
	})
}

func TestSorterPropertySortsArbitraryKeys(t *testing.T) {
	f := func(keys [][]byte) bool {
		if len(keys) == 0 || len(keys) > 500 {
			return true
		}
		for _, k := range keys {
			if len(k) > 64 {
				return true
			}
		}
		fx := newSortFixture(1 << 10)
		ok := true
		fx.run(t, func(p *sim.Proc) {
			in := fx.zm.NewCluster(ZoneKLOG)
			codec := klogCodec{}
			var buf []byte
			for i, k := range keys {
				buf = codec.Encode(buf, klogEntry{key: k, vlen: 1, vlogOff: uint64(i)})
			}
			if err := in.Append(p, buf); err != nil {
				ok = false
				return
			}
			_ = in.Seal(p)
			s := NewSorter[klogEntry](fx.zm, fx.soc, fx.cfg, klogCodec{}, klogKey, compareKlog)
			got := streamSorted(t, p, s, in)
			if len(got) != len(keys) {
				ok = false
				return
			}
			for i := 1; i < len(got); i++ {
				if bytes.Compare(got[i-1].key, got[i].key) > 0 {
					ok = false
					return
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestScannerCorruptTail(t *testing.T) {
	fx := newSortFixture(0)
	fx.run(t, func(p *sim.Proc) {
		c := fx.zm.NewCluster(ZoneKLOG)
		codec := klogCodec{}
		buf := codec.Encode(nil, klogEntry{key: []byte("ok"), vlen: 1, vlogOff: 0})
		buf = append(buf, 0xFF, 0x07) // truncated header
		_ = c.Append(p, buf)
		_ = c.Seal(p)
		sc := &scanner[klogEntry]{c: c, codec: klogCodec{}}
		if _, ok, err := sc.next(p); err != nil || !ok {
			t.Fatalf("first record: ok=%v err=%v", ok, err)
		}
		if _, _, err := sc.next(p); err == nil {
			t.Fatal("corrupt tail not detected")
		}
	})
}

// TestStreamSingleBatchStaysInDRAM: a sort that fits one batch emits the
// order of the one run makeRuns forms from the same records, pays the same
// SoC charge, and writes no media — with the msd and the radix batch sort.
func TestStreamSingleBatchStaysInDRAM(t *testing.T) {
	t.Run("msd", func(t *testing.T) {
		checkSingleBatch(t, klogCodec{}, klogKey, compareKlog, nil, benchKlogEntries(4096))
	})
	t.Run("radix", func(t *testing.T) {
		checkSingleBatch(t, sidxCodec{}, sidxKey, compareSidx, sidxRadixKey(4), benchSidxEntries(4096))
	})
}

func checkSingleBatch[T any](t *testing.T, codec Codec[T], key func(T) []byte, cmp func(a, b T) int, radix func(T) uint64, recs []T) {
	t.Helper()
	var want [][]byte
	var wantBusy time.Duration
	fx := newSortFixture(64 << 20)
	fx.run(t, func(p *sim.Proc) {
		s := NewSorter(fx.zm, fx.soc, fx.cfg, codec, key, cmp)
		s.radix = radix
		busy0 := fx.soc.CPU().BusyTime()
		runs, err := s.makeRuns(p, &sliceSource[T]{recs: recs})
		if err != nil || len(runs) != 1 {
			t.Fatalf("%d runs, err %v", len(runs), err)
		}
		wantBusy = fx.soc.CPU().BusyTime() - busy0
		sc := &scanner[T]{c: runs[0], codec: codec}
		for {
			rec, ok, err := sc.next(p)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			want = append(want, codec.Encode(nil, rec))
		}
	})
	fx = newSortFixture(64 << 20)
	fx.run(t, func(p *sim.Proc) {
		s := NewSorter(fx.zm, fx.soc, fx.cfg, codec, key, cmp)
		s.radix = radix
		busy0, written0 := fx.soc.CPU().BusyTime(), fx.st.MediaWrite.Value()
		var got [][]byte
		err := s.Stream(p, &sliceSource[T]{recs: recs}, func(_ *sim.Proc, rec T) error {
			got = append(got, codec.Encode(nil, rec))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if w := fx.st.MediaWrite.Value() - written0; w != 0 || s.written != 0 || s.runs != 0 {
			t.Fatalf("media +%d bytes, sorter wrote %d in %d runs; want a sort in DRAM", w, s.written, s.runs)
		}
		if busy := fx.soc.CPU().BusyTime() - busy0; busy != wantBusy {
			t.Fatalf("SoC busy +%v, want the one run's %v", busy, wantBusy)
		}
		if len(got) != len(want) {
			t.Fatalf("%d records out, want %d", len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d: got %x, want %x", i, got[i], want[i])
			}
		}
	})
}

// TestRunFormationSpreadsOverCores: a spilled sort on an otherwise idle
// 4-core SoC sorts each run-formation batch on three cores, never the fourth,
// writes exactly the runs it writes on a 1-core SoC, and forms them sooner.
func TestRunFormationSpreadsOverCores(t *testing.T) {
	recs := benchKlogEntries(8192)
	form := func(cores int) (runs [][]byte, took sim.Time, maxInUse int) {
		fx := newSortFixture(64 << 10).onCores(cores)
		fx.run(t, func(p *sim.Proc) {
			s := NewSorter(fx.zm, fx.soc, fx.cfg, klogCodec{}, klogKey, compareKlog)
			start := p.Now()
			cs, err := s.makeRuns(p, &sliceSource[klogEntry]{recs: recs})
			if err != nil {
				t.Fatal(err)
			}
			took = p.Now() - start
			for _, c := range cs {
				runs = append(runs, readCluster(t, p, c))
			}
		})
		return runs, took, fx.soc.CPU().MaxInUse()
	}
	one, oneTook, _ := form(1)
	four, fourTook, fourMax := form(4)
	if len(one) < 2 {
		t.Fatalf("%d runs, want a spilled sort", len(one))
	}
	if fourMax != 3 {
		t.Errorf("run formation held at most %d of 4 cores, want 3", fourMax)
	}
	if !reflect.DeepEqual(four, one) {
		t.Errorf("the runs formed on 4 cores differ from those formed on 1")
	}
	if fourTook >= oneTook {
		t.Errorf("run formation took %v on 4 cores, %v on 1", fourTook, oneTook)
	}
}

// TestIndexMergeSpreadsOverCores: a spilled index build on an otherwise idle
// 4-core SoC merges its runs on three cores, never the fourth, and packs
// exactly the SIDX it packs on a 1-core SoC with the same merge core time. It
// finishes sooner by at least half that time: a merge on three cores takes a
// third of it (run formation alone, already split, saves less than half).
func TestIndexMergeSpreadsOverCores(t *testing.T) {
	build := func(cores int) (sidx []byte, mergeNs int64, took time.Duration, maxInUse int) {
		socCfg := host.DefaultSoCConfig()
		socCfg.Cores = cores
		fx := newEngineFixtureOn(smallEngineConfig(), socCfg)
		fx.run(t, func(p *sim.Proc) {
			ingestSpilled(t, p, fx)
			compactAndWait(t, p, fx, "ks")
			merge := fx.eng.cpu[phaseMerge].Ns()
			merge0 := merge.Value()
			took = buildSpilled(t, p, fx)
			mergeNs = merge.Value() - merge0
			ks, _ := fx.eng.Keyspace("ks")
			sidx = readCluster(t, p, ks.secondary["e"].cluster)
		})
		return sidx, mergeNs, took, fx.soc.CPU().MaxInUse()
	}
	one, oneMerge, oneTook, _ := build(1)
	four, fourMerge, fourTook, fourMax := build(4)
	t.Logf("index build: %v on 4 cores, %v on 1; merge core time %d ns", fourTook, oneTook, oneMerge)
	if oneMerge == 0 {
		t.Fatal("the index build merged nothing, want a spilled sort")
	}
	if !bytes.Equal(four, one) {
		t.Errorf("the SIDX packed on 4 cores differs from the one packed on 1")
	}
	if fourMerge != oneMerge {
		t.Errorf("merge core time %d ns on 4 cores, %d on 1", fourMerge, oneMerge)
	}
	if fourMax > 3 {
		t.Errorf("held %d of 4 cores at once, want at most 3", fourMax)
	}
	if oneTook-fourTook < time.Duration(oneMerge/2) {
		t.Errorf("the index build took %v on 4 cores, %v on 1: want at least %v sooner", fourTook, oneTook, time.Duration(oneMerge/2))
	}
}

// TestStreamOverBudgetWritesAsBefore: a sort over one batch still cuts runs
// and merges them down to MergeFanin as before, but its final merge streams
// into emit — every record is written once into its run and once per merge
// round before the last — and lands exactly the media bytes the sort wrote
// before, less that last round, for one merge round and for several. When the
// final merge still landed in a scratch cluster that was scanned back, the
// sort wrote (rounds + 1) × fed bytes and 290 816 and 704 512 media bytes; the
// 122 880 bytes fewer in each are the bytes fed: one pass. Since a batch
// flushes before the record that would take it past the budget, the 2 KiB
// sort cuts 111 runs where it cut 108, each padded to a granule when sealed:
// 12 288 media bytes more than the 581 632 it wrote when a batch took that
// record first.
func TestStreamOverBudgetWritesAsBefore(t *testing.T) {
	for _, tc := range []struct {
		budget, rounds int
		media          int64 // media bytes the sort writes
	}{
		{16 << 10, 1, 167936},
		{2 << 10, 2, 593920},
	} {
		fx := newSortFixture(tc.budget)
		fx.run(t, func(p *sim.Proc) {
			s := NewSorter[klogEntry](fx.zm, fx.soc, fx.cfg, klogCodec{}, klogKey, compareKlog)
			written0 := fx.st.MediaWrite.Value()
			var prev []byte
			n := 0
			err := s.Stream(p, &sliceSource[klogEntry]{recs: benchKlogEntries(4096)}, func(_ *sim.Proc, rec klogEntry) error {
				if bytes.Compare(prev, rec.key) > 0 {
					return fmt.Errorf("record %d out of order", n)
				}
				prev = append(prev[:0], rec.key...)
				n++
				return nil
			})
			if err != nil || n != 4096 {
				t.Fatalf("budget %d: %d records, err %v", tc.budget, n, err)
			}
			if s.runs < 2 || int64(s.written) != int64(tc.rounds)*s.fed {
				t.Fatalf("budget %d: %d runs wrote %d bytes of %d fed, want %d passes", tc.budget, s.runs, s.written, s.fed, tc.rounds)
			}
			if w := fx.st.MediaWrite.Value() - written0; w != tc.media {
				t.Fatalf("budget %d: media +%d bytes, want %d", tc.budget, w, tc.media)
			}
		})
	}
}

// fakeAssist is a host assist loop for one sorter: the planner ships all but
// keep of the reduced runs, and the host merges them in place — unless the
// queue refuses the job or the host goes away before answering.
type fakeAssist struct {
	keep          int  // runs left to the device
	refuse, fail  bool // submitAssist refuses the job; collectAssist reports the host gone
	reduced, sent int  // runs the planner saw and the submit shipped
	jobs          int  // jobs submitted and not collected: the engine's host_merge_jobs
}

func (fa *fakeAssist) attach(s *Sorter[klogEntry], hostCPU *host.Host) {
	s.planSplit = func(n int) int {
		fa.reduced = n
		return n - fa.keep
	}
	s.submitAssist = func(p *sim.Proc, runs []*Cluster) (*compaction.Job, error) {
		if fa.refuse {
			return nil, compaction.ErrAssistClosed
		}
		enc := make([][]byte, len(runs))
		for i, r := range runs {
			enc[i] = make([]byte, r.Len())
			if err := r.ReadAt(p, enc[i], 0); err != nil {
				return nil, err
			}
		}
		fa.sent = len(runs)
		fa.jobs++
		return &compaction.Job{Payload: compaction.EncodeRuns(enc)}, nil
	}
	s.collectAssist = func(p *sim.Proc, job *compaction.Job) ([]byte, error) {
		fa.jobs--
		if fa.fail {
			return nil, compaction.ErrAssistClosed
		}
		runs, err := compaction.DecodeRuns(job.Payload)
		if err != nil {
			return nil, err
		}
		return MergeEncodedKlogRuns(p, hostCPU, runs)
	}
}

// TestStreamSplitFinalMerge drives Stream's host split through fake assist
// hooks. The final merge of the device's run against the host's run from SoC
// DRAM streams out exactly what a device-only sort emits, with the device
// group pre-merged or alone. A plan that ships every run is not taken: the
// device merges them all and nothing is submitted. A refused submit — with
// one run left to the device — and a host that goes away both leave the
// device to merge every run, and the sort says so: no host runs. An emit
// error in the final merge leaves no ZoneTemp zone owned.
func TestStreamSplitFinalMerge(t *testing.T) {
	recs := benchKlogEntries(4096)
	var want [][]byte
	fx := newSortFixture(16 << 10)
	fx.run(t, func(p *sim.Proc) {
		s := NewSorter[klogEntry](fx.zm, fx.soc, fx.cfg, klogCodec{}, klogKey, compareKlog)
		if err := s.Stream(p, &sliceSource[klogEntry]{recs: recs}, func(_ *sim.Proc, rec klogEntry) error {
			want = append(want, klogCodec{}.Encode(nil, rec))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
	errEmit := errors.New("consumer failed")
	for _, tc := range []struct {
		name     string
		fa       fakeAssist
		failAt   int  // emit fails at this record (0: never)
		hostDone bool // the host's share is merged on the host
		shipped  bool // the host's share was submitted and accepted
	}{
		{"collaborative", fakeAssist{keep: 3}, 0, true, true},
		{"one device run", fakeAssist{keep: 1}, 0, true, true},
		{"host only", fakeAssist{keep: 0}, 0, false, false},
		{"refused", fakeAssist{keep: 1, refuse: true}, 0, false, false},
		{"host gone", fakeAssist{keep: 3, fail: true}, 0, false, true},
		{"emit error", fakeAssist{keep: 3}, len(recs) / 2, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := newSortFixture(16 << 10)
			fx.run(t, func(p *sim.Proc) {
				s := NewSorter[klogEntry](fx.zm, fx.soc, fx.cfg, klogCodec{}, klogKey, compareKlog)
				s.pipe = stagedPipeline(fx.env, 2)
				fa := tc.fa
				fa.attach(s, host.New(fx.env, host.DefaultSoCConfig()))
				var got [][]byte
				err := s.Stream(p, &sliceSource[klogEntry]{recs: recs}, func(_ *sim.Proc, rec klogEntry) error {
					if len(got)+1 == tc.failAt {
						return errEmit
					}
					got = append(got, klogCodec{}.Encode(nil, rec))
					return nil
				})
				if n := fx.zm.UsedByType()[ZoneTemp]; n != 0 {
					t.Fatalf("%d ZoneTemp zones still owned after the sort", n)
				}
				if tc.failAt > 0 {
					if !errors.Is(err, errEmit) || len(got) != tc.failAt-1 {
						t.Fatalf("%d records out, err %v; want the emit error at record %d", len(got), err, tc.failAt)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				wantSent := 0
				if tc.shipped {
					wantSent = fa.reduced - fa.keep
				}
				if fa.reduced < 4 || fa.sent != wantSent || fa.jobs != 0 {
					t.Fatalf("%d reduced runs, %d shipped, %d jobs left; want %d shipped and none left", fa.reduced, fa.sent, fa.jobs, wantSent)
				}
				wantHost, wantDev := 0, fa.reduced
				if tc.hostDone {
					wantHost, wantDev = fa.reduced-fa.keep, fa.keep
				}
				if s.hostRuns != wantHost || s.deviceRuns != wantDev {
					t.Fatalf("host %d and device %d runs, want %d and %d", s.hostRuns, s.deviceRuns, wantHost, wantDev)
				}
				if len(got) != len(want) {
					t.Fatalf("%d records out, want %d", len(got), len(want))
				}
				for i := range got {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("record %d: got %x, want the device-only sort's %x", i, got[i], want[i])
					}
				}
			})
		})
	}
}

// TestFailedPreMergeSettlesHostJob: when the device's pre-merge of its share
// fails after the host group was submitted — a zone-read fault armed, as the
// submit starts, on a zone of a run the device kept — the sort still collects
// the host's job, so the engine's host_merge_jobs gauge (the fake's count of
// jobs in flight) is back to 0, and it leaves no ZoneTemp zone owned.
func TestFailedPreMergeSettlesHostJob(t *testing.T) {
	recs := benchKlogEntries(4096)
	fx := newSortFixture(16 << 10)
	fx.run(t, func(p *sim.Proc) {
		s := NewSorter[klogEntry](fx.zm, fx.soc, fx.cfg, klogCodec{}, klogKey, compareKlog)
		s.pipe = stagedPipeline(fx.env, 2)
		fa := fakeAssist{keep: 3}
		fa.attach(s, host.New(fx.env, host.DefaultSoCConfig()))
		submit := s.submitAssist
		collect := s.collectAssist
		var collected bool
		s.submitAssist = func(sp *sim.Proc, runs []*Cluster) (*compaction.Job, error) {
			shipped := map[int]bool{}
			for _, r := range runs {
				for _, z := range r.Zones() {
					shipped[z] = true
				}
			}
			kept := -1 // the highest-numbered zone of a run the device kept
			for z, typ := range fx.zm.used {
				if typ == ZoneTemp && !shipped[z] {
					kept = max(kept, z)
				}
			}
			fx.zm.dev.InjectFault("zone-read", int64(kept), 1)
			return submit(sp, runs)
		}
		s.collectAssist = func(cp *sim.Proc, job *compaction.Job) ([]byte, error) {
			collected = true
			return collect(cp, job)
		}
		err := s.Stream(p, &sliceSource[klogEntry]{recs: recs}, func(*sim.Proc, klogEntry) error { return nil })
		if !errors.Is(err, ssd.ErrInjectedFault) || fa.sent == 0 || !collected {
			t.Fatalf("%d runs shipped, collected %v, err %v: want the injected fault in the pre-merge", fa.sent, collected, err)
		}
		if fa.jobs != 0 {
			t.Errorf("%d host jobs left uncollected", fa.jobs)
		}
		if n := fx.zm.UsedByType()[ZoneTemp]; n != 0 {
			t.Errorf("%d ZoneTemp zones still owned after the sort", n)
		}
	})
}
