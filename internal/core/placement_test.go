package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
	"kvcsd/internal/ssd"
	"kvcsd/internal/stats"
)

// newPlacementZM builds a zone manager over testSSDConfig's 8 channels (and,
// with cold > 0, that many cold-tier zones at the device tail).
func newPlacementZM(width, cold int) (*ZoneManager, *ssd.Device) {
	scfg := testSSDConfig()
	scfg.ColdZones = cold
	dev := ssd.New(sim.NewEnv(), scfg, stats.NewIOStats())
	cfg := DefaultConfig()
	cfg.StripeWidth = width
	return NewZoneManager(dev, cfg.sanitize(), sim.NewRNG(7)), dev
}

// channels maps zones to their channels.
func channels(zm *ZoneManager, zones []int) []int {
	out := make([]int, len(zones))
	for i, z := range zones {
		out[i] = zm.chanOf(z)
	}
	return out
}

// free returns zones to the pool the way release does, without the reset
// (which needs a sim proc): the accounting is the same.
func free(zm *ZoneManager, zones []int) {
	for _, z := range zones {
		zm.unuse(z)
		if !zm.quarantined[z] {
			zm.pushFree(z)
		}
	}
}

// checkAccounting recounts every channel's load and free zones from the used
// set, the quarantine set and the device, and compares them with the
// manager's counters.
func checkAccounting(t *testing.T, zm *ZoneManager) {
	t.Helper()
	load := make([]int, len(zm.load))
	for z := range zm.used {
		load[zm.chanOf(z)]++
	}
	if !slices.Equal(load, zm.load) {
		t.Fatalf("channel loads %v, recount %v", zm.load, load)
	}
	hot, cold := 0, 0
	for z := metadataZones; z < zm.dev.NumZones(); z++ {
		if _, used := zm.used[z]; used || zm.quarantined[z] {
			continue
		}
		if zm.IsColdZone(z) {
			cold++
		} else {
			hot++
		}
	}
	if zm.FreeZones() != hot || zm.ColdCapacity() != cold {
		t.Fatalf("FreeZones %d ColdCapacity %d, recount %d and %d", zm.FreeZones(), zm.ColdCapacity(), hot, cold)
	}
	listed := 0
	for c, l := range zm.free {
		for _, z := range l {
			if zm.chanOf(z) != c || zm.IsColdZone(z) {
				t.Fatalf("zone %d listed free on hot channel %d", z, c)
			}
		}
		listed += len(l)
	}
	if listed != hot {
		t.Fatalf("%d zones on the hot free lists, %d free", listed, hot)
	}
}

func TestStripesSpanDistinctChannels(t *testing.T) {
	for _, w := range []int{1, 4, 8} {
		t.Run(fmt.Sprint("width ", w), func(t *testing.T) {
			zm, _ := newPlacementZM(w, 0)
			rng := sim.NewRNG(3)
			var held [][]int
			for i := 0; i < 400; i++ {
				if len(held) > 0 && (zm.FreeZones() < 2*w || rng.Intn(2) == 0) {
					k := rng.Intn(len(held))
					free(zm, held[k])
					held = slices.Delete(held, k, k+1)
					continue
				}
				s, err := zm.allocStripe(ZoneTemp)
				if err != nil {
					t.Fatal(err)
				}
				chans := channels(zm, s)
				slices.Sort(chans)
				if len(slices.Compact(chans)) != w {
					t.Fatalf("stripe %v sits on channels %v", s, channels(zm, s))
				}
				held = append(held, s)
			}
			checkAccounting(t, zm)
		})
	}
}

func TestStripeTakesLeastLoadedThenRotates(t *testing.T) {
	zm, _ := newPlacementZM(4, 0)
	alloc := func() []int {
		t.Helper()
		s, err := zm.allocStripe(ZoneTemp)
		if err != nil {
			t.Fatal(err)
		}
		return channels(zm, s)
	}
	// Even loads: the first stripe starts on the first allocatable zone's
	// channel (metadataZones), the next where the first stopped.
	s1 := alloc()
	if want := []int{2, 3, 4, 5}; !slices.Equal(s1, want) {
		t.Fatalf("first stripe on channels %v, want %v", s1, want)
	}
	zones := zm.used
	var on45 []int
	for z := range zones {
		if c := zm.chanOf(z); c == 4 || c == 5 {
			on45 = append(on45, z)
		}
	}
	free(zm, on45)
	// Channels 2 and 3 hold a zone; the cursor sits on 6.
	if got, want := alloc(), []int{6, 7, 0, 1}; !slices.Equal(got, want) {
		t.Fatalf("second stripe on channels %v, want %v", got, want)
	}
	// 4 and 5 are now the least loaded: they come first, ahead of the
	// cursor's channel 2, then the ties from the cursor.
	if got, want := alloc(), []int{4, 5, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("third stripe on channels %v, want %v", got, want)
	}
	// All at load 1 but 2 and 3 (load 2): the tie goes on from after the
	// last channel taken, 3.
	if got, want := alloc(), []int{4, 5, 6, 7}; !slices.Equal(got, want) {
		t.Fatalf("fourth stripe on channels %v, want %v", got, want)
	}
	checkAccounting(t, zm)
}

func TestZoneAccountingMatchesRecount(t *testing.T) {
	zm, _ := newPlacementZM(4, 32)
	rng := sim.NewRNG(5)
	var held []int
	take := func(zs ...int) { held = append(held, zs...) }
	for i := 0; i < 2000; i++ {
		switch op := rng.Intn(7); {
		case op == 0 && zm.FreeZones() >= 4:
			s, err := zm.allocStripe(ZoneSIDX)
			if err != nil {
				t.Fatal(err)
			}
			take(s...)
		case op == 1 && len(held) > 0:
			k := rng.Intn(len(held))
			free(zm, held[k:k+1])
			held = slices.Delete(held, k, k+1)
		case op == 2:
			// Recovery claims a zone whatever its state: free, used or cold.
			z := metadataZones + rng.Intn(zm.dev.NumZones()-metadataZones)
			if !zm.quarantined[z] {
				if _, used := zm.used[z]; !used {
					take(z)
				}
				zm.claim(z, ZonePIDX)
			}
		case op == 3:
			// A zone quarantined while free or while used.
			z := metadataZones + rng.Intn(zm.dev.NumZones()-metadataZones)
			if k := slices.Index(held, z); k >= 0 {
				held = slices.Delete(held, k, k+1)
			}
			zm.quarantine(z)
		case op == 4 && zm.ColdCapacity() > 0:
			z, err := zm.allocColdZone(ZoneSortedValues)
			if err != nil {
				t.Fatal(err)
			}
			take(z)
		case op == 5 && zm.FreeZones() > 0 && len(held) > 0:
			bad := held[rng.Intn(len(held))]
			z, err := zm.allocZone(ZoneSortedValues, bad, nil)
			if err != nil {
				t.Fatal(err)
			}
			take(z)
		}
		checkAccounting(t, zm)
	}
	if zm.QuarantinedZones() == 0 || zm.ColdCapacity() == 32 {
		t.Fatalf("sequence too tame: %d quarantined, %d cold free", zm.QuarantinedZones(), zm.ColdCapacity())
	}
}

func TestReplaceZoneKeepsStripeOnDistinctChannels(t *testing.T) {
	fx := newClusterFixture(DefaultConfig())
	fx.run(t, func(p *sim.Proc) {
		zm := fx.zm
		c := zm.NewCluster(ZoneSortedValues)
		if err := c.Append(p, make([]byte, 64<<10)); err != nil {
			t.Fatal(err)
		}
		other, err := zm.allocStripe(ZoneTemp) // loads channels 6, 7, 0, 1
		if err != nil {
			t.Fatal(err)
		}
		stripe := c.stripes[0]
		bad := stripe[1]
		fresh, err := c.replaceZone(p, bad)
		if err != nil {
			t.Fatal(err)
		}
		if zm.chanOf(fresh) != zm.chanOf(bad) {
			t.Fatalf("replacement %d on channel %d, bad zone %d on %d", fresh, zm.chanOf(fresh), bad, zm.chanOf(bad))
		}
		// Drain the next victim's channel and unload 6 and 7: the
		// replacement goes to the least-loaded channel the stripe does not
		// use, 6 (the first from the cursor, 2, at load 0).
		bad = stripe[2]
		ch := zm.chanOf(bad)
		for len(zm.free[ch]) > 0 {
			zm.claim(zm.free[ch][len(zm.free[ch])-1], ZoneTemp)
		}
		free(zm, other[:2])
		fresh, err = c.replaceZone(p, bad)
		if err != nil {
			t.Fatal(err)
		}
		if got := zm.chanOf(fresh); got != 6 {
			t.Fatalf("replacement on channel %d, want 6 (least loaded, not in the stripe)", got)
		}
		chans := channels(zm, c.stripes[0])
		slices.Sort(chans)
		if len(slices.Compact(chans)) != len(c.stripes[0]) {
			t.Fatalf("stripe %v shares a channel after replacement", c.stripes[0])
		}
		checkAccounting(t, zm)
	})
}

func TestColdZoneOnLeastLoadedChannel(t *testing.T) {
	zm, _ := newPlacementZM(4, 32)
	if _, err := zm.allocStripe(ZonePIDX); err != nil { // channels 2..5; cursor on 6
		t.Fatal(err)
	}
	// Load the cursor's channels 6 and 7: the cold zone goes to channel 0,
	// the first unloaded channel after them.
	for _, c := range []int{6, 7} {
		zm.claim(zm.free[c][len(zm.free[c])-1], ZoneTemp)
	}
	z, err := zm.allocColdZone(ZoneSortedValues)
	if err != nil {
		t.Fatal(err)
	}
	if !zm.IsColdZone(z) || zm.chanOf(z) != 0 {
		t.Fatalf("cold zone %d on channel %d, want a cold zone on channel 0", z, zm.chanOf(z))
	}
	checkAccounting(t, zm)
}

// TestCompactedClustersShareNoChannel compacts keyspaces whose sorts spill,
// so scratch runs and value buckets come and go between a keyspace's PIDX and
// SORTED_VALUES stripes. Every get reads the one and then the other, so they
// must sit on distinct channels (SORTED_VALUES names its PIDX apart), both
// when the keyspaces compact one after another — under LIFO free-list
// placement the second keyspace's two stripes shared all four channels (5 4 3
// 2 and 2 3 4 5) — and when eight compact at once, where round-robin ties
// alone repeat every four stripes and stacked the first four keyspaces' two
// clusters on one channel set.
func TestCompactedClustersShareNoChannel(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n        int
		together bool
	}{{"one after another", 4, false}, {"eight at once", 8, true}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.SortBudgetBytes = 32 << 10
			fx := newEngineFixture(cfg)
			fx.run(t, func(p *sim.Proc) {
				names := make([]string, tc.n)
				for k := range names {
					names[k] = fmt.Sprint("ks", k)
					if err := fx.eng.CreateKeyspace(p, names[k]); err != nil {
						t.Fatal(err)
					}
					var pairs []nvme.KVPair
					for i := 0; i < 8000; i++ {
						pairs = append(pairs, nvme.KVPair{Key: tkey(i), Value: tvalue(i, float32(i))})
					}
					if err := fx.eng.BulkOps(p, names[k], pairs); err != nil {
						t.Fatal(err)
					}
					if tc.together {
						continue
					}
					compactAll(t, p, fx.eng, names[k])
				}
				if tc.together {
					compactAll(t, p, fx.eng, names...)
				}
				for _, name := range names {
					ks, _ := fx.eng.mgr.Get(name)
					pidx := channels(fx.eng.zm, ks.pidx.Zones())
					sorted := channels(fx.eng.zm, ks.sorted.Zones())
					for _, c := range pidx {
						if slices.Contains(sorted, c) {
							t.Errorf("%s: PIDX on channels %v and SORTED_VALUES on %v share channel %d", name, pidx, sorted, c)
							break
						}
					}
				}
				checkAccounting(t, fx.eng.zm)
			})
		})
	}
}

// compactAll starts every named keyspace's compaction, then waits for each.
func compactAll(t *testing.T, p *sim.Proc, eng *Engine, names ...string) {
	t.Helper()
	for _, name := range names {
		if err := eng.Compact(p, name); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range names {
		if err := eng.WaitCompacted(p, name); err != nil {
			t.Fatal(err)
		}
	}
}

// TestValueBucketsKeepOffVLOG: a spilled value sort's destination and value
// buckets — its only temp clusters here, the keys fitting the budget — take
// no zone on the VLOG's channels, which the destination pass reads while it
// reads the one and writes the other. When only the VLOG's channels have
// free zones the buckets go there by the plain rule, and the compaction
// completes.
func TestValueBucketsKeepOffVLOG(t *testing.T) {
	for _, onlyVLOG := range []bool{false, true} {
		t.Run(fmt.Sprint("only VLOG channels free ", onlyVLOG), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.SortBudgetBytes = 32 << 10
			fx := newEngineFixture(cfg)
			zm := fx.eng.zm
			fx.run(t, func(p *sim.Proc) {
				// 1 KiB values: a 520 KB VLOG in one stripe, 16 value and 16
				// destination buckets; 15 KB of KLOG entries sort in DRAM.
				want := ingestShuffled(t, p, fx.eng, "ks", 500, 1024)
				ks, _ := fx.eng.mgr.Get("ks")
				vlog := channels(zm, ks.vlog.Zones())
				if onlyVLOG {
					for c := range zm.free {
						for !slices.Contains(vlog, c) && len(zm.free[c]) > 0 {
							zm.claim(zm.free[c][len(zm.free[c])-1], ZoneKLOG)
						}
					}
				}
				done, temps := false, 0
				fx.env.Go("probe", func(p *sim.Proc) {
					for !done {
						for z, typ := range zm.used {
							if typ != ZoneTemp {
								continue
							}
							temps++
							if c := zm.chanOf(z); slices.Contains(vlog, c) != onlyVLOG {
								t.Errorf("bucket zone %d on channel %d, VLOG on %v", z, c, vlog)
								done = true
							}
						}
						p.Sleep(20 * time.Microsecond)
					}
				})
				compactAll(t, p, fx.eng, "ks")
				done = true
				if temps == 0 {
					t.Fatal("the probe saw no bucket zone")
				}
				checkPairs(t, p, fx.eng, "ks", want)
				checkAccounting(t, zm)
			})
		})
	}
}

func TestAllocStripeAllocs(t *testing.T) {
	zm, _ := newPlacementZM(4, 0)
	vlog := zm.NewCluster(ZoneVLOG)
	s, err := zm.allocStripe(ZoneVLOG) // uneven loads from here on
	if err != nil {
		t.Fatal(err)
	}
	vlog.stripes = [][]int{s}
	for _, apart := range [][]*Cluster{nil, {vlog}} {
		allocs := testing.AllocsPerRun(200, func() {
			s, err := zm.allocStripe(ZoneTemp, apart...)
			if err != nil {
				t.Fatal(err)
			}
			free(zm, s)
		})
		if allocs != 1 {
			t.Fatalf("allocStripe with %d apart clusters allocates %.1f times, want 1 (the stripe slice)", len(apart), allocs)
		}
	}
}

// FuzzAllocStripe runs allocate, release and drain sequences, each stripe
// with an apart set drawn from the clusters held, and checks after every
// step: a stripe's channels are distinct whenever at least StripeWidth
// channels have a free zone; it takes min(k, StripeWidth) distinct channels
// of the k with a free zone that hold no apart cluster's zone, so an apart
// channel is used only when too few others have one; and the manager's
// counters match a recount.
func FuzzAllocStripe(f *testing.F) {
	f.Add(uint8(2), []byte{0, 0, 0, 3, 0, 7, 1, 0, 0xff})
	f.Add(uint8(1), []byte{0, 1, 0, 0, 2, 5, 0, 3, 0})
	f.Add(uint8(3), []byte{2, 0, 2, 1, 2, 2, 0, 0xff, 1, 0})
	f.Fuzz(func(t *testing.T, widthSel uint8, ops []byte) {
		w := []int{1, 2, 4, 8}[widthSel%4]
		ops = ops[:min(len(ops), 512)] // 32 zones a channel: longer adds little
		zm, _ := newPlacementZM(w, 0)
		var held []*Cluster
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%3, int(ops[i+1])
			switch {
			case op == 0:
				// arg's bits pick the apart set among the last eight held.
				var apart []*Cluster
				for b := 0; b < 8 && b < len(held); b++ {
					if arg&(1<<b) != 0 {
						apart = append(apart, held[len(held)-1-b])
					}
				}
				onApart := func(c int) bool {
					return slices.ContainsFunc(apart, func(a *Cluster) bool {
						return slices.Contains(channels(zm, a.Zones()), c)
					})
				}
				withFree, others := 0, 0
				for c := range zm.free {
					if len(zm.free[c]) > 0 {
						withFree++
						if !onApart(c) {
							others++
						}
					}
				}
				s, err := zm.allocStripe(ZoneTemp, apart...)
				if zm.FreeZones()+len(s) < w {
					if err == nil {
						t.Fatalf("stripe %v allocated with fewer than %d zones free", s, w)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				chans := channels(zm, s)
				distinct := slices.Clone(chans)
				slices.Sort(distinct)
				distinct = slices.Compact(distinct)
				if withFree >= w && len(distinct) != w {
					t.Fatalf("stripe on channels %v with %d channels free", chans, withFree)
				}
				off := slices.DeleteFunc(distinct, onApart)
				if len(off) != min(others, w) {
					t.Fatalf("stripe on channels %v: %d off the apart clusters' channels, %d such channels had a free zone", chans, len(off), others)
				}
				c := zm.NewCluster(ZoneTemp)
				c.stripes = [][]int{s}
				held = append(held, c)
			case op == 1 && len(held) > 0:
				k := arg % len(held)
				free(zm, held[k].Zones())
				held = slices.Delete(held, k, k+1)
			case op == 2:
				// Drain one channel's free zones: placement must cope with
				// channels that have none.
				c := arg % len(zm.free)
				for len(zm.free[c]) > 0 {
					zm.claim(zm.free[c][len(zm.free[c])-1], ZoneKLOG)
				}
			}
			checkAccounting(t, zm)
		}
	})
}

func BenchmarkAllocStripe(b *testing.B) {
	zm, _ := newPlacementZM(4, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := zm.allocStripe(ZoneTemp)
		if err != nil {
			b.Fatal(err)
		}
		free(zm, s)
	}
}
