package core

import (
	"fmt"
	"slices"
	"testing"

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

// TestCompactedClustersShareNoChannel compacts four keyspaces one after
// another, each of whose sorts spills, so scratch runs and value buckets come
// and go between a keyspace's PIDX and SORTED_VALUES stripes. Every get reads
// the one and then the other: here, with all 16 channels free, they must sit
// on distinct channels. Under LIFO free-list placement the second keyspace's
// two stripes shared all four channels (5 4 3 2 and 2 3 4 5). Compactions
// that run at once can still share: round-robin repeats every four stripes.
func TestCompactedClustersShareNoChannel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SortBudgetBytes = 32 << 10
	fx := newEngineFixture(cfg)
	fx.run(t, func(p *sim.Proc) {
		for k := 0; k < 4; k++ {
			name := fmt.Sprint("ks", k)
			if err := fx.eng.CreateKeyspace(p, name); err != nil {
				t.Fatal(err)
			}
			var pairs []nvme.KVPair
			for i := 0; i < 8000; i++ {
				pairs = append(pairs, nvme.KVPair{Key: tkey(i), Value: tvalue(i, float32(i))})
			}
			if err := fx.eng.BulkOps(p, name, pairs); err != nil {
				t.Fatal(err)
			}
			if err := fx.eng.Compact(p, name); err != nil {
				t.Fatal(err)
			}
			if err := fx.eng.WaitCompacted(p, name); err != nil {
				t.Fatal(err)
			}
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
}

func TestAllocStripeAllocs(t *testing.T) {
	zm, _ := newPlacementZM(4, 0)
	if _, err := zm.allocStripe(ZoneTemp); err != nil { // uneven loads from here on
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		s, err := zm.allocStripe(ZoneTemp)
		if err != nil {
			t.Fatal(err)
		}
		free(zm, s)
	})
	if allocs != 1 {
		t.Fatalf("allocStripe allocates %.1f times, want 1 (the stripe slice)", allocs)
	}
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
