package core

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"kvcsd/internal/sim"
	"kvcsd/internal/ssd"
	"kvcsd/internal/stats"
)

func testSSDConfig() ssd.Config {
	cfg := ssd.DefaultConfig()
	cfg.ZoneSize = 64 << 10
	cfg.NumZones = 256
	cfg.Channels = 8
	return cfg
}

type clusterFixture struct {
	env *sim.Env
	dev *ssd.Device
	zm  *ZoneManager
}

func newClusterFixture(cfg Config) *clusterFixture {
	env := sim.NewEnv()
	dev := ssd.New(env, testSSDConfig(), stats.NewIOStats())
	zm := NewZoneManager(dev, cfg.sanitize(), sim.NewRNG(7))
	return &clusterFixture{env: env, dev: dev, zm: zm}
}

func (fx *clusterFixture) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	fx.env.Go("test", fn)
	fx.env.Run()
}

func TestClusterAppendReadRoundTrip(t *testing.T) {
	fx := newClusterFixture(DefaultConfig())
	fx.run(t, func(p *sim.Proc) {
		c := fx.zm.NewCluster(ZoneVLOG)
		var want []byte
		for i := 0; i < 50; i++ {
			chunk := bytes.Repeat([]byte{byte(i)}, 1000+i*37)
			if err := c.Append(p, chunk); err != nil {
				t.Fatal(err)
			}
			want = append(want, chunk...)
		}
		got := make([]byte, len(want))
		if err := c.ReadAt(p, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("round trip mismatch")
		}
		// Unaligned mid-stream read spanning granules.
		sub := make([]byte, 9000)
		if err := c.ReadAt(p, sub, 12345); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sub, want[12345:12345+9000]) {
			t.Fatal("sub read mismatch")
		}
	})
}

func TestClusterTailServedFromDRAM(t *testing.T) {
	fx := newClusterFixture(DefaultConfig())
	fx.run(t, func(p *sim.Proc) {
		c := fx.zm.NewCluster(ZoneKLOG)
		if err := c.Append(p, []byte("tail bytes")); err != nil {
			t.Fatal(err)
		}
		before := fx.dev.Stats().MediaRead.Value()
		buf := make([]byte, 10)
		if err := c.ReadAt(p, buf, 0); err != nil {
			t.Fatal(err)
		}
		if string(buf) != "tail bytes" {
			t.Fatalf("tail read %q", buf)
		}
		if fx.dev.Stats().MediaRead.Value() != before {
			t.Fatal("tail read touched media")
		}
	})
}

func TestClusterSealFlushesTail(t *testing.T) {
	fx := newClusterFixture(DefaultConfig())
	fx.run(t, func(p *sim.Proc) {
		c := fx.zm.NewCluster(ZoneVLOG)
		_ = c.Append(p, []byte("small"))
		if err := c.Seal(p); err != nil {
			t.Fatal(err)
		}
		if !c.Sealed() {
			t.Fatal("not sealed")
		}
		buf := make([]byte, 5)
		if err := c.ReadAt(p, buf, 0); err != nil {
			t.Fatal(err)
		}
		if string(buf) != "small" {
			t.Fatalf("read %q", buf)
		}
		if err := c.Append(p, []byte("x")); !errors.Is(err, ErrClusterSealed) {
			t.Fatalf("append after seal: %v", err)
		}
		// Double seal is a no-op.
		if err := c.Seal(p); err != nil {
			t.Fatal(err)
		}
	})
}

func TestClusterGrowsAcrossStripes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StripeWidth = 2
	fx := newClusterFixture(cfg)
	fx.run(t, func(p *sim.Proc) {
		c := fx.zm.NewCluster(ZoneVLOG)
		// One stripe = 2 zones * 64 KiB = 128 KiB; write 300 KiB.
		data := bytes.Repeat([]byte("abcdefgh"), 300*128)
		if err := c.Append(p, data); err != nil {
			t.Fatal(err)
		}
		if len(c.Zones()) < 4 {
			t.Fatalf("expected >= 2 stripes, zones = %v", c.Zones())
		}
		got := make([]byte, len(data))
		if err := c.ReadAt(p, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("multi-stripe round trip mismatch")
		}
	})
}

func TestClusterReadBounds(t *testing.T) {
	fx := newClusterFixture(DefaultConfig())
	fx.run(t, func(p *sim.Proc) {
		c := fx.zm.NewCluster(ZoneVLOG)
		_ = c.Append(p, make([]byte, 100))
		buf := make([]byte, 10)
		if err := c.ReadAt(p, buf, 95); !errors.Is(err, ErrReadBounds) {
			t.Fatalf("err = %v", err)
		}
		if err := c.ReadAt(p, buf, -1); !errors.Is(err, ErrReadBounds) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestClusterReleaseReturnsZones(t *testing.T) {
	fx := newClusterFixture(DefaultConfig())
	fx.run(t, func(p *sim.Proc) {
		free0 := fx.zm.FreeZones()
		c := fx.zm.NewCluster(ZoneVLOG)
		_ = c.Append(p, make([]byte, 128<<10))
		if fx.zm.FreeZones() >= free0 {
			t.Fatal("no zones allocated")
		}
		if err := c.Release(p); err != nil {
			t.Fatal(err)
		}
		if fx.zm.FreeZones() != free0 {
			t.Fatalf("zones leaked: %d != %d", fx.zm.FreeZones(), free0)
		}
		if fx.zm.UsedZones() != 0 {
			t.Fatal("used zones nonzero after release")
		}
	})
}

func TestClusterExhaustion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StripeWidth = 4
	fx := newClusterFixture(cfg)
	fx.run(t, func(p *sim.Proc) {
		c := fx.zm.NewCluster(ZoneVLOG)
		// 256 zones * 64 KiB = 16 MiB total. Try to write past that.
		var err error
		for i := 0; i < 300; i++ {
			err = c.Append(p, make([]byte, 64<<10))
			if err != nil {
				break
			}
		}
		if !errors.Is(err, ErrNoZones) {
			t.Fatalf("expected exhaustion, got %v", err)
		}
	})
}

func TestClusterRandomOffsetVariesChannels(t *testing.T) {
	fx := newClusterFixture(DefaultConfig())
	offsets := map[int]bool{}
	for i := 0; i < 16; i++ {
		c := fx.zm.NewCluster(ZoneVLOG)
		offsets[c.offset] = true
	}
	if len(offsets) < 2 {
		t.Fatal("random stripe offsets never vary")
	}
}

func TestZoneTypeStrings(t *testing.T) {
	want := map[ZoneType]string{
		ZoneKLOG: "KLOG", ZoneVLOG: "VLOG", ZonePIDX: "PIDX",
		ZoneSIDX: "SIDX", ZoneSortedValues: "SORTED_VALUES", ZoneTemp: "TEMP",
	}
	for ty, s := range want {
		if ty.String() != s {
			t.Errorf("%d -> %q", ty, ty.String())
		}
	}
	if ZoneType(99).String() != "ZoneType(99)" {
		t.Fatal("unknown type string")
	}
}

func TestZoneManagerAccounting(t *testing.T) {
	fx := newClusterFixture(DefaultConfig())
	fx.run(t, func(p *sim.Proc) {
		c1 := fx.zm.NewCluster(ZoneKLOG)
		c2 := fx.zm.NewCluster(ZoneVLOG)
		_ = c1.Append(p, make([]byte, 8192))
		_ = c2.Append(p, make([]byte, 8192))
		byType := fx.zm.UsedByType()
		if byType[ZoneKLOG] == 0 || byType[ZoneVLOG] == 0 {
			t.Fatalf("type accounting: %v", byType)
		}
	})
}

func TestClusterPropertyRoundTrip(t *testing.T) {
	f := func(chunks [][]byte, readOff uint16) bool {
		var total int
		for _, c := range chunks {
			total += len(c)
		}
		if total == 0 || total > 1<<20 {
			return true
		}
		fx := newClusterFixture(DefaultConfig())
		ok := true
		fx.run(t, func(p *sim.Proc) {
			c := fx.zm.NewCluster(ZoneVLOG)
			var want []byte
			for _, ch := range chunks {
				if err := c.Append(p, ch); err != nil {
					ok = false
					return
				}
				want = append(want, ch...)
			}
			got := make([]byte, len(want))
			if err := c.ReadAt(p, got, 0); err != nil || !bytes.Equal(got, want) {
				ok = false
				return
			}
			// Random partial read.
			off := int(readOff) % len(want)
			n := len(want) - off
			sub := make([]byte, n)
			if err := c.ReadAt(p, sub, int64(off)); err != nil || !bytes.Equal(sub, want[off:]) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestSealDropsTail: a sealed cluster holds no tail buffer, whether its
// last Append left a partial granule or only whole ones.
func TestSealDropsTail(t *testing.T) {
	for _, n := range []int{100, 64 << 10} {
		fx := newClusterFixture(DefaultConfig())
		fx.run(t, func(p *sim.Proc) {
			c := fx.zm.NewCluster(ZonePIDX)
			if err := c.Append(p, make([]byte, n)); err != nil {
				t.Fatal(err)
			}
			if err := c.Seal(p); err != nil {
				t.Fatal(err)
			}
			if c.tail != nil {
				t.Errorf("%d bytes appended: a sealed cluster keeps a tail of capacity %d", n, cap(c.tail))
			}
		})
	}
}
