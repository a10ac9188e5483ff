package device

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"kvcsd/internal/keyenc"
	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
)

// loadParticles inserts n pairs whose last 4 bytes are a float32 attribute.
func loadParticles(p *sim.Proc, d *Device, ks string, n int) error {
	if c := submit(p, d, &nvme.Command{Op: nvme.OpCreateKeyspace, Keyspace: ks}); c.Status != nvme.StatusOK {
		return fmt.Errorf("create: %v", c.Status)
	}
	var pairs []nvme.KVPair
	for i := 0; i < n; i++ {
		v := make([]byte, 16)
		copy(v[12:], keyenc.PutFloat32(float32(i%10))) // big-endian tag for TypeBytes
		pairs = append(pairs, nvme.KVPair{Key: keyenc.PutUint64(uint64(i)), Value: v})
		if len(pairs) == 512 {
			if c := submit(p, d, &nvme.Command{Op: nvme.OpBulkStore, Keyspace: ks, Pairs: pairs}); c.Status != nvme.StatusOK {
				return fmt.Errorf("bulk: %v", c.Status)
			}
			pairs = nil
		}
	}
	if len(pairs) > 0 {
		if c := submit(p, d, &nvme.Command{Op: nvme.OpBulkStore, Keyspace: ks, Pairs: pairs}); c.Status != nvme.StatusOK {
			return fmt.Errorf("bulk: %v", c.Status)
		}
	}
	return nil
}

func waitCompacted(p *sim.Proc, d *Device, ks string) {
	for {
		c := submit(p, d, &nvme.Command{Op: nvme.OpCompactStatus, Keyspace: ks})
		if c.Done {
			return
		}
		p.Sleep(1e6)
	}
}

func TestSecondaryCommandsThroughQueue(t *testing.T) {
	env, d, _ := newTestDevice()
	env.Go("host", func(p *sim.Proc) {
		defer d.Shutdown()
		if err := loadParticles(p, d, "ks", 1000); err != nil {
			t.Error(err)
			return
		}
		if c := submit(p, d, &nvme.Command{Op: nvme.OpCompact, Keyspace: "ks"}); c.Status != nvme.StatusOK {
			t.Errorf("compact: %v", c.Status)
			return
		}
		waitCompacted(p, d, "ks")
		spec := nvme.SecondaryIndexSpec{Name: "tag", Offset: 12, Length: 4, Type: keyenc.TypeBytes}
		if c := submit(p, d, &nvme.Command{Op: nvme.OpBuildSecondaryIndex, Keyspace: "ks", Index: spec}); c.Status != nvme.StatusOK {
			t.Errorf("build: %v", c.Status)
			return
		}
		for {
			c := submit(p, d, &nvme.Command{Op: nvme.OpIndexStatus, Keyspace: "ks", Index: spec})
			if c.Status != nvme.StatusOK {
				t.Errorf("index status: %v", c.Status)
				return
			}
			if c.Done {
				break
			}
			p.Sleep(1e6)
		}
		// Point query on the secondary key.
		c := submit(p, d, &nvme.Command{
			Op: nvme.OpQuerySecondaryPoint, Keyspace: "ks",
			Index: nvme.SecondaryIndexSpec{Name: "tag"},
			Key:   keyenc.PutFloat32(3),
		})
		if c.Status != nvme.StatusOK || len(c.Pairs) != 100 {
			t.Errorf("point query: %v %d pairs", c.Status, len(c.Pairs))
		}
		// Range query over the secondary key.
		c = submit(p, d, &nvme.Command{
			Op: nvme.OpQuerySecondaryRange, Keyspace: "ks",
			Index: nvme.SecondaryIndexSpec{Name: "tag"},
			Low:   keyenc.PutFloat32(3), High: keyenc.PutFloat32(5),
		})
		if c.Status != nvme.StatusOK || len(c.Pairs) != 200 {
			t.Errorf("range query: %v %d pairs", c.Status, len(c.Pairs))
		}
		// Unknown index.
		c = submit(p, d, &nvme.Command{
			Op: nvme.OpQuerySecondaryRange, Keyspace: "ks",
			Index: nvme.SecondaryIndexSpec{Name: "ghost"},
		})
		if c.Status != nvme.StatusNotFound {
			t.Errorf("ghost index: %v", c.Status)
		}
	})
	env.Run()
}

func TestCompactWithIndexesCommand(t *testing.T) {
	env, d, _ := newTestDevice()
	env.Go("host", func(p *sim.Proc) {
		defer d.Shutdown()
		if err := loadParticles(p, d, "ks", 800); err != nil {
			t.Error(err)
			return
		}
		c := submit(p, d, &nvme.Command{
			Op: nvme.OpCompactWithIndexes, Keyspace: "ks",
			Indexes: []nvme.SecondaryIndexSpec{
				{Name: "tag", Offset: 12, Length: 4, Type: keyenc.TypeBytes},
			},
		})
		if c.Status != nvme.StatusOK {
			t.Errorf("compact+idx: %v", c.Status)
			return
		}
		waitCompacted(p, d, "ks")
		if err := d.WaitBackgroundIdle(p); err != nil {
			t.Error(err)
			return
		}
		info := submit(p, d, &nvme.Command{Op: nvme.OpKeyspaceInfo, Keyspace: "ks"})
		if len(info.Info.Secondary) != 1 || info.Info.Secondary[0] != "tag" {
			t.Errorf("info secondary: %v", info.Info.Secondary)
		}
		q := submit(p, d, &nvme.Command{
			Op: nvme.OpQuerySecondaryPoint, Keyspace: "ks",
			Index: nvme.SecondaryIndexSpec{Name: "tag"},
			Key:   keyenc.PutFloat32(7),
		})
		if q.Status != nvme.StatusOK || len(q.Pairs) != 80 {
			t.Errorf("query after consolidated: %v %d", q.Status, len(q.Pairs))
		}
	})
	env.Run()
}

func TestSyncCommandAndAccessors(t *testing.T) {
	env, d, st := newTestDevice()
	env.Go("host", func(p *sim.Proc) {
		defer d.Shutdown()
		if err := loadParticles(p, d, "s", 100); err != nil {
			t.Error(err)
			return
		}
		before := st.MediaWrite.Value()
		if c := submit(p, d, &nvme.Command{Op: nvme.OpSync, Keyspace: "s"}); c.Status != nvme.StatusOK {
			t.Errorf("sync: %v", c.Status)
		}
		if st.MediaWrite.Value() <= before {
			t.Error("sync flushed nothing to media")
		}
	})
	env.Run()
	if d.Link() == nil || d.SSD() == nil || d.Stats() != st {
		t.Fatal("accessors broken")
	}
}

func TestQueryWithLimitThroughQueue(t *testing.T) {
	env, d, _ := newTestDevice()
	env.Go("host", func(p *sim.Proc) {
		defer d.Shutdown()
		if err := loadParticles(p, d, "lim", 500); err != nil {
			t.Error(err)
			return
		}
		_ = submit(p, d, &nvme.Command{Op: nvme.OpCompact, Keyspace: "lim"})
		waitCompacted(p, d, "lim")
		c := submit(p, d, &nvme.Command{Op: nvme.OpQueryPrimaryRange, Keyspace: "lim", ResultLimit: 25})
		if c.Status != nvme.StatusOK || len(c.Pairs) != 25 {
			t.Errorf("limited range: %v %d", c.Status, len(c.Pairs))
		}
		// Results sorted and values intact.
		for i := 1; i < len(c.Pairs); i++ {
			if bytes.Compare(c.Pairs[i-1].Key, c.Pairs[i].Key) >= 0 {
				t.Error("range results unsorted")
				break
			}
		}
	})
	env.Run()
}

func TestDeleteWhileIndexBuildingDeferred(t *testing.T) {
	env, d, _ := newTestDevice()
	env.Go("host", func(p *sim.Proc) {
		defer d.Shutdown()
		if err := loadParticles(p, d, "del", 2000); err != nil {
			t.Error(err)
			return
		}
		_ = submit(p, d, &nvme.Command{
			Op: nvme.OpCompactWithIndexes, Keyspace: "del",
			Indexes: []nvme.SecondaryIndexSpec{
				{Name: "tag", Offset: 12, Length: 4, Type: keyenc.TypeBytes},
			},
		})
		// Delete immediately: must wait for background work, then remove.
		c := submit(p, d, &nvme.Command{Op: nvme.OpDeleteKeyspace, Keyspace: "del"})
		if c.Status != nvme.StatusOK {
			t.Errorf("delete during background work: %v", c.Status)
			return
		}
		if c := submit(p, d, &nvme.Command{Op: nvme.OpKeyspaceInfo, Keyspace: "del"}); c.Status != nvme.StatusNotFound {
			t.Errorf("keyspace survived delete: %v", c.Status)
		}
		if free := d.Engine().ZoneManager().UsedZones(); free != 0 {
			t.Errorf("zones leaked after delete: %d", free)
		}
	})
	env.Run()
}

// TestCompactWithIndexesFailureSurfaces: a consolidated compaction whose
// declared byte range runs past the values fails, and the status poll says
// so within a bounded number of polls instead of answering "not done"
// forever.
func TestCompactWithIndexesFailureSurfaces(t *testing.T) {
	env, d, _ := newTestDevice()
	env.Go("host", func(p *sim.Proc) {
		defer d.Shutdown()
		if err := loadParticles(p, d, "ks", 1000); err != nil {
			t.Error(err)
			return
		}
		past := nvme.SecondaryIndexSpec{Name: "past", Offset: 14, Length: 4, Type: keyenc.TypeBytes} // values are 16 bytes
		if c := submit(p, d, &nvme.Command{Op: nvme.OpCompactWithIndexes, Keyspace: "ks", Indexes: []nvme.SecondaryIndexSpec{past}}); c.Status != nvme.StatusOK {
			t.Errorf("compact with indexes: %v", c.Status)
			return
		}
		for i := 0; i < 200; i++ {
			c := submit(p, d, &nvme.Command{Op: nvme.OpCompactStatus, Keyspace: "ks"})
			if c.Status != nvme.StatusOK {
				return
			}
			if c.Done {
				t.Error("compaction with an out-of-range index reported done")
				return
			}
			p.Sleep(1e6)
		}
		t.Error("status still OK and not done after 200 polls")
	})
	env.Run()
}

// TestCompactWithIndexesFailureWakesParkedWait: the same failing compaction,
// waited for with the status wait bit, answers in one round trip with the
// typed status the non-blocking poll gives once the job has died.
func TestCompactWithIndexesFailureWakesParkedWait(t *testing.T) {
	env, d, _ := newTestDevice()
	env.Go("host", func(p *sim.Proc) {
		defer d.Shutdown()
		if err := loadParticles(p, d, "ks", 1000); err != nil {
			t.Error(err)
			return
		}
		past := nvme.SecondaryIndexSpec{Name: "past", Offset: 14, Length: 4, Type: keyenc.TypeBytes} // values are 16 bytes
		if c := submit(p, d, &nvme.Command{Op: nvme.OpCompactWithIndexes, Keyspace: "ks", Indexes: []nvme.SecondaryIndexSpec{past}}); c.Status != nvme.StatusOK {
			t.Errorf("compact with indexes: %v", c.Status)
			return
		}
		sent := d.Queue().Submitted()
		h := d.Queue().Submit(p, &nvme.Command{Op: nvme.OpCompactStatus, Keyspace: "ks", Wait: true})
		p.Sleep(time.Microsecond)
		if len(d.parked) != 1 {
			t.Errorf("%d status waits parked while the compaction runs, want 1", len(d.parked))
		}
		c := h.Wait(p)
		if n := d.Queue().Submitted() - sent; n != 1 {
			t.Errorf("the wait took %d commands, want 1", n)
		}
		if c.Status == nvme.StatusOK {
			t.Errorf("wait on a failed compaction answered OK (done=%v)", c.Done)
			return
		}
		if poll := submit(p, d, &nvme.Command{Op: nvme.OpCompactStatus, Keyspace: "ks"}); poll.Status != c.Status {
			t.Errorf("wait answered %v, the poll after it %v", c.Status, poll.Status)
		}
	})
	env.Run()
}
