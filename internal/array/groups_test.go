package array

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"kvcsd/internal/replica"
	"kvcsd/internal/sim"
	"kvcsd/internal/wire"
)

func runReplicated(t *testing.T, opts Options, fn func(p *sim.Proc, a *Array)) {
	t.Helper()
	env := sim.NewEnv()
	a := New(env, opts)
	env.Go("main", func(p *sim.Proc) {
		defer a.Shutdown()
		fn(p, a)
	})
	env.Run()
}

func TestReplicatedKeyspacePutGet(t *testing.T) {
	opts := DefaultOptions()
	runReplicated(t, opts, func(p *sim.Proc, a *Array) {
		k, err := a.CreateReplicated(p, "orders", 2)
		if err != nil {
			t.Fatalf("CreateReplicated: %v", err)
		}
		for i := 0; i < 40; i++ {
			key := []byte(fmt.Sprintf("k%03d", i))
			if err := k.Put(p, key, []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
		if err := k.Delete(p, []byte("k003")); err != nil {
			t.Fatalf("delete: %v", err)
		}
		v, found, err := k.Get(p, []byte("k007"))
		if err != nil || !found || string(v) != "v7" {
			t.Fatalf("get k007 = %q found=%v err=%v", v, found, err)
		}
		if _, found, err := k.Get(p, []byte("k003")); err != nil || found {
			t.Fatalf("deleted key found=%v err=%v", found, err)
		}
		// Members come from the placement ring and every shard has a leader.
		for s := 0; s < k.Shards(); s++ {
			want := a.Ring().Owners(groupName("orders", s), 3)
			got := k.Members(s)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("shard %d members %v, want ring owners %v", s, got, want)
			}
			if ld := k.Leader(s); !slices.Contains(want, ld) {
				t.Fatalf("shard %d leader %d not a member of %v", s, ld, want)
			}
		}
	})
}

func TestReplicatedKeyspaceSurvivesDevicePowerCut(t *testing.T) {
	opts := DefaultOptions()
	runReplicated(t, opts, func(p *sim.Proc, a *Array) {
		k, err := a.CreateReplicated(p, "orders", 1)
		if err != nil {
			t.Fatalf("CreateReplicated: %v", err)
		}
		for i := 0; i < 20; i++ {
			key := []byte(fmt.Sprintf("k%03d", i))
			if err := k.Put(p, key, []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
		leader := k.Leader(0)
		a.PowerCut(p, leader)
		// Writes and linearizable reads keep working against the surviving
		// quorum while the old leader is dark.
		if err := k.Put(p, []byte("k099"), []byte("after-cut")); err != nil {
			t.Fatalf("put during outage: %v", err)
		}
		v, found, err := k.Get(p, []byte("k005"))
		if err != nil || !found || string(v) != "v5" {
			t.Fatalf("get during outage = %q found=%v err=%v", v, found, err)
		}
		if nl := k.Leader(0); nl == leader {
			t.Fatalf("leadership did not move off the power-cut device %d", leader)
		}
		if _, err := a.RestartDevice(p, leader); err != nil {
			t.Fatalf("RestartDevice: %v", err)
		}
		v, found, err = k.Get(p, []byte("k099"))
		if err != nil || !found || string(v) != "after-cut" {
			t.Fatalf("get after rejoin = %q found=%v err=%v", v, found, err)
		}
	})
}

func TestReplicatedKeyspaceMoveShard(t *testing.T) {
	opts := DefaultOptions()
	runReplicated(t, opts, func(p *sim.Proc, a *Array) {
		k, err := a.CreateReplicated(p, "orders", 1)
		if err != nil {
			t.Fatalf("CreateReplicated: %v", err)
		}
		for i := 0; i < 30; i++ {
			key := []byte(fmt.Sprintf("k%03d", i))
			if err := k.Put(p, key, []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
		members := k.Members(0)
		to := -1
		for d := 0; d < opts.Devices; d++ {
			if !slices.Contains(members, d) {
				to = d
				break
			}
		}
		if to < 0 {
			t.Skip("no free device to move to")
		}
		from := members[0]
		epoch := k.Epoch(0)
		if err := k.MoveShard(p, 0, from, to); err != nil {
			t.Fatalf("MoveShard: %v", err)
		}
		after := k.Members(0)
		if slices.Contains(after, from) || !slices.Contains(after, to) {
			t.Fatalf("ownership after move = %v, want %d->%d", after, from, to)
		}
		if k.Epoch(0) <= epoch {
			t.Fatalf("epoch did not advance: %d -> %d", epoch, k.Epoch(0))
		}
		// Data survived the move, including on the new member.
		v, found, err := k.Get(p, []byte("k011"))
		if err != nil || !found || string(v) != "v11" {
			t.Fatalf("get after move = %q found=%v err=%v", v, found, err)
		}
	})
}

func TestReplicatedKeyspaceConcurrentProcs(t *testing.T) {
	// Regression: the server gateway runs pipelined requests as overlapping
	// sim procs against one ReplicatedKeyspace handle. Each in-flight op must
	// get its own replica session — sharing one (client, seq) stream across
	// concurrent ops lets a retried low-seq write be falsely deduplicated by
	// a concurrent higher-seq write and acknowledged without applying.
	opts := DefaultOptions()
	runReplicated(t, opts, func(p *sim.Proc, a *Array) {
		k, err := a.CreateReplicated(p, "orders", 1)
		if err != nil {
			t.Fatalf("CreateReplicated: %v", err)
		}
		env := p.Env()
		var procs []*sim.Proc
		for w := 0; w < 8; w++ {
			w := w
			procs = append(procs, env.Go("writer", func(q *sim.Proc) {
				for j := 0; j < 5; j++ {
					key := []byte(fmt.Sprintf("c%02d-%02d", w, j))
					if err := k.Put(q, key, key); err != nil {
						t.Errorf("concurrent put %s: %v", key, err)
					}
				}
			}))
		}
		p.Join(procs...)
		if k.nextClient < 2 {
			t.Fatalf("concurrent ops shared one session (nextClient=%d)", k.nextClient)
		}
		for w := 0; w < 8; w++ {
			for j := 0; j < 5; j++ {
				key := []byte(fmt.Sprintf("c%02d-%02d", w, j))
				v, found, err := k.Get(p, key)
				if err != nil || !found || string(v) != string(key) {
					t.Fatalf("get %s = %q found=%v err=%v", key, v, found, err)
				}
			}
		}
	})
}

func TestArrayRingTable(t *testing.T) {
	opts := DefaultOptions()
	runReplicated(t, opts, func(p *sim.Proc, a *Array) {
		if _, err := a.CreateRangeSharded(p, "plain", 2); err != nil {
			t.Fatalf("CreateRangeSharded: %v", err)
		}
		k, err := a.CreateReplicated(p, "orders", 2)
		if err != nil {
			t.Fatalf("CreateReplicated: %v", err)
		}
		ring := a.RingTable()
		if len(ring) != 4 {
			t.Fatalf("ring entries = %d, want 4 (2 plain + 2 replicated)", len(ring))
		}
		byName := map[string][]wire.RingEntry{}
		for _, e := range ring {
			byName[e.Keyspace] = append(byName[e.Keyspace], e)
		}
		for _, e := range byName["plain"] {
			if e.Leader != -1 || e.Epoch != 1 {
				t.Fatalf("plain entry has consensus fields set: %+v", e)
			}
		}
		for _, e := range byName["orders"] {
			if e.Leader < 0 {
				t.Fatalf("replicated entry missing leader: %+v", e)
			}
			if int(e.Leader) != k.Leader(int(e.Shard)) {
				t.Fatalf("ring leader %d != cluster leader %d", e.Leader, k.Leader(int(e.Shard)))
			}
		}
		// Duplicate names are rejected across both keyspace families.
		if _, err := a.CreateReplicated(p, "plain", 1); err == nil {
			t.Fatalf("replicated over plain name must fail")
		}
		if _, err := a.CreateKeyspace(p, "orders"); err == nil {
			t.Fatalf("plain over replicated name must fail")
		}
	})
}

// Deleting a replicated keyspace under load: writers in flight fail with the
// cluster's stop error instead of hanging, commands already inside a device
// finish before its keyspace goes, nothing recreates a device keyspace behind
// the delete, and the simulation ends with no ticker or delivery proc left.
func TestDeleteReplicatedKeyspaceUnderLoad(t *testing.T) {
	runReplicated(t, DefaultOptions(), func(p *sim.Proc, a *Array) {
		k, err := a.CreateReplicated(p, "orders", 2)
		if err != nil {
			t.Fatalf("CreateReplicated: %v", err)
		}
		var writers []*sim.Proc
		stopped := 0
		for w := 0; w < 4; w++ {
			writers = append(writers, p.Env().Go("writer", func(q *sim.Proc) {
				for i := 0; ; i++ {
					if err := k.Put(q, []byte(fmt.Sprintf("%c-key-%04d", 'a'+w*6, i)), make([]byte, 4096)); err != nil {
						if errors.Is(err, replica.ErrStopped) {
							stopped++
						} else {
							t.Errorf("writer %d: %v", w, err)
						}
						return
					}
				}
			}))
		}
		p.Sleep(20 * time.Millisecond)
		if err := a.DeleteKeyspace(p, "orders"); err != nil {
			t.Fatalf("DeleteKeyspace: %v", err)
		}
		p.Join(writers...)
		if stopped != len(writers) {
			t.Errorf("%d of %d writers saw the keyspace stop", stopped, len(writers))
		}
		if _, err := a.OpenReplicated("orders"); !errors.Is(err, ErrKeyspaceUnknown) {
			t.Errorf("open after delete: %v", err)
		}
		if names := a.ReplicatedKeyspaces(); len(names) != 0 {
			t.Errorf("still registered: %v", names)
		}
		if err := a.DeleteKeyspace(p, "orders"); !errors.Is(err, ErrKeyspaceUnknown) {
			t.Errorf("second delete: %v", err)
		}
		p.Sleep(5 * time.Millisecond) // anything still in flight would land now
		for _, m := range a.Members() {
			for s := 0; s < 2; s++ {
				if _, err := m.Client.OpenKeyspace(p, groupName("orders", s)); err == nil {
					t.Errorf("device %d still holds %s", m.ID, groupName("orders", s))
				}
			}
			if n := m.Dev.Engine().ZoneManager().UsedZones(); n != 0 {
				t.Errorf("device %d holds %d zones after the delete", m.ID, n)
			}
		}
	})
}

// TestStoppedReplicatedKeyspaceReleases: stopping a replicated keyspace's
// cluster, as a caller that moves on to a fresh keyspace does, lets go of
// every member's DRAM view and every group's log at once and charges no
// virtual time; the device keyspaces stay, and DeleteKeyspace still takes
// them off the devices.
func TestStoppedReplicatedKeyspaceReleases(t *testing.T) {
	runReplicated(t, DefaultOptions(), func(p *sim.Proc, a *Array) {
		k, err := a.CreateReplicated(p, "orders", 2)
		if err != nil {
			t.Fatalf("CreateReplicated: %v", err)
		}
		for i := 0; i < 40; i++ {
			if err := k.Put(p, []byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
		p.Sleep(5 * time.Millisecond) // followers apply what the leaders committed
		var held []*deviceSM
		for _, sm := range k.sms {
			if sm.mem != nil && sm.h != nil {
				held = append(held, sm)
			}
		}
		if len(held) == 0 {
			t.Fatal("no member holds a DRAM view before the stop")
		}
		t0 := p.Now()
		k.Cluster().Stop()
		if p.Now() != t0 {
			t.Errorf("Stop took %v of virtual time", time.Duration(p.Now()-t0))
		}
		for _, sm := range k.sms {
			if sm.mem != nil {
				t.Errorf("device %d still holds the DRAM view of %s after the stop", sm.node, sm.ks)
			}
		}
		if _, _, err := k.Get(p, []byte("k001")); !errors.Is(err, replica.ErrStopped) {
			t.Errorf("get after the stop: %v, want ErrStopped", err)
		}
		for _, sm := range held {
			if _, err := a.members[sm.node].Client.OpenKeyspace(p, sm.ks); err != nil {
				t.Errorf("device %d lost %s at the stop: %v", sm.node, sm.ks, err)
			}
		}
		if err := a.DeleteKeyspace(p, "orders"); err != nil {
			t.Fatalf("DeleteKeyspace after the stop: %v", err)
		}
		for _, m := range a.Members() {
			for s := 0; s < 2; s++ {
				if _, err := m.Client.OpenKeyspace(p, groupName("orders", s)); err == nil {
					t.Errorf("device %d still holds %s after the delete", m.ID, groupName("orders", s))
				}
			}
		}
	})
}
