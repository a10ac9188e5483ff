package session

import (
	"bytes"
	"fmt"
	"testing"

	"kvcsd/internal/nvme"
	"kvcsd/internal/wire"
)

func TestBacklogAppendReplayFrame(t *testing.T) {
	b := NewBacklog(1 << 16)
	for i := 1; i <= 3; i++ {
		if err := b.Append(uint64(i), []byte(fmt.Sprintf("frame-%d", i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if got := b.Pending(); got != 3 {
		t.Fatalf("pending = %d, want 3", got)
	}
	rep := b.Replay()
	if len(rep) != 3 {
		t.Fatalf("replay = %d entries, want 3", len(rep))
	}
	for i, e := range rep {
		want := fmt.Sprintf("frame-%d", i+1)
		if e.ID != uint64(i+1) || string(e.Frames) != want {
			t.Fatalf("replay[%d] = (%d, %q), want (%d, %q)", i, e.ID, e.Frames, i+1, want)
		}
	}
	if b.Pending() != 0 {
		t.Fatalf("pending after replay = %d", b.Pending())
	}
	// Replayed records are retained for duplicate suppression.
	if fr, ok := b.Frame(2); !ok || string(fr) != "frame-2" {
		t.Fatalf("Frame(2) = %q, %v", fr, ok)
	}
	if b.Replay() != nil {
		t.Fatal("second replay not empty")
	}
}

func TestBacklogCapEvictsReplayedOnly(t *testing.T) {
	// The cap counts frame bytes: room for exactly two 100-byte responses.
	b := NewBacklog(200)
	must := func(id uint64) {
		t.Helper()
		if err := b.Append(id, bytes.Repeat([]byte("x"), 100)); err != nil {
			t.Fatalf("append %d: %v", id, err)
		}
	}
	must(1)
	must(2)
	if got := b.Bytes(); got != 200 {
		t.Fatalf("bytes = %d, want 200 frame bytes", got)
	}
	// Full of unreplayed records: the next spill is refused, not dropped-oldest.
	if err := b.Append(3, bytes.Repeat([]byte("x"), 100)); err != ErrBacklogFull {
		t.Fatalf("overflow append: err = %v, want ErrBacklogFull", err)
	}
	b.Replay()
	// Now replayed records may be evicted to make room.
	must(3)
	if _, ok := b.Frame(1); ok {
		t.Fatal("oldest replayed record not evicted")
	}
	if _, ok := b.Frame(3); !ok {
		t.Fatal("new record missing after eviction")
	}
	if got := b.Bytes(); got != 200 {
		t.Fatalf("bytes after eviction = %d, want 200", got)
	}
}

// drain pops everything currently queued, in fair order.
func drain(s *Scheduler) []*Item {
	var out []*Item
	for s.Queued() > 0 {
		batch, _ := s.NextBatch(1)
		out = append(out, batch...)
	}
	return out
}

func TestSchedulerLanePriority(t *testing.T) {
	m := NewManager(Config{})
	s := NewScheduler(m.Config(), 1024)
	tn := m.Tenant("t")
	// Park bulk work first, then latency work: the latency lane's higher
	// weight must put its items ahead under contention.
	for i := 0; i < 8; i++ {
		if c := s.Enqueue(&Item{Tenant: tn, Lane: wire.LaneBulk, Cost: 1, Value: fmt.Sprintf("b%d", i)}); c != CauseNone {
			t.Fatalf("enqueue bulk: %v", c)
		}
	}
	for i := 0; i < 8; i++ {
		if c := s.Enqueue(&Item{Tenant: tn, Lane: wire.LaneLatency, Cost: 1, Value: fmt.Sprintf("l%d", i)}); c != CauseNone {
			t.Fatalf("enqueue latency: %v", c)
		}
	}
	order := drain(s)
	if len(order) != 16 {
		t.Fatalf("drained %d items", len(order))
	}
	// Count latency items in the first half of the drain: with weights 8:1
	// the latency lane should dominate early service.
	lat := 0
	for _, it := range order[:8] {
		if it.Lane == wire.LaneLatency {
			lat++
		}
	}
	if lat < 6 {
		t.Fatalf("latency items in first half = %d, want >= 6 (order %v)", lat, order[:8])
	}
}

func TestSchedulerTenantFairness(t *testing.T) {
	m := NewManager(Config{})
	s := NewScheduler(m.Config(), 4096)
	heavy := m.Tenant("heavy")
	light := m.Tenant("light")
	// Heavy floods 100 items before light's 10 arrive; equal weights mean
	// light's items must not wait behind all of heavy's.
	for i := 0; i < 100; i++ {
		s.Enqueue(&Item{Tenant: heavy, Lane: wire.LaneNormal, Cost: 1, Value: "h"})
	}
	for i := 0; i < 10; i++ {
		s.Enqueue(&Item{Tenant: light, Lane: wire.LaneNormal, Cost: 1, Value: "l"})
	}
	order := drain(s)
	// All of light's items should be served within the first ~30 pops
	// (round-robin alternation), far earlier than FIFO's positions 101-110.
	seen := 0
	for i, it := range order {
		if it.Tenant == light {
			seen++
			if seen == 10 && i >= 40 {
				t.Fatalf("light tenant's last item served at position %d", i)
			}
		}
	}
	if seen != 10 {
		t.Fatalf("light items served = %d", seen)
	}
}

func TestSchedulerCostChargesBulk(t *testing.T) {
	m := NewManager(Config{})
	s := NewScheduler(m.Config(), 4096)
	bulky := m.Tenant("bulky")
	tiny := m.Tenant("tiny")
	// Interleave: bulky's items cost 100 each, tiny's cost 1. With equal
	// weights tiny should get many items served per bulky item.
	for i := 0; i < 10; i++ {
		s.Enqueue(&Item{Tenant: bulky, Lane: wire.LaneNormal, Cost: 100, Value: "B"})
	}
	for i := 0; i < 50; i++ {
		s.Enqueue(&Item{Tenant: tiny, Lane: wire.LaneNormal, Cost: 1, Value: "t"})
	}
	order := drain(s)
	// By the time the second bulky item is served, most of tiny's should be done.
	bulkySeen, tinySeen := 0, 0
	for _, it := range order {
		if it.Tenant == bulky {
			bulkySeen++
			if bulkySeen == 2 {
				break
			}
		} else {
			tinySeen++
		}
	}
	if tinySeen < 25 {
		t.Fatalf("only %d tiny items served before bulky's second (cost-blind?)", tinySeen)
	}
}

func TestSchedulerCapsAndCauses(t *testing.T) {
	m := NewManager(Config{TenantQueue: 2})
	s := NewScheduler(m.Config(), 3)
	a := m.Tenant("a")
	b := m.Tenant("b")
	if c := s.Enqueue(&Item{Tenant: a, Lane: wire.LaneNormal, Cost: 1}); c != CauseNone {
		t.Fatal(c)
	}
	if c := s.Enqueue(&Item{Tenant: a, Lane: wire.LaneNormal, Cost: 1}); c != CauseNone {
		t.Fatal(c)
	}
	// Tenant a hits its per-lane cap while b is still admitted.
	if c := s.Enqueue(&Item{Tenant: a, Lane: wire.LaneNormal, Cost: 1}); c != CauseTenant {
		t.Fatalf("tenant cap: %v", c)
	}
	if c := s.Enqueue(&Item{Tenant: b, Lane: wire.LaneNormal, Cost: 1}); c != CauseNone {
		t.Fatal(c)
	}
	// Global cap (3) is now reached for everyone.
	if c := s.Enqueue(&Item{Tenant: b, Lane: wire.LaneNormal, Cost: 1}); c != CauseGlobal {
		t.Fatalf("global cap: %v", c)
	}
	// Popping frees queue space but not occupancy until Release.
	s.NextBatch(1)
	if c := s.Enqueue(&Item{Tenant: b, Lane: wire.LaneNormal, Cost: 1}); c != CauseGlobal {
		t.Fatalf("occupancy held across dispatch: %v", c)
	}
	s.Release(1)
	if c := s.Enqueue(&Item{Tenant: b, Lane: wire.LaneNormal, Cost: 1}); c != CauseNone {
		t.Fatalf("after release: %v", c)
	}
	s.CloseIntake()
	if c := s.Enqueue(&Item{Tenant: b, Lane: wire.LaneNormal, Cost: 1}); c != CauseDraining {
		t.Fatalf("after close: %v", c)
	}
	// Parked items still drain after CloseIntake.
	got := 0
	for {
		batch, ok := s.NextBatch(8)
		got += len(batch)
		if !ok {
			break
		}
	}
	if got != 3 {
		t.Fatalf("drained %d parked items after close, want 3", got)
	}
}

func TestManagerHelloResumeAndDedup(t *testing.T) {
	m := NewManager(Config{Seed: 7})
	connA, connB := "connA", "connB"
	sess, replay, resumed, prev, err := m.Hello(&wire.HelloMsg{Tenant: "t1"}, connA)
	if err != nil || resumed || prev != nil || len(replay) != 0 {
		t.Fatalf("fresh hello: %v %v %v %d", err, resumed, prev, len(replay))
	}
	if sess.Token() == 0 {
		t.Fatal("zero token")
	}

	// Deterministic tokens for a fixed seed.
	m2 := NewManager(Config{Seed: 7})
	s2, _, _, _, _ := m2.Hello(&wire.HelloMsg{Tenant: "t1"}, connA)
	if s2.Token() != sess.Token() {
		t.Fatalf("tokens not deterministic: %d != %d", s2.Token(), sess.Token())
	}

	// Pending window and duplicate suppression.
	if dup, full := sess.BeginPending(10); dup || full {
		t.Fatal("first begin")
	}
	if dup, _ := sess.BeginPending(10); !dup {
		t.Fatal("in-flight duplicate not detected")
	}
	sess.MarkApplied(10, wire.StatusOK)
	if st, ok := sess.LookupApplied(10); !ok || st != wire.StatusOK {
		t.Fatalf("applied lookup: %v %v", st, ok)
	}

	// Spill, then resume from another connection: backlog replays and the
	// old connection is reported for kicking.
	if err := sess.Spill(11, wire.LaneNormal, []byte("resp-11")); err != nil {
		t.Fatal(err)
	}
	got, replay, resumed, prev, err := m.Hello(&wire.HelloMsg{Tenant: "t1", Resume: sess.Token()}, connB)
	if err != nil || !resumed || got != sess {
		t.Fatalf("resume: %v %v", err, resumed)
	}
	if prev != connA {
		t.Fatalf("prev = %v, want connA", prev)
	}
	if len(replay) != 1 || replay[0].ID != 11 || string(replay[0].Frames) != "resp-11" {
		t.Fatalf("replay = %+v", replay)
	}

	// Wrong tenant on resume opens a fresh session instead.
	other, _, resumed, _, err := m.Hello(&wire.HelloMsg{Tenant: "t2", Resume: sess.Token()}, connA)
	if err != nil || resumed || other == sess {
		t.Fatalf("cross-tenant resume: %v %v", err, resumed)
	}

	if _, _, _, _, err := m.Hello(&wire.HelloMsg{}, connA); err == nil {
		t.Fatal("empty tenant accepted")
	}
}

func TestResolveLaneAndCost(t *testing.T) {
	if l := ResolveLane(wire.OpGet, 0, 0); l != wire.LaneLatency {
		t.Fatalf("get default: %v", l)
	}
	if l := ResolveLane(wire.OpBulkPut, 0, 0); l != wire.LaneBulk {
		t.Fatalf("bulkput default: %v", l)
	}
	if l := ResolveLane(wire.OpGet, 0, wire.LaneOverride(wire.LaneBulk)); l != wire.LaneBulk {
		t.Fatalf("session class: %v", l)
	}
	if l := ResolveLane(wire.OpGet, wire.LaneOverride(wire.LaneNormal), wire.LaneOverride(wire.LaneBulk)); l != wire.LaneNormal {
		t.Fatalf("frame override: %v", l)
	}
	small := &wire.Request{Op: wire.OpGet, Key: []byte("k")}
	if c := RequestCost(small); c != 1 {
		t.Fatalf("small cost: %d", c)
	}
	big := &wire.Request{Op: wire.OpBulkPut, Pairs: []nvme.KVPair{{Key: []byte("k"), Value: bytes.Repeat([]byte("v"), 64<<10)}}}
	if c := RequestCost(big); c < 16 {
		t.Fatalf("bulk cost: %d", c)
	}
}
