package compaction

import (
	"bytes"
	"errors"
	"testing"

	"kvcsd/internal/sim"
)

func TestConfigCodec(t *testing.T) {
	for _, c := range []Config{{}, {PipelineWidth: 1}, {PipelineWidth: 8}, {PipelineWidth: 1 << 20}} {
		got, err := DecodeConfig(EncodeConfig(c))
		if err != nil || got != c {
			t.Fatalf("config round-trip %+v -> %+v, %v", c, got, err)
		}
	}
	if _, err := DecodeConfig(EncodeConfig(Config{PipelineWidth: 1<<20 + 1})); err == nil {
		t.Fatal("accepted out-of-range width")
	}
	if _, err := DecodeConfig(append(EncodeConfig(Config{}), 0)); err == nil {
		t.Fatal("accepted trailing bytes")
	}
}

// TestDecideSplit sweeps run counts under idle, device-saturated,
// host-saturated and detached signals: with a loop attached and two runs or
// more, the host takes a share in [1, n-1] — never all of them — and
// otherwise none; the shares always add up to n. Load moves the share the
// way it should, and the plan is a pure function of its inputs.
func TestDecideSplit(t *testing.T) {
	idle := Signals{HostAttached: true}
	busyDev := Signals{HostAttached: true, QueueDepth: 32, ChannelUtil: 1, BgJobs: 4}
	busyHost := Signals{HostAttached: true, HostQueue: 32}
	detached := Signals{QueueDepth: 32, ChannelUtil: 1, BgJobs: 4}
	for _, sig := range []Signals{idle, busyDev, busyHost, detached} {
		for n := 0; n <= 16; n++ {
			p := DecideSplit(sig, n)
			if p.HostRuns+p.DeviceRuns != n {
				t.Errorf("%+v n=%d: split %+v does not add up", sig, n, p)
			}
			if sig.HostAttached && n >= 2 {
				if p.HostRuns < 1 || p.HostRuns > n-1 {
					t.Errorf("%+v n=%d: host share %d outside [1, %d]", sig, n, p.HostRuns, n-1)
				}
			} else if p.HostRuns != 0 {
				t.Errorf("%+v n=%d: host share %d, want 0", sig, n, p.HostRuns)
			}
			if again := DecideSplit(sig, n); again != p {
				t.Errorf("%+v n=%d: split not deterministic: %+v vs %+v", sig, n, p, again)
			}
		}
	}
	at8 := DecideSplit(idle, 8)
	if p := DecideSplit(busyDev, 8); p.HostRuns <= at8.HostRuns {
		t.Errorf("device pressure should push runs to host: idle=%+v busy=%+v", at8, p)
	}
	if p := DecideSplit(busyHost, 8); p.HostRuns >= at8.HostRuns {
		t.Errorf("host pressure should keep runs on device: idle=%+v busy=%+v", at8, p)
	}
}

func TestProgressCodec(t *testing.T) {
	pr := Progress{Stage: StageMerge, GranulesDone: 7, GranulesTotal: 40, BytesMoved: 1 << 30, HostRuns: 3, DeviceRuns: 5, Occupancy: 2}
	got, err := DecodeProgress(EncodeProgress(pr))
	if err != nil || got != pr {
		t.Fatalf("progress round-trip %+v -> %+v, %v", pr, got, err)
	}
	if _, err := DecodeProgress([]byte{byte(stageMax), 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("accepted unknown stage")
	}
}

func TestHeatTable(t *testing.T) {
	h := NewHeatTable(10)
	h.Touch(3)
	h.Touch(3)
	h.Touch(9)
	h.Touch(-1) // ignored
	h.Touch(10) // ignored
	if h.Heat(3) != 2 || h.Heat(9) != 1 || h.Heat(0) != 0 {
		t.Fatalf("heat counters: %d %d %d", h.Heat(3), h.Heat(9), h.Heat(0))
	}
	h.Decay()
	if h.Heat(3) != 1 || h.Heat(9) != 0 {
		t.Fatalf("decay: %d %d", h.Heat(3), h.Heat(9))
	}
	got, err := DecodeHeat(AppendHeat(nil, h))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 10 || got.Heat(3) != 1 {
		t.Fatalf("heat round-trip: len=%d heat3=%d", got.Len(), got.Heat(3))
	}
}

func TestRunsCodec(t *testing.T) {
	runs := [][]byte{[]byte("alpha"), nil, []byte("gamma-run-bytes")}
	got, err := DecodeRuns(EncodeRuns(runs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !bytes.Equal(got[0], runs[0]) || len(got[1]) != 0 || !bytes.Equal(got[2], runs[2]) {
		t.Fatalf("runs round-trip: %q", got)
	}
	if _, err := DecodeRuns(append(EncodeRuns(runs), 1)); err == nil {
		t.Fatal("accepted trailing bytes")
	}
}

func TestRingPipelinesAndCloses(t *testing.T) {
	env := sim.NewEnv()
	occupancy := 0
	r := NewRing[int](env, 2, nil, func(d, _ int) { occupancy += d })
	var got []int
	producer := env.Go("producer", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			if !r.Push(p, i) {
				t.Error("push refused on open ring")
			}
			p.Sleep(sim.Duration(1))
		}
		r.Close()
	})
	consumer := env.Go("consumer", func(p *sim.Proc) {
		for {
			v, ok := r.Pop(p)
			if !ok {
				return
			}
			got = append(got, v)
			p.Sleep(sim.Duration(3)) // slower than producer: ring fills, Push blocks
		}
	})
	env.Go("join", func(p *sim.Proc) { p.Join(producer, consumer) })
	env.Run()
	if len(got) != 10 {
		t.Fatalf("consumed %d of 10", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: %d", i, v)
		}
	}
	if occupancy != 0 {
		t.Fatalf("occupancy did not settle: %d", occupancy)
	}
}

func TestRingCloseUnblocksProducer(t *testing.T) {
	env := sim.NewEnv()
	r := NewRing[int](env, 1, nil, nil)
	var refused bool
	prod := env.Go("producer", func(p *sim.Proc) {
		r.Push(p, 1)
		refused = !r.Push(p, 2) // blocks until Close, then refused
	})
	env.Go("closer", func(p *sim.Proc) {
		p.Sleep(sim.Duration(5))
		r.Close()
		r.Discard()
		p.Join(prod)
	})
	env.Run()
	if !refused {
		t.Fatal("push not refused after close")
	}
	if r.Len() != 0 {
		t.Fatalf("discard left %d items", r.Len())
	}
}

func TestAssistQueueRoundTrip(t *testing.T) {
	env := sim.NewEnv()
	q := NewAssistQueue(env)
	if q.Attached() {
		t.Fatal("attached before any poll")
	}
	var merged []byte
	var waitErr error
	sub := env.Go("submitter", func(p *sim.Proc) {
		p.Sleep(sim.Duration(2))
		j, err := q.Submit(EncodeRuns([][]byte{[]byte("run")}))
		if err != nil {
			t.Error(err)
			return
		}
		merged, waitErr = q.Wait(p, j)
	})
	loop := env.Go("assist", func(p *sim.Proc) {
		for {
			j, ok := q.Poll(p, 3)
			if !ok {
				return
			}
			q.Complete(j.ID, []byte("merged"), nil)
		}
	})
	env.Go("driver", func(p *sim.Proc) {
		p.Join(sub)
		if !q.Attached() || q.HostLoad() != 3 {
			t.Errorf("attached=%v load=%d", q.Attached(), q.HostLoad())
		}
		q.Close()
		p.Join(loop)
	})
	env.Run()
	if waitErr != nil || string(merged) != "merged" {
		t.Fatalf("wait: %q, %v", merged, waitErr)
	}
}

func TestAssistQueueCloseFailsJobs(t *testing.T) {
	env := sim.NewEnv()
	q := NewAssistQueue(env)
	var waitErr error
	sub := env.Go("submitter", func(p *sim.Proc) {
		j, err := q.Submit(nil)
		if err != nil {
			t.Error(err)
			return
		}
		_, waitErr = q.Wait(p, j)
	})
	env.Go("closer", func(p *sim.Proc) {
		p.Sleep(sim.Duration(1))
		q.Close()
		p.Join(sub)
		if _, err := q.Submit(nil); !errors.Is(err, ErrAssistClosed) {
			t.Errorf("submit after close: %v", err)
		}
	})
	env.Run()
	if !errors.Is(waitErr, ErrAssistClosed) {
		t.Fatalf("wait after close: %v", waitErr)
	}
}
