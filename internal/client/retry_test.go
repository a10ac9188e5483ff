package client

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
	"kvcsd/internal/wire"
)

// TestRetryableTable pins the status → retryability classification: device
// conditions that a retry (possibly against another replica) can cure are
// retryable; logical outcomes and lifecycle conflicts are not.
func TestRetryableTable(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("plain"), false},
		{ErrTimeout, true},
		{&TimeoutError{Op: nvme.OpRetrieve, Timeout: time.Second}, true},
		{fmt.Errorf("wrapped: %w", &TimeoutError{Op: nvme.OpSync, Timeout: time.Second}), true},
		{statusErr(nvme.OpRetrieve, nvme.StatusNotFound), false},
		{statusErr(nvme.OpCreateKeyspace, nvme.StatusExists), false},
		{statusErr(nvme.OpStore, nvme.StatusInvalid), false},
		{statusErr(nvme.OpStore, nvme.StatusKeyspaceState), true},
		{statusErr(nvme.OpStore, nvme.StatusNoSpace), true},
		{statusErr(nvme.OpRetrieve, nvme.StatusInternal), true},
		{statusErr(nvme.OpRetrieve, nvme.StatusPoweredOff), true},
		{fmt.Errorf("routed: %w", statusErr(nvme.OpRetrieve, nvme.StatusPoweredOff)), true},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.want {
			t.Errorf("Retryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestIdempotentOpTable pins which opcodes the retry loop may replay after an
// ambiguous failure: reads, status polls, log-structured writes (replays
// deduplicate at compaction) and the maintenance commands whose replay
// converges — but never lifecycle commands, whose replay would report a
// different status than the original.
func TestIdempotentOpTable(t *testing.T) {
	want := map[nvme.Opcode]bool{
		nvme.OpStore:               true,
		nvme.OpRetrieve:            true,
		nvme.OpDelete:              true,
		nvme.OpExist:               true,
		nvme.OpCreateKeyspace:      false,
		nvme.OpOpenKeyspace:        true,
		nvme.OpDeleteKeyspace:      false,
		nvme.OpBulkStore:           true,
		nvme.OpCompact:             false,
		nvme.OpCompactStatus:       true,
		nvme.OpBuildSecondaryIndex: false,
		nvme.OpIndexStatus:         true,
		nvme.OpQueryPrimaryRange:   true,
		nvme.OpQuerySecondaryPoint: true,
		nvme.OpQuerySecondaryRange: true,
		nvme.OpKeyspaceInfo:        true,
		nvme.OpSync:                true,
		nvme.OpCompactWithIndexes:  false,
		nvme.OpScrubMedia:          true,
		nvme.OpReadExtent:          false,
		nvme.OpRepairExtent:        false,
		nvme.OpCorruptMedia:        false,
		nvme.OpHostMergePoll:       false,
		nvme.OpHostMergePush:       false,
		nvme.OpCompactPolicy:       true,
		nvme.OpMigrateCold:         true,
	}
	for op, w := range want {
		if got := op.Idempotent(); got != w {
			t.Errorf("%s.Idempotent() = %v, want %v", op, got, w)
		}
	}
	// Neither the retired List slot nor an opcode past the table replays.
	for _, op := range []nvme.Opcode{nvme.OpExist + 1, nvme.OpMigrateCold + 1} {
		if op.Idempotent() {
			t.Errorf("%s replays", op)
		}
	}
}

// TestIdempotencyDriftFromWire: there is one retry rule. A wire verb that
// executes a device command replays exactly when the command does
// (nvme.Opcode.Idempotent, which roundTrip applies); only the transport-only
// verbs, which have no device command — Op.NVMe() is a stand-in for error
// reporting there — state their own.
func TestIdempotencyDriftFromWire(t *testing.T) {
	transportOnly := map[wire.Op]bool{
		wire.OpPing: true, wire.OpStats: true, wire.OpPowerCut: true, wire.OpRecover: true,
		wire.OpRequestVote: true, wire.OpAppendEntries: true, wire.OpMigrate: true, wire.OpHello: true,
	}
	for _, op := range wire.Ops() {
		if !transportOnly[op] && op.Idempotent() != op.NVMe().Idempotent() {
			t.Errorf("%s replays=%v but its device command %s replays=%v",
				op, op.Idempotent(), op.NVMe(), op.NVMe().Idempotent())
		}
	}
}

// TestStatusErrorIdentity checks the error plumbing the classification relies
// on: statusErr is nil for OK, errors.As recovers the opcode and status, and
// TimeoutError matches ErrTimeout through errors.Is.
func TestStatusErrorIdentity(t *testing.T) {
	if err := statusErr(nvme.OpStore, nvme.StatusOK); err != nil {
		t.Fatalf("statusErr(OK) = %v, want nil", err)
	}
	err := fmt.Errorf("ctx: %w", statusErr(nvme.OpRetrieve, nvme.StatusPoweredOff))
	var se *StatusError
	if !errors.As(err, &se) || se.Op != nvme.OpRetrieve || se.Status != nvme.StatusPoweredOff {
		t.Fatalf("errors.As failed to recover StatusError from %v", err)
	}
	te := &TimeoutError{Op: nvme.OpSync, Timeout: 3 * time.Second}
	if !errors.Is(te, ErrTimeout) {
		t.Fatalf("TimeoutError does not match ErrTimeout")
	}
	if te.Error() != "client: Sync timed out after 3s" {
		t.Fatalf("TimeoutError.Error() = %q", te.Error())
	}
}

// TestRetryBacksOffAgainstPoweredOffDevice exercises the retry loop end to
// end: a read against a powered-off device is retried with exponential
// backoff (visible as elapsed virtual time) and finally surfaces
// StatusPoweredOff; after a power cycle the same read succeeds.
func TestRetryBacksOffAgainstPoweredOffDevice(t *testing.T) {
	fx := newFixture()
	fx.run(t, func(p *sim.Proc) {
		ks, err := fx.cl.CreateKeyspace(p, "retry")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		for i := 0; i < 32; i++ {
			if err := ks.Put(p, key(i), value(i, 1.0)); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
		if err := ks.Sync(p); err != nil {
			t.Fatalf("sync: %v", err)
		}
		if err := ks.Compact(p); err != nil {
			t.Fatalf("compact: %v", err)
		}
		if err := ks.WaitCompacted(p); err != nil {
			t.Fatalf("wait compacted: %v", err)
		}
		if _, ok, err := ks.Get(p, key(7)); err != nil || !ok {
			t.Fatalf("pre-cut get: ok=%v err=%v", ok, err)
		}

		fx.dev.PowerCut(p)
		fx.cl.SetRetryPolicy(RetryPolicy{
			BaseBackoff: 10 * time.Microsecond,
			MaxBackoff:  40 * time.Microsecond,
			MaxAttempts: 4,
		})
		t0 := p.Now()
		_, _, err = ks.Get(p, key(7))
		var se *StatusError
		if !errors.As(err, &se) || se.Status != nvme.StatusPoweredOff {
			t.Fatalf("get on dead device: err=%v, want StatusPoweredOff", err)
		}
		// Three retries back off 10µs, 20µs, 40µs (capped) = 70µs minimum.
		if elapsed := time.Duration(p.Now() - t0); elapsed < 70*time.Microsecond {
			t.Fatalf("retries took %v of virtual time, want >= 70µs of backoff", elapsed)
		}

		if _, err := fx.dev.Restart(p); err != nil {
			t.Fatalf("restart: %v", err)
		}
		if v, ok, err := ks.Get(p, key(7)); err != nil || !ok || len(v) == 0 {
			t.Fatalf("post-restart get: ok=%v err=%v", ok, err)
		}
	})
}
