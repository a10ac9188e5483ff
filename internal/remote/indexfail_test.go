package remote_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"kvcsd/internal/array"
	"kvcsd/internal/client"
	"kvcsd/internal/core"
	"kvcsd/internal/device"
	"kvcsd/internal/host"
	"kvcsd/internal/keyenc"
	"kvcsd/internal/nvme"
	"kvcsd/internal/server"
	"kvcsd/internal/sim"
	"kvcsd/internal/stats"
)

// failValue is a 96-byte value.
func failValue(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 96) }

// failedBuildSuite declares spec, whose byte range reaches past every value,
// on a keyspace of 96-byte values beside an index over its first bytes,
// twice: once on a compacted keyspace, and once right after Compact, where a
// device joins both builds to the running compaction if its value pass has
// not begun. The build of spec fails either way, and every way of looking at
// the index says so alike: its wait, its status poll and a query on it fail
// StatusInvalid — none reports it built or answers with an empty result — and
// Info does not list it. It fails alone: the keyspace compacts, and the other
// index is built and answers for every pair.
func failedBuildSuite(spec client.IndexSpec) func(p *sim.Proc, d driver, parts int) error {
	return func(p *sim.Proc, d driver, parts int) error {
		for _, joined := range []bool{false, true} {
			if err := failedBuild(p, d, parts, spec, joined); err != nil {
				return fmt.Errorf("joined=%v: %w", joined, err)
			}
		}
		return nil
	}
}

func failedBuild(p *sim.Proc, d driver, parts int, spec client.IndexSpec, joined bool) error {
	ks, err := d.create(p, "fail", parts)
	if err != nil {
		return fmt.Errorf("create: %w", err)
	}
	for i := 0; i < 300; i++ {
		if err := ks.BulkPut(p, confKey(i), failValue(i)); err != nil {
			return fmt.Errorf("bulkput %d: %w", i, err)
		}
	}
	if err := ks.Flush(p); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	if err := ks.Compact(p); err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	if !joined {
		if err := ks.WaitCompacted(p); err != nil {
			return fmt.Errorf("wait compacted: %w", err)
		}
	}
	good := client.IndexSpec{Name: "head", Offset: 0, Length: 4, Type: keyenc.TypeUint32}
	for _, s := range []client.IndexSpec{good, spec} {
		if err := ks.BuildSecondaryIndex(p, s); err != nil {
			return fmt.Errorf("declare %s: %w", s.Name, err)
		}
	}
	var pairs []nvme.KVPair
	var errs [3]error
	errs[0] = ks.WaitIndexBuilt(p, spec.Name)
	_, errs[1] = ks.IndexBuilt(p, spec.Name)
	pairs, errs[2] = ks.QuerySecondaryRange(p, spec.Name, nil, nil, 0)
	for i, what := range []string{"wait", "status", "query"} {
		var se *client.StatusError
		if !errors.As(errs[i], &se) || se.Status != nvme.StatusInvalid {
			return fmt.Errorf("%s of index %s: %v (%d pairs), want StatusInvalid", what, spec.Name, errs[i], len(pairs))
		}
	}
	if err := ks.WaitCompacted(p); err != nil {
		return fmt.Errorf("wait compacted: %w", err)
	}
	if err := ks.WaitIndexBuilt(p, good.Name); err != nil {
		return fmt.Errorf("wait index %s: %w", good.Name, err)
	}
	if pairs, err = ks.QuerySecondaryRange(p, good.Name, nil, nil, 0); err != nil || len(pairs) != 300 {
		return fmt.Errorf("query of index %s: %d pairs (err %v), want 300", good.Name, len(pairs), err)
	}
	info, err := ks.Info(p)
	if err != nil {
		return fmt.Errorf("info: %w", err)
	}
	if info.State != core.StateCompacted.String() || !slices.Equal(info.Secondary, []string{good.Name}) {
		return fmt.Errorf("keyspace %s with built indexes %v, want COMPACTED with %s alone", info.State, info.Secondary, good.Name)
	}
	return d.drop(p, "fail")
}

// eachDriver runs suite over one device and a four-shard array, each
// in-process and over loopback.
func eachDriver(t *testing.T, suite func(p *sim.Proc, d driver, parts int) error) {
	const shards = 4
	t.Run("device-in-process", func(t *testing.T) {
		env := sim.NewEnv()
		dev := device.New(env, confDeviceOptions(), stats.NewIOStats())
		cl := client.New(host.New(env, host.DefaultHostConfig()), dev)
		var err error
		env.Go("suite", func(p *sim.Proc) {
			defer dev.Shutdown()
			err = suite(p, deviceDriver{cl}, 1)
		})
		env.Run()
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Run("array-fanout-in-process", func(t *testing.T) {
		env := sim.NewEnv()
		a := array.New(env, confArrayOptions())
		var err error
		env.Go("suite", func(p *sim.Proc) {
			defer a.Shutdown()
			err = suite(p, arrayDriver{a}, shards)
		})
		env.Run()
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Run("device-loopback", func(t *testing.T) {
		rc := serve(t, server.NewDevice(confDeviceOptions(), server.DefaultConfig()))
		if err := suite(nil, remoteDriver{rc}, 1); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("array-fanout-loopback", func(t *testing.T) {
		rc := serve(t, server.NewArray(confArrayOptions(), server.DefaultConfig()))
		if err := suite(nil, remoteDriver{rc}, shards); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFailedIndexBuildReportedAlike: an index whose byte range runs two
// bytes past the values fails its build, and the device, the array and the
// wire all report it failed — not built, not an empty answer.
func TestFailedIndexBuildReportedAlike(t *testing.T) {
	eachDriver(t, failedBuildSuite(client.IndexSpec{Name: "tail", Offset: 94, Length: 4, Type: keyenc.TypeUint32}))
}

// TestIndexSpecOffsetCrossesWire: a spec crosses the wire as it was written,
// so a remote build ends as the in-process one. The wire once cut an offset
// of 1<<32 + 8 to its low 32 bits, and a server built and served an index
// over value bytes [8,12) where the in-process build failed.
func TestIndexSpecOffsetCrossesWire(t *testing.T) {
	eachDriver(t, failedBuildSuite(client.IndexSpec{Name: "wide", Offset: 1<<32 + 8, Length: 4, Type: keyenc.TypeUint32}))
}
