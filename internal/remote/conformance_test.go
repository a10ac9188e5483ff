package remote_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"kvcsd/internal/array"
	"kvcsd/internal/client"
	"kvcsd/internal/device"
	"kvcsd/internal/host"
	"kvcsd/internal/keyenc"
	"kvcsd/internal/nvme"
	"kvcsd/internal/remote"
	"kvcsd/internal/server"
	"kvcsd/internal/sim"
	"kvcsd/internal/stats"
	"kvcsd/internal/wire"
)

// One conformance suite over client.Contract, run against every way this
// repository serves a keyspace. Each driver must produce the answers a plain
// map model predicts — which also makes the drivers byte-identical to each
// other: the protocol round trip and the fan-out must both be invisible.

const (
	confName   = "conf"
	confIndex  = "temp"
	confKeys   = 600
	confValLen = 64
	confSeed   = 0x5EED
)

// confKey spreads keys over the whole uint64 prefix space so every range
// shard of the array drivers holds some.
func confKey(i int) []byte {
	x := uint64(i)*0x9E3779B97F4A7C15 + 0x7F4A7C15
	x ^= x >> 29
	return keyenc.PutUint64(x * 0xBF58476D1CE4E5B9)
}

// confValue embeds a little-endian uint32 "temperature" at offset 0 for the
// secondary index.
func confValue(i int) []byte {
	v := make([]byte, confValLen)
	binary.LittleEndian.PutUint32(v, uint32((i*2654435761)%100000))
	for j := 4; j < confValLen; j++ {
		v[j] = byte(i + j)
	}
	return v
}

var confSpec = client.IndexSpec{Name: confIndex, Offset: 0, Length: 4, Type: keyenc.TypeUint32}

func secondaryOf(v []byte) []byte {
	return keyenc.PutUint32(binary.LittleEndian.Uint32(v))
}

// driver is one way of reaching keyspaces. p is the sim proc the in-process
// drivers run on; the loopback drivers ignore it.
type driver interface {
	create(p *sim.Proc, name string, parts int) (client.Contract, error)
	open(p *sim.Proc, name string) (client.Contract, error)
	drop(p *sim.Proc, name string) error
}

// model is the reference: what a keyspace must hold after the suite's writes.
type model map[string][]byte

func (m model) sorted(keep func(k string, v []byte) bool, less func(a, b nvme.KVPair) bool) []nvme.KVPair {
	var out []nvme.KVPair
	for k, v := range m {
		if keep(k, v) {
			out = append(out, nvme.KVPair{Key: []byte(k), Value: v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

func byKey(a, b nvme.KVPair) bool { return bytes.Compare(a.Key, b.Key) < 0 }

func bySecondary(a, b nvme.KVPair) bool {
	if c := bytes.Compare(secondaryOf(a.Value), secondaryOf(b.Value)); c != 0 {
		return c < 0
	}
	return byKey(a, b)
}

func samePairs(what string, got, want []nvme.KVPair) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d pairs, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
			return fmt.Errorf("%s: pair %d is %x, want %x", what, i, got[i].Key, want[i].Key)
		}
	}
	return nil
}

// load writes the suite's data set through every write verb of the contract
// and returns the model of what must now be stored: a bulk load, one single
// put that overwrites, one single delete, one bulk delete, flush and sync.
func load(p *sim.Proc, ks client.Contract, n int) (model, error) {
	m := model{}
	for i := 0; i < n; i++ {
		if err := ks.BulkPut(p, confKey(i), confValue(i)); err != nil {
			return nil, fmt.Errorf("bulkput %d: %w", i, err)
		}
		m[string(confKey(i))] = confValue(i)
	}
	if err := ks.Flush(p); err != nil {
		return nil, fmt.Errorf("flush: %w", err)
	}
	if err := ks.Put(p, confKey(1), confValue(n+1)); err != nil {
		return nil, fmt.Errorf("put: %w", err)
	}
	m[string(confKey(1))] = confValue(n + 1)
	if err := ks.Delete(p, confKey(2)); err != nil {
		return nil, fmt.Errorf("delete: %w", err)
	}
	delete(m, string(confKey(2)))
	if err := ks.BulkDelete(p, confKey(3)); err != nil {
		return nil, fmt.Errorf("bulkdelete: %w", err)
	}
	delete(m, string(confKey(3)))
	if err := ks.Flush(p); err != nil {
		return nil, fmt.Errorf("flush tombstone: %w", err)
	}
	if err := ks.Sync(p); err != nil {
		return nil, fmt.Errorf("sync: %w", err)
	}
	return m, nil
}

// pointReads checks get hit/miss and exist against the model, including the
// two tombstoned keys and a key that never existed.
func pointReads(p *sim.Proc, ks client.Contract, m model, n int) error {
	for i := 0; i < n; i += 7 {
		want, live := m[string(confKey(i))]
		v, ok, err := ks.Get(p, confKey(i))
		if err != nil || ok != live || !bytes.Equal(v, want) {
			return fmt.Errorf("get %d: ok=%v err=%v, want live=%v and the model's bytes", i, ok, err, live)
		}
	}
	for _, gone := range [][]byte{confKey(2), confKey(3), []byte("nope")} {
		if v, ok, err := ks.Get(p, gone); err != nil || ok {
			return fmt.Errorf("get of absent key %x: ok=%v err=%v value=%x", gone, ok, err, v)
		}
		if ok, err := ks.Exist(p, gone); err != nil || ok {
			return fmt.Errorf("exist of absent key %x: ok=%v err=%v", gone, ok, err)
		}
	}
	if ok, err := ks.Exist(p, confKey(1)); err != nil || !ok {
		return fmt.Errorf("exist of live key: ok=%v err=%v", ok, err)
	}
	return nil
}

// fullSuite drives every verb of the contract plus the keyspace lifecycle.
func fullSuite(p *sim.Proc, d driver, parts int) error {
	ks, err := d.create(p, confName, parts)
	if err != nil {
		return fmt.Errorf("create: %w", err)
	}
	if ks.Name() != confName {
		return fmt.Errorf("name = %q", ks.Name())
	}
	if _, err := d.create(p, confName, parts); err == nil {
		return errors.New("second create of the same name succeeded")
	}
	m, err := load(p, ks, confKeys)
	if err != nil {
		return err
	}

	if err := ks.CompactWithIndexes(p, []client.IndexSpec{confSpec}); err != nil {
		return fmt.Errorf("compact with indexes: %w", err)
	}
	if err := ks.WaitCompacted(p); err != nil {
		return fmt.Errorf("wait compacted: %w", err)
	}
	if err := ks.WaitIndexBuilt(p, confIndex); err != nil {
		return fmt.Errorf("wait index built: %w", err)
	}
	if done, err := ks.CompactDone(p); err != nil || !done {
		return fmt.Errorf("compact done = %v, %v after the wait", done, err)
	}
	if done, err := ks.IndexBuilt(p, confIndex); err != nil || !done {
		return fmt.Errorf("index built = %v, %v after the wait", done, err)
	}

	if err := pointReads(p, ks, m, confKeys); err != nil {
		return err
	}

	all := m.sorted(func(string, []byte) bool { return true }, byKey)
	lo, hi := all[len(all)/4].Key, all[3*len(all)/4].Key
	inRange := func(k string, _ []byte) bool { return k >= string(lo) && k < string(hi) }
	got, err := ks.Scan(p, lo, hi, 0)
	if err != nil {
		return fmt.Errorf("scan: %w", err)
	}
	if err := samePairs("scan", got, m.sorted(inRange, byKey)); err != nil {
		return err
	}
	if got, err = ks.Scan(p, nil, nil, 10); err != nil {
		return fmt.Errorf("scan limit: %w", err)
	}
	if err := samePairs("scan limit 10", got, all[:10]); err != nil {
		return err
	}

	slo, shi := keyenc.PutUint32(10000), keyenc.PutUint32(30000)
	if got, err = ks.QuerySecondaryRange(p, confIndex, slo, shi, 0); err != nil {
		return fmt.Errorf("secondary range: %w", err)
	}
	want := m.sorted(func(_ string, v []byte) bool {
		s := secondaryOf(v)
		return bytes.Compare(s, slo) >= 0 && bytes.Compare(s, shi) < 0
	}, bySecondary)
	if len(want) == 0 {
		return errors.New("secondary range selects nothing; the suite's data set is wrong")
	}
	if err := samePairs("secondary range", got, want); err != nil {
		return err
	}
	pt := secondaryOf(confValue(7))
	if got, err = ks.QuerySecondaryPoint(p, confIndex, pt, 0); err != nil {
		return fmt.Errorf("secondary point: %w", err)
	}
	want = m.sorted(func(_ string, v []byte) bool { return bytes.Equal(secondaryOf(v), pt) }, bySecondary)
	if err := samePairs("secondary point", got, want); err != nil {
		return err
	}

	info, err := ks.Info(p)
	if err != nil {
		return fmt.Errorf("info: %w", err)
	}
	if info.Name != confName || info.Pairs != int64(len(m)) || info.State != "COMPACTED" {
		return fmt.Errorf("info = %s %s pairs=%d, want %s COMPACTED pairs=%d",
			info.Name, info.State, info.Pairs, confName, len(m))
	}

	if re, err := d.open(p, confName); err != nil {
		return fmt.Errorf("reopen: %w", err)
	} else if v, ok, err := re.Get(p, confKey(1)); err != nil || !ok || !bytes.Equal(v, m[string(confKey(1))]) {
		return fmt.Errorf("get through reopened handle: ok=%v err=%v", ok, err)
	}
	if err := d.drop(p, confName); err != nil {
		return fmt.Errorf("delete keyspace: %w", err)
	}
	if _, err := d.open(p, confName); !errors.Is(err, client.ErrNotFound) && !errors.Is(err, array.ErrKeyspaceUnknown) {
		return fmt.Errorf("open after delete: %v, want not found", err)
	}
	return nil
}

// replicatedSuite drives what a consensus-backed keyspace supports (writes at
// quorum, read-index gets — readable at once, no compaction) and checks that
// every other verb of the contract is refused by name, not served stale.
func replicatedSuite(p *sim.Proc, d driver, parts, n int) error {
	ks, err := d.create(p, confName, parts)
	if err != nil {
		return fmt.Errorf("create: %w", err)
	}
	m, err := load(p, ks, n)
	if err != nil {
		return err
	}
	if err := pointReads(p, ks, m, n); err != nil {
		return err
	}
	if _, err := d.open(p, confName); err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	refused := map[string]error{}
	_, refused["Scan"] = ks.Scan(p, nil, nil, 0)
	_, refused["SecondaryRange"] = ks.QuerySecondaryRange(p, confIndex, nil, nil, 0)
	_, refused["SecondaryPoint"] = ks.QuerySecondaryPoint(p, confIndex, nil, 0)
	refused["Compact"] = ks.Compact(p)
	refused["CompactWithIndexes"] = ks.CompactWithIndexes(p, []client.IndexSpec{confSpec})
	_, refused["CompactStatus"] = ks.CompactDone(p)
	refused["BuildIndex"] = ks.BuildSecondaryIndex(p, confSpec)
	_, refused["IndexStatus"] = ks.IndexBuilt(p, confIndex)
	_, refused["KeyspaceInfo"] = ks.Info(p)
	for verb, err := range refused {
		want := verb + " not supported on replicated keyspace " + confName
		if err == nil || !strings.Contains(err.Error(), want) {
			return fmt.Errorf("%s on a replicated keyspace: %v, want %q", verb, err, want)
		}
		if !errors.Is(err, wire.ErrBadRequest) && !errors.Is(err, array.ErrUnsupported) {
			return fmt.Errorf("%s refusal is %v, want a bad-request", verb, err)
		}
	}
	// Lifecycle: a deleted keyspace is gone with everything in it, and its
	// name is free again.
	if err := d.drop(p, confName); err != nil {
		return fmt.Errorf("delete keyspace: %w", err)
	}
	if _, err := d.open(p, confName); !errors.Is(err, client.ErrNotFound) && !errors.Is(err, array.ErrKeyspaceUnknown) {
		return fmt.Errorf("open after delete: %v, want not found", err)
	}
	if ks, err = d.create(p, confName, parts); err != nil {
		return fmt.Errorf("recreate under the same name: %w", err)
	}
	if _, ok, err := ks.Get(p, confKey(1)); err != nil || ok {
		return fmt.Errorf("get of a pair the deleted keyspace held: ok=%v err=%v", ok, err)
	}
	if err := d.drop(p, confName); err != nil {
		return fmt.Errorf("delete recreated keyspace: %w", err)
	}
	return nil
}

// --- In-process drivers ----------------------------------------------------

type deviceDriver struct{ cl *client.Client }

func (d deviceDriver) create(p *sim.Proc, name string, _ int) (client.Contract, error) {
	ks, err := d.cl.CreateKeyspace(p, name)
	if err != nil {
		return nil, err
	}
	return ks, nil
}

func (d deviceDriver) open(p *sim.Proc, name string) (client.Contract, error) {
	ks, err := d.cl.OpenKeyspace(p, name)
	if err != nil {
		return nil, err
	}
	return ks, nil
}

func (d deviceDriver) drop(p *sim.Proc, name string) error { return d.cl.DeleteKeyspace(p, name) }

type arrayDriver struct{ a *array.Array }

func (d arrayDriver) create(p *sim.Proc, name string, parts int) (client.Contract, error) {
	ks, err := d.a.CreateRangeSharded(p, name, parts)
	if err != nil {
		return nil, err
	}
	return ks, nil
}

func (d arrayDriver) open(_ *sim.Proc, name string) (client.Contract, error) {
	ks, err := d.a.OpenKeyspace(name)
	if err != nil {
		return nil, err
	}
	return ks, nil
}

func (d arrayDriver) drop(p *sim.Proc, name string) error { return d.a.DeleteKeyspace(p, name) }

// replicatedDriver is arrayDriver with consensus-backed keyspaces.
type replicatedDriver struct{ arrayDriver }

func (d replicatedDriver) create(p *sim.Proc, name string, parts int) (client.Contract, error) {
	ks, err := d.a.CreateReplicated(p, name, parts)
	if err != nil {
		return nil, err
	}
	return ks, nil
}

func (d replicatedDriver) open(_ *sim.Proc, name string) (client.Contract, error) {
	ks, err := d.a.OpenReplicated(name)
	if err != nil {
		return nil, err
	}
	return ks, nil
}

// --- Loopback driver -------------------------------------------------------

// remoteDriver reaches keyspaces through a remote.Client; remoteKS fits a
// remote.Keyspace (the contract minus the proc: it lives in wall-clock time)
// to client.Contract.
type remoteDriver struct{ c *remote.Client }

func (d remoteDriver) create(_ *sim.Proc, name string, parts int) (client.Contract, error) {
	ks, err := d.c.CreateRangeSharded(name, parts)
	if err != nil {
		return nil, err
	}
	return remoteKS{ks}, nil
}

func (d remoteDriver) open(_ *sim.Proc, name string) (client.Contract, error) {
	ks, err := d.c.OpenKeyspace(name)
	if err != nil {
		return nil, err
	}
	return remoteKS{ks}, nil
}

func (d remoteDriver) drop(_ *sim.Proc, name string) error { return d.c.DeleteKeyspace(name) }

type remoteKS struct{ ks *remote.Keyspace }

func (r remoteKS) Name() string                                   { return r.ks.Name() }
func (r remoteKS) Put(_ *sim.Proc, k, v []byte) error             { return r.ks.Put(k, v) }
func (r remoteKS) Delete(_ *sim.Proc, k []byte) error             { return r.ks.Delete(k) }
func (r remoteKS) BulkPut(_ *sim.Proc, k, v []byte) error         { return r.ks.BulkPut(k, v) }
func (r remoteKS) BulkDelete(_ *sim.Proc, k []byte) error         { return r.ks.BulkDelete(k) }
func (r remoteKS) Flush(*sim.Proc) error                          { return r.ks.Flush() }
func (r remoteKS) Sync(*sim.Proc) error                           { return r.ks.Sync() }
func (r remoteKS) Exist(_ *sim.Proc, k []byte) (bool, error)      { return r.ks.Exist(k) }
func (r remoteKS) Compact(*sim.Proc) error                        { return r.ks.Compact() }
func (r remoteKS) CompactDone(*sim.Proc) (bool, error)            { return r.ks.CompactDone() }
func (r remoteKS) WaitCompacted(*sim.Proc) error                  { return r.ks.WaitCompacted() }
func (r remoteKS) WaitIndexBuilt(_ *sim.Proc, n string) error     { return r.ks.WaitIndexBuilt(n) }
func (r remoteKS) Info(*sim.Proc) (nvme.KeyspaceInfo, error)      { return r.ks.Info() }
func (r remoteKS) IndexBuilt(_ *sim.Proc, n string) (bool, error) { return r.ks.IndexBuilt(n) }
func (r remoteKS) Get(_ *sim.Proc, k []byte) ([]byte, bool, error) {
	return r.ks.Get(k)
}
func (r remoteKS) Scan(_ *sim.Proc, lo, hi []byte, limit int) ([]nvme.KVPair, error) {
	return r.ks.Scan(lo, hi, limit)
}
func (r remoteKS) QuerySecondaryRange(_ *sim.Proc, ix string, lo, hi []byte, limit int) ([]nvme.KVPair, error) {
	return r.ks.QuerySecondaryRange(ix, lo, hi, limit)
}
func (r remoteKS) QuerySecondaryPoint(_ *sim.Proc, ix string, k []byte, limit int) ([]nvme.KVPair, error) {
	return r.ks.QuerySecondaryPoint(ix, k, limit)
}
func (r remoteKS) CompactWithIndexes(_ *sim.Proc, specs []client.IndexSpec) error {
	return r.ks.CompactWithIndexes(specs)
}
func (r remoteKS) BuildSecondaryIndex(_ *sim.Proc, spec client.IndexSpec) error {
	return r.ks.BuildSecondaryIndex(spec)
}

// --- The six drivers -------------------------------------------------------

func confDeviceOptions() device.Options {
	opts := device.DefaultOptions()
	opts.Seed = confSeed
	return opts
}

// confArrayOptions is a 4-device fleet with fan-out replication R=2.
func confArrayOptions() array.Options {
	opts := array.DefaultOptions()
	opts.Devices = 4
	opts.Replicas = 2
	opts.Seed = confSeed
	return opts
}

// serve starts srv on loopback and returns a pooled, pipelined client to it.
func serve(t *testing.T, srv *server.Server) *remote.Client {
	t.Helper()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	ropts := remote.DefaultOptions()
	ropts.Conns = 2
	ropts.Pipeline = 32
	rc, err := remote.Dial(addr.String(), ropts)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { rc.Close() })
	return rc
}

func TestContractConformance(t *testing.T) {
	const shards = 4
	t.Run("device-in-process", func(t *testing.T) {
		env := sim.NewEnv()
		dev := device.New(env, confDeviceOptions(), stats.NewIOStats())
		cl := client.New(host.New(env, host.DefaultHostConfig()), dev)
		var err error
		env.Go("suite", func(p *sim.Proc) {
			err = fullSuite(p, deviceDriver{cl}, 1)
			dev.Shutdown()
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
			err = fullSuite(p, arrayDriver{a}, shards)
			a.Shutdown()
		})
		env.Run()
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Run("device-loopback", func(t *testing.T) {
		rc := serve(t, server.NewDevice(confDeviceOptions(), server.DefaultConfig()))
		if err := fullSuite(nil, remoteDriver{rc}, 1); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("array-fanout-loopback", func(t *testing.T) {
		rc := serve(t, server.NewArray(confArrayOptions(), server.DefaultConfig()))
		if err := fullSuite(nil, remoteDriver{rc}, shards); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("array-replicated-in-process", func(t *testing.T) {
		env := sim.NewEnv()
		a := array.New(env, confArrayOptions())
		usedZones := func() (n int) {
			for _, m := range a.Members() {
				n += m.Dev.Engine().ZoneManager().UsedZones()
			}
			return n
		}
		var err error
		env.Go("suite", func(p *sim.Proc) {
			defer a.Shutdown()
			before := usedZones()
			// Enough pairs that every member's ingest buffer spills into zones.
			if err = replicatedSuite(p, replicatedDriver{arrayDriver{a}}, 2, 10*confKeys); err != nil {
				return
			}
			if after := usedZones(); after != before {
				err = fmt.Errorf("devices hold %d zones after the keyspace was deleted, %d before it was created", after, before)
			}
		})
		env.Run()
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Run("array-replicated-loopback", func(t *testing.T) {
		cfg := server.DefaultConfig()
		cfg.Replicated = true
		rc := serve(t, server.NewArray(confArrayOptions(), cfg))
		if err := replicatedSuite(nil, remoteDriver{rc}, 2, 60); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPooledConcurrentGets issues concurrent gets across a two-connection
// pool: each must return its own value, whatever order the responses
// complete in (the request-ID demux across connections).
func TestPooledConcurrentGets(t *testing.T) {
	rc := serve(t, server.NewDevice(confDeviceOptions(), server.DefaultConfig()))
	ks, err := rc.CreateKeyspace(confName)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	for i := 0; i < confKeys; i++ {
		if err := ks.BulkPut(confKey(i), confValue(i)); err != nil {
			t.Fatalf("bulkput %d: %v", i, err)
		}
	}
	if err := ks.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := ks.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := ks.WaitCompacted(); err != nil {
		t.Fatalf("wait compacted: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < confKeys; i += 3 {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, ok, err := ks.Get(confKey(i))
			if err != nil || !ok || !bytes.Equal(v, confValue(i)) {
				t.Errorf("concurrent get %d: ok=%v err=%v", i, ok, err)
			}
		}()
	}
	wg.Wait()
}
