package server

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"kvcsd/internal/array"
	"kvcsd/internal/device"
	"kvcsd/internal/keyenc"
	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
	"kvcsd/internal/wire"
)

func testArrayOptions() array.Options {
	opts := array.DefaultOptions()
	opts.Devices = 3
	opts.Replicas = 2
	opts.Seed = 5
	return opts
}

// TestDeviceIndexOutOfRange: a device-addressed verb naming a device the
// server does not have is refused with StatusInvalid on every backend, and
// touches no device. A single-device server used to ignore Request.Device and
// act on device 0 — `power-cut -dev 3` cut the only device there was.
func TestDeviceIndexOutOfRange(t *testing.T) {
	servers := map[string]*Server{
		"device": NewDevice(device.DefaultOptions(), DefaultConfig()),
		"array":  NewArray(testArrayOptions(), DefaultConfig()),
	}
	for name, srv := range servers {
		t.Run(name, func(t *testing.T) {
			addr, err := srv.Start("127.0.0.1:0")
			if err != nil {
				t.Fatalf("start: %v", err)
			}
			defer srv.Close()
			nc, err := net.Dial("tcp", addr.String())
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer nc.Close()

			id := uint64(0)
			call := func(req *wire.Request) *wire.Response {
				id++
				req.ID = id
				sendReq(t, nc, req)
				return readResp(t, nc)
			}
			st := call(&wire.Request{Op: wire.OpStats})
			if st.Status != wire.StatusOK || st.Stats == nil {
				t.Fatalf("stats: %v %s", st.Status, st.Err)
			}
			beyond := st.Stats.Devices
			want := fmt.Sprintf("device %d out of range", beyond)
			for _, op := range []wire.Op{wire.OpPowerCut, wire.OpRecover, wire.OpScrub, wire.OpCorrupt, wire.OpMigrateCold} {
				resp := call(&wire.Request{Op: op, Device: beyond, Keyspace: "k", Extent: &nvme.ExtentAddr{Bits: 1}})
				if resp.Status != wire.StatusInvalid || resp.Err != want {
					t.Errorf("%s -dev %d: %v %q, want %v %q", op, beyond, resp.Status, resp.Err, wire.StatusInvalid, want)
				}
			}
			st = call(&wire.Request{Op: wire.OpStats})
			for _, h := range st.Stats.Health {
				if h.Down {
					t.Errorf("device %d is down after out-of-range requests", h.ID)
				}
			}
		})
	}
}

// TestEveryClientVerbHandled walks the verb table against every fleet: each
// client-facing verb must reach an arm of the dispatch (whatever the arm
// answers — a replicated keyspace refusing a scan by name is handled), and
// the verbs that never belong to a client — the consensus messages replicas
// exchange and the handshake the socket layer answers — must be refused. A
// verb added to the wire table without a server arm fails here.
func TestEveryClientVerbHandled(t *testing.T) {
	internal := map[wire.Op]bool{
		wire.OpRequestVote: true, wire.OpAppendEntries: true, wire.OpMigrate: true, wire.OpHello: true,
	}
	fleets := map[string]func(env *sim.Env) fleet{
		"device":     func(env *sim.Env) fleet { return newDeviceFleet(env, device.DefaultOptions()) },
		"array":      func(env *sim.Env) fleet { return arrayFleet{array.New(env, testArrayOptions()), false} },
		"replicated": func(env *sim.Env) fleet { return arrayFleet{array.New(env, testArrayOptions()), true} },
	}
	spec := nvme.SecondaryIndexSpec{Name: "ix", Offset: 0, Length: 4, Type: keyenc.TypeUint32}
	for name, mk := range fleets {
		t.Run(name, func(t *testing.T) {
			env := sim.NewEnv()
			b := newBackend(env, mk(env))
			env.Go("verbs", func(p *sim.Proc) {
				defer b.Shutdown()
				for _, op := range wire.Ops() {
					// The keyspace may have been deleted, sealed or lost to the
					// power cut by an earlier verb; only existing matters here.
					b.Apply(p, &wire.Request{Op: wire.OpCreateKeyspace, Keyspace: "t", Parts: 2})
					resp := b.Apply(p, &wire.Request{
						Op: op, Keyspace: "t",
						Key: []byte("key-0001"), Value: []byte("value-01"),
						Pairs:   []nvme.KVPair{{Key: []byte("key-0002"), Value: []byte("value-02")}},
						Index:   spec,
						Indexes: []nvme.SecondaryIndexSpec{spec},
						Extent:  &nvme.ExtentAddr{Bits: 1},
					})
					unhandled := resp.Status == wire.StatusBadRequest && strings.HasPrefix(resp.Err, "unhandled opcode")
					switch {
					case internal[op] && resp.Status == wire.StatusOK:
						t.Errorf("%s answered OK; it must be refused", op)
					case !internal[op] && unhandled:
						t.Errorf("%s reaches no arm of the dispatch: %s", op, resp.Err)
					}
				}
			})
			env.Run()
		})
	}
}
