package server

import (
	"errors"
	"fmt"

	"kvcsd/internal/array"
	"kvcsd/internal/client"
	"kvcsd/internal/compaction"
	"kvcsd/internal/core"
	"kvcsd/internal/device"
	"kvcsd/internal/host"
	"kvcsd/internal/nvme"
	"kvcsd/internal/obs"
	"kvcsd/internal/sim"
	"kvcsd/internal/ssd"
	"kvcsd/internal/stats"
	"kvcsd/internal/wire"
)

// Backend executes decoded wire requests against some storage target inside
// the simulation. Every method that takes a *sim.Proc is invoked only from
// sim procs spawned by the server's gateway, so implementations may rely on
// the simulator's cooperative scheduling (one proc runs at a time) for
// anything they do not explicitly guard.
type Backend interface {
	// Apply executes one request and returns its response (ID/Op are filled
	// in by the caller). It must not return nil. A wait-flagged status
	// request returns only when the job it asks about has ended.
	Apply(p *sim.Proc, req *wire.Request) *wire.Response
	// BulkApply stages a coalesced batch of puts/deletes into one keyspace
	// and flushes it as a single device submission.
	BulkApply(p *sim.Proc, keyspace string, pairs []nvme.KVPair) *wire.Response
	// BackgroundJobs reports running background work (compactions, index
	// builds) so the gateway can keep virtual time advancing while the
	// socket side is idle.
	BackgroundJobs() int
	// Shutdown finalizes metrics gauges after the sim has drained.
	Shutdown()
	// Tracer exposes the backend's span collector (may be nil).
	Tracer() *obs.Tracer
	// Registry exposes the backend's metrics registry (may be nil).
	Registry() *obs.Registry
}

// statusFromErr maps a backend error to a wire status plus optional detail.
// Device statuses travel numerically; router conditions map onto the nearest
// device or transport status so remote clients can reuse the client
// library's retry rules unchanged.
func statusFromErr(err error) (wire.Status, string) {
	if err == nil {
		return wire.StatusOK, ""
	}
	var se *client.StatusError
	if errors.As(err, &se) {
		return wire.FromNVMe(se.Status), ""
	}
	switch {
	case errors.Is(err, client.ErrNotFound):
		return wire.StatusNotFound, ""
	case errors.Is(err, array.ErrKeyspaceUnknown):
		return wire.StatusNotFound, err.Error()
	case errors.Is(err, array.ErrKeyspaceExists):
		return wire.StatusExists, err.Error()
	case errors.Is(err, array.ErrNoReplicas):
		return wire.StatusUnavailable, err.Error()
	case errors.Is(err, array.ErrUnsupported):
		return wire.StatusBadRequest, err.Error()
	}
	return wire.StatusInternal, err.Error()
}

func respErr(err error) *wire.Response {
	st, msg := statusFromErr(err)
	return &wire.Response{Status: st, Err: msg}
}

func respOK() *wire.Response { return &wire.Response{Status: wire.StatusOK} }

func respUnhandled(op wire.Op) *wire.Response {
	return &wire.Response{Status: wire.StatusBadRequest, Err: "unhandled opcode " + op.String()}
}

// respPairs answers a query verb with its result pairs.
func respPairs(pairs []nvme.KVPair, err error) *wire.Response {
	if err != nil {
		return respErr(err)
	}
	return &wire.Response{Status: wire.StatusOK, Pairs: pairs}
}

// scrubResponse renders a scrub report as both the human-readable Report
// line and the self-checking binary form (Value) remote tooling decodes.
func scrubResponse(rep *core.ScrubReport) *wire.Response {
	return &wire.Response{
		Status: wire.StatusOK,
		Report: rep.String(),
		Value:  core.EncodeScrubReport(rep),
	}
}

// fleet is the member surface the backend stands on beside the keyspace
// contract: device i and its client, the fault and repair verbs addressed to
// one device, and the stats, health, ring and progress rows. *array.Array
// offers most of it under these very names (arrayFleet adds the rest);
// deviceFleet is a lone device answering as member 0.
type fleet interface {
	// create makes a keyspace with parts partitions (0 or 1 = unsharded; a
	// lone device ignores it), open resolves a name to its handle.
	create(p *sim.Proc, name string, parts int) error
	open(p *sim.Proc, name string) (client.Contract, error)
	DeleteKeyspace(p *sim.Proc, name string) error
	// compactStatus answers OpCompactStatus: the done flag plus the live
	// pipeline progress, from wherever this fleet keeps the latter.
	compactStatus(p *sim.Proc, ks client.Contract) (compaction.Progress, bool, error)

	Members() []*array.Member
	PowerCut(p *sim.Proc, id int) ssd.PowerCutReport
	RestartDevice(p *sim.Proc, id int) (*core.RecoveryReport, error)
	// scrub runs a media scrub of one device, repairing what it finds where
	// the fleet holds another copy.
	scrub(p *sim.Proc, id int) (*core.ScrubReport, error)
	CorruptExtent(p *sim.Proc, id int, keyspace string, addr nvme.ExtentAddr) (int64, error)

	Stats() *stats.IOStats
	Health() []wire.DeviceHealth
	RingTable() []wire.RingEntry
	Compactions() []compaction.KeyspaceProgress

	Shutdown()
	Tracer() *obs.Tracer
	Registry() *obs.Registry
}

// deviceFleet fronts one simulated device through the client library; the
// device's own Shutdown, Tracer and Registry serve as the fleet's.
type deviceFleet struct {
	*device.Device
	cl      *client.Client
	members []*array.Member // the device as member 0
	// ks caches open handles: a device keyspace handle stages bulk pairs, so
	// every request for a name must reach the same one.
	ks map[string]*client.Keyspace
}

func newDeviceFleet(env *sim.Env, opts device.Options) *deviceFleet {
	st := stats.NewIOStats()
	h := host.New(env, host.DefaultHostConfig())
	dev := device.New(env, opts, st)
	cl := client.New(h, dev)
	return &deviceFleet{
		Device:  dev,
		cl:      cl,
		members: []*array.Member{{ID: 0, Dev: dev, Client: cl, Stats: st}},
		ks:      make(map[string]*client.Keyspace),
	}
}

func (f *deviceFleet) create(p *sim.Proc, name string, _ int) error {
	ks, err := f.cl.CreateKeyspace(p, name)
	if err == nil {
		f.ks[name] = ks
	}
	return err
}

func (f *deviceFleet) open(p *sim.Proc, name string) (client.Contract, error) {
	if ks, ok := f.ks[name]; ok {
		return ks, nil
	}
	ks, err := f.cl.OpenKeyspace(p, name)
	if err != nil {
		return nil, err
	}
	f.ks[name] = ks
	return ks, nil
}

func (f *deviceFleet) DeleteKeyspace(p *sim.Proc, name string) error {
	delete(f.ks, name)
	return f.cl.DeleteKeyspace(p, name)
}

// compactStatus reads done flag and progress off the one status command.
func (f *deviceFleet) compactStatus(p *sim.Proc, ks client.Contract) (compaction.Progress, bool, error) {
	return ks.(*client.Keyspace).CompactionProgress(p)
}

func (f *deviceFleet) Members() []*array.Member { return f.members }

func (f *deviceFleet) PowerCut(p *sim.Proc, _ int) ssd.PowerCutReport {
	return f.Device.PowerCut(p)
}

func (f *deviceFleet) RestartDevice(p *sim.Proc, _ int) (*core.RecoveryReport, error) {
	return f.Restart(p)
}

// scrub only detects: a lone device has no second copy to repair from.
func (f *deviceFleet) scrub(p *sim.Proc, _ int) (*core.ScrubReport, error) {
	return f.cl.ScrubMedia(p)
}

func (f *deviceFleet) CorruptExtent(p *sim.Proc, _ int, keyspace string, addr nvme.ExtentAddr) (int64, error) {
	return f.cl.CorruptMedia(p, keyspace, addr)
}

func (f *deviceFleet) Stats() *stats.IOStats { return f.members[0].Stats }

func (f *deviceFleet) Health() []wire.DeviceHealth {
	return []wire.DeviceHealth{{ID: 0, Down: f.PoweredOff()}}
}

func (f *deviceFleet) RingTable() []wire.RingEntry { return nil }

// Compactions lists the device's keyspaces as they are: nothing is sharded,
// so there is nothing to fold.
func (f *deviceFleet) Compactions() []compaction.KeyspaceProgress {
	if f.PoweredOff() {
		return nil
	}
	return f.Engine().Progresses()
}

// arrayFleet is a sharded, replicated device array. With replicated set,
// keyspaces are created consensus-backed: writes commit at quorum through
// per-shard leaders and reads go through the leader's read-index (see
// array.CreateReplicated).
type arrayFleet struct {
	*array.Array
	replicated bool
}

func (f arrayFleet) create(p *sim.Proc, name string, parts int) error {
	var err error
	switch {
	case f.replicated:
		_, err = f.CreateReplicated(p, name, parts)
	case parts > 1:
		_, err = f.CreateRangeSharded(p, name, parts)
	default:
		_, err = f.CreateKeyspace(p, name)
	}
	return err
}

func (f arrayFleet) open(_ *sim.Proc, name string) (client.Contract, error) {
	if rk, err := f.OpenReplicated(name); err == nil {
		return rk, nil
	}
	ks, err := f.OpenKeyspace(name)
	if err != nil {
		return nil, err
	}
	return ks, nil
}

// compactStatus asks the shards once for the done flag and takes the progress
// from the keyspace's row of the fleet aggregate.
func (f arrayFleet) compactStatus(p *sim.Proc, ks client.Contract) (compaction.Progress, bool, error) {
	done, err := ks.CompactDone(p)
	if err != nil {
		return compaction.Progress{}, false, err
	}
	for _, row := range f.Compactions() {
		if row.Keyspace == ks.Name() {
			return row.Progress, done, nil
		}
	}
	return compaction.Progress{}, done, nil
}

// scrub repairs what it finds from healthy replica copies.
func (f arrayFleet) scrub(p *sim.Proc, id int) (*core.ScrubReport, error) {
	return f.RepairDevice(p, id)
}

// backend executes wire requests against a fleet: one dispatch, whatever the
// fleet is.
type backend struct {
	fleet // Shutdown, Tracer and Registry are the fleet's
	env   *sim.Env
	locks map[string]*sim.Resource
}

func newBackend(env *sim.Env, f fleet) *backend {
	return &backend{env: env, fleet: f, locks: make(map[string]*sim.Resource)}
}

// lock serializes bulk staging per keyspace: handles stage bulk pairs and
// flush them as one message, which must not interleave across concurrently
// running RPC handlers.
func (b *backend) lock(name string) *sim.Resource {
	r, ok := b.locks[name]
	if !ok {
		r = sim.NewResource(b.env, "bulk:"+name, 1)
		b.locks[name] = r
	}
	return r
}

func (b *backend) Apply(p *sim.Proc, req *wire.Request) *wire.Response {
	switch req.Op {
	case wire.OpPing:
		return respOK()
	case wire.OpCreateKeyspace:
		return respErr(b.create(p, req.Keyspace, int(req.Parts)))
	case wire.OpOpenKeyspace:
		_, err := b.open(p, req.Keyspace)
		return respErr(err)
	case wire.OpDeleteKeyspace:
		delete(b.locks, req.Keyspace)
		return respErr(b.DeleteKeyspace(p, req.Keyspace))
	case wire.OpStats:
		return b.statsReport()
	case wire.OpCompactPolicy:
		return b.compactPolicy(p, req.Value)
	case wire.OpPowerCut, wire.OpRecover, wire.OpScrub, wire.OpCorrupt, wire.OpMigrateCold:
		id := int(req.Device)
		if id < 0 || id >= len(b.Members()) {
			return &wire.Response{Status: wire.StatusInvalid, Err: fmt.Sprintf("device %d out of range", id)}
		}
		return b.applyMember(p, id, req)
	}

	ks, err := b.open(p, req.Keyspace)
	if err != nil {
		return respErr(err)
	}
	switch req.Op {
	case wire.OpPut:
		return respErr(ks.Put(p, req.Key, req.Value))
	case wire.OpDelete:
		return respErr(ks.Delete(p, req.Key))
	case wire.OpBulkPut:
		return b.BulkApply(p, req.Keyspace, req.Pairs)
	case wire.OpSync:
		return respErr(ks.Sync(p))
	case wire.OpGet:
		v, ok, err := ks.Get(p, req.Key)
		if err != nil {
			return respErr(err)
		}
		if !ok {
			return &wire.Response{Status: wire.StatusNotFound}
		}
		return &wire.Response{Status: wire.StatusOK, Value: v, Exists: true}
	case wire.OpExist:
		ok, err := ks.Exist(p, req.Key)
		if err != nil {
			return respErr(err)
		}
		return &wire.Response{Status: wire.StatusOK, Exists: ok}
	case wire.OpScan:
		return respPairs(ks.Scan(p, req.Low, req.High, int(req.Limit)))
	case wire.OpSecondaryRange:
		return respPairs(ks.QuerySecondaryRange(p, req.Index.Name, req.Low, req.High, int(req.Limit)))
	case wire.OpSecondaryPoint:
		return respPairs(ks.QuerySecondaryPoint(p, req.Index.Name, req.Key, int(req.Limit)))
	case wire.OpCompact:
		return respErr(ks.Compact(p))
	case wire.OpCompactWithIndexes:
		return respErr(ks.CompactWithIndexes(p, req.Indexes))
	case wire.OpCompactStatus:
		if req.Wait {
			if err := ks.WaitCompacted(p); err != nil {
				return respErr(err)
			}
		}
		pr, done, err := b.compactStatus(p, ks)
		if err != nil {
			return respErr(err)
		}
		return &wire.Response{Status: wire.StatusOK, Done: done, Progress: &pr}
	case wire.OpBuildIndex:
		return respErr(ks.BuildSecondaryIndex(p, req.Index))
	case wire.OpIndexStatus:
		if req.Wait {
			if err := ks.WaitIndexBuilt(p, req.Index.Name); err != nil {
				return respErr(err)
			}
		}
		done, err := ks.IndexBuilt(p, req.Index.Name)
		if err != nil {
			return respErr(err)
		}
		return &wire.Response{Status: wire.StatusOK, Done: done}
	case wire.OpKeyspaceInfo:
		info, err := ks.Info(p)
		if err != nil {
			return respErr(err)
		}
		return &wire.Response{Status: wire.StatusOK, HasInfo: true, Info: info}
	}
	return respUnhandled(req.Op)
}

// applyMember serves the verbs addressed to one device (id is in range).
func (b *backend) applyMember(p *sim.Proc, id int, req *wire.Request) *wire.Response {
	switch req.Op {
	case wire.OpPowerCut:
		rep := b.PowerCut(p, id)
		return &wire.Response{Status: wire.StatusOK, Report: fmt.Sprintf("%+v", rep)}
	case wire.OpRecover:
		rep, err := b.RestartDevice(p, id)
		if err != nil {
			return respErr(err)
		}
		return &wire.Response{Status: wire.StatusOK, Report: fmt.Sprintf("%+v", rep)}
	case wire.OpScrub:
		rep, err := b.scrub(p, id)
		if err != nil {
			return respErr(err)
		}
		return scrubResponse(rep)
	case wire.OpCorrupt:
		if req.Extent == nil {
			return &wire.Response{Status: wire.StatusInvalid, Err: "corrupt: missing extent address"}
		}
		flips, err := b.CorruptExtent(p, id, req.Keyspace, *req.Extent)
		if err != nil {
			return respErr(err)
		}
		return &wire.Response{Status: wire.StatusOK,
			Report: fmt.Sprintf("flipped %d bits in %s granule %d on device %d", flips, req.Keyspace, req.Extent.Granule, id)}
	case wire.OpMigrateCold:
		moved, err := b.Members()[id].Client.MigrateCold(p)
		if err != nil {
			return respErr(err)
		}
		return &wire.Response{Status: wire.StatusOK, Moved: moved}
	}
	return respUnhandled(req.Op)
}

// compactPolicy serves OpCompactPolicy: a non-empty body installs the config
// on every healthy member, and either way the response echoes the last
// member's active config (members share one template, so they agree).
func (b *backend) compactPolicy(p *sim.Proc, body []byte) *wire.Response {
	var want compaction.Config
	if len(body) > 0 {
		var err error
		if want, err = compaction.DecodeConfig(body); err != nil {
			return &wire.Response{Status: wire.StatusBadRequest, Err: err.Error()}
		}
	}
	resp := &wire.Response{Status: wire.StatusUnavailable, Err: "compact-policy: no healthy device"}
	for _, m := range b.Members() {
		if !m.Healthy() {
			continue
		}
		var cfg compaction.Config
		var err error
		if len(body) > 0 {
			cfg, err = m.Client.SetCompactionConfig(p, want)
		} else {
			cfg, err = m.Client.CompactionConfig(p)
		}
		if err != nil {
			return respErr(err)
		}
		resp = &wire.Response{Status: wire.StatusOK, Value: compaction.EncodeConfig(cfg)}
	}
	return resp
}

func (b *backend) BulkApply(p *sim.Proc, keyspace string, pairs []nvme.KVPair) *wire.Response {
	ks, err := b.open(p, keyspace)
	if err != nil {
		return respErr(err)
	}
	lk := b.lock(keyspace)
	p.Acquire(lk)
	defer p.Release(lk)
	for _, kv := range pairs {
		if kv.Tombstone {
			err = ks.BulkDelete(p, kv.Key)
		} else {
			err = ks.BulkPut(p, kv.Key, kv.Value)
		}
		if err != nil {
			return respErr(err)
		}
	}
	return respErr(ks.Flush(p))
}

func (b *backend) statsReport() *wire.Response {
	st := b.Stats()
	return &wire.Response{Status: wire.StatusOK, Stats: &wire.StatsReport{
		Devices:      uint32(len(b.Members())),
		Commands:     st.Commands.Value(),
		MediaRead:    st.MediaRead.Value(),
		MediaWrite:   st.MediaWrite.Value(),
		HostToDevice: st.HostToDevice.Value(),
		DeviceToHost: st.DeviceToHost.Value(),
		AppWrite:     st.AppWrite.Value(),
		VirtualNanos: int64(b.env.Now()),
		Health:       b.Health(),
		Ring:         b.RingTable(),
		Compactions:  b.Compactions(),
	}}
}

func (b *backend) BackgroundJobs() int {
	n := 0
	for _, m := range b.Members() {
		n += m.Dev.Engine().BackgroundJobs()
	}
	return n
}
