package array

import (
	"errors"
	"fmt"

	"kvcsd/internal/client"
	"kvcsd/internal/core"
	"kvcsd/internal/device"
	"kvcsd/internal/host"
	"kvcsd/internal/obs"
	"kvcsd/internal/sim"
	"kvcsd/internal/ssd"
	"kvcsd/internal/stats"
)

// Errors returned by the array router.
var (
	// ErrNoReplicas reports that every replica of a shard failed (or every
	// owning device is marked down).
	ErrNoReplicas = errors.New("array: no replica available")
	// ErrKeyspaceUnknown reports an Open/Delete of a keyspace this router
	// never created.
	ErrKeyspaceUnknown = errors.New("array: keyspace unknown to router")
	// ErrKeyspaceExists reports a Create of a name already routed.
	ErrKeyspaceExists = errors.New("array: keyspace already routed")
)

// ReadPreference selects which replica serves reads first.
type ReadPreference int

// Read preferences.
const (
	// ReadPrimary always tries the ring primary first — maximal cache
	// locality, uneven load.
	ReadPrimary ReadPreference = iota
	// ReadRoundRobin rotates reads across healthy replicas — even load,
	// the deployment default for R > 1.
	ReadRoundRobin
)

// Options assembles an array.
type Options struct {
	// Devices is the fleet size (>= 1).
	Devices int
	// Replicas is the number of copies of every keyspace (clamped to
	// Devices; default 1 = no replication).
	Replicas int
	// Seed drives ring placement and per-device seeds.
	Seed int64
	// Device is the per-device template; the zero value means
	// device.DefaultOptions(). Each device gets a distinct derived seed.
	Device device.Options
	// ReadPreference selects the replica read order.
	ReadPreference ReadPreference
	// FailureThreshold is the number of consecutive device-level errors
	// after which a device is marked down and skipped by the router
	// (default 3).
	FailureThreshold int
	// MaxConcurrentCompactions caps how many devices may run scheduled
	// compactions at once (default 2).
	MaxConcurrentCompactions int
	// Trace collects every device's command spans into one fleet tracer.
	Trace bool
	// Metrics publishes all devices into one registry, gauges namespaced
	// "dev<N>/".
	Metrics bool
}

// DefaultOptions returns a 4-device, 2-replica array of default devices.
func DefaultOptions() Options {
	return Options{
		Devices:                  4,
		Replicas:                 2,
		Seed:                     1,
		ReadPreference:           ReadRoundRobin,
		FailureThreshold:         3,
		MaxConcurrentCompactions: 2,
	}
}

// Member is one device of the array plus the router's view of it.
type Member struct {
	ID     int
	Dev    *device.Device
	Client *client.Client
	Stats  *stats.IOStats

	failures int // consecutive device-level errors
	down     bool
}

// Healthy reports whether the router still routes to this device.
func (m *Member) Healthy() bool { return !m.down }

// Failures returns the current consecutive-failure count.
func (m *Member) Failures() int { return m.failures }

// DeviceHealth is a point-in-time health snapshot of one member.
type DeviceHealth struct {
	ID       int
	Down     bool
	Failures int
}

// Array is a host-side router over N KV-CSD devices.
type Array struct {
	env     *sim.Env
	h       *host.Host
	opts    Options
	members []*Member
	ring    *Ring

	reg *obs.Registry // fleet registry (nil unless Metrics)
	tr  *obs.Tracer   // fleet tracer (nil unless Trace)

	gate        *sim.Resource // compaction admission gate
	gDown       *sim.Gauge    // array/devices_down
	gCompactRun *sim.Gauge    // array/compactions_running
	gColdMoves  *sim.Gauge    // array/cold_zones_migrated
	lastAdmit   sim.Time      // last compaction admission (stagger)
	admits      int64         // compaction admissions so far
	lastJobs    []*compactJob // previous admission (occupancy-aware stagger)
	rr          int           // round-robin read cursor

	keyspaces map[string]*Keyspace
	ksOrder   []string // creation order, for deterministic iteration

	// replicated holds consensus-backed keyspaces (see groups.go).
	replicated map[string]*ReplicatedKeyspace
	repOrder   []string

	// hints queues writes missed by down devices, replayed on rejoin
	// (hinted handoff — see rejoin.go).
	hints map[int][]hint

	// repairing dedupes in-flight read-repair passes per device; repairs
	// holds their procs for WaitRepairsIdle (see repair.go).
	repairing map[int]bool
	repairs   []*sim.Proc
}

// New builds and starts an array in the simulation environment. Each device
// is a complete stack (its own SSD, SoC engine, and link) with its own
// IOStats block; the router host is shared.
func New(env *sim.Env, opts Options) *Array {
	if opts.Devices < 1 {
		opts.Devices = 1
	}
	if opts.Replicas < 1 {
		opts.Replicas = 1
	}
	if opts.Replicas > opts.Devices {
		opts.Replicas = opts.Devices
	}
	if opts.FailureThreshold <= 0 {
		opts.FailureThreshold = 3
	}
	if opts.MaxConcurrentCompactions <= 0 {
		opts.MaxConcurrentCompactions = 2
	}
	a := &Array{
		env:        env,
		h:          host.New(env, host.DefaultHostConfig()),
		opts:       opts,
		ring:       NewRing(opts.Seed, opts.Devices),
		gate:       sim.NewResource(env, "array-compact-gate", opts.MaxConcurrentCompactions),
		keyspaces:  make(map[string]*Keyspace),
		replicated: make(map[string]*ReplicatedKeyspace),
		hints:      make(map[int][]hint),
		repairing:  make(map[int]bool),
	}
	if opts.Metrics {
		a.reg = obs.NewRegistry(env)
		a.gDown = a.reg.Gauge("array/devices_down")
		a.gCompactRun = a.reg.Gauge("array/compactions_running")
		a.gColdMoves = a.reg.Gauge("array/cold_zones_migrated")
	}
	if opts.Trace {
		a.tr = obs.NewTracer(env)
	}
	devTemplate := opts.Device
	if isZeroDeviceOptions(devTemplate) {
		devTemplate = device.DefaultOptions()
	}
	for i := 0; i < opts.Devices; i++ {
		dopts := devTemplate
		dopts.Seed = deriveSeed(opts.Seed, i)
		dopts.Trace = opts.Trace
		dopts.Metrics = opts.Metrics
		dopts.SharedRegistry = a.reg
		dopts.SharedTracer = a.tr
		dopts.GaugePrefix = fmt.Sprintf("dev%d/", i)
		st := stats.NewIOStats()
		dev := device.New(env, dopts, st)
		a.members = append(a.members, &Member{
			ID:     i,
			Dev:    dev,
			Client: client.New(a.h, dev),
			Stats:  st,
		})
	}
	return a
}

// isZeroDeviceOptions reports whether the template was left unset.
func isZeroDeviceOptions(o device.Options) bool {
	return o.QueueDepth == 0 && o.SSD.Channels == 0 && o.SoC.Cores == 0
}

// deriveSeed gives each device an independent deterministic seed.
func deriveSeed(seed int64, dev int) int64 {
	return seed ^ (int64(dev+1) * 0x9E3779B9)
}

// Env returns the simulation environment.
func (a *Array) Env() *sim.Env { return a.env }

// Host returns the router host.
func (a *Array) Host() *host.Host { return a.h }

// Options returns the array configuration (after defaulting).
func (a *Array) Options() Options { return a.opts }

// Ring returns the placement ring (inspection, tests).
func (a *Array) Ring() *Ring { return a.ring }

// Members returns all members in device-ID order.
func (a *Array) Members() []*Member { return a.members }

// Member returns the member with the given device ID.
func (a *Array) Member(id int) *Member { return a.members[id] }

// Registry returns the fleet metrics registry (nil unless Options.Metrics).
func (a *Array) Registry() *obs.Registry { return a.reg }

// Tracer returns the fleet tracer (nil unless Options.Trace).
func (a *Array) Tracer() *obs.Tracer { return a.tr }

// Stats returns a fresh IOStats block holding the sum of every device's
// counters (stats.Merge) — the array-wide I/O totals.
func (a *Array) Stats() *stats.IOStats {
	total := stats.NewIOStats()
	for _, m := range a.members {
		total.Merge(m.Stats)
	}
	return total
}

// Health returns a snapshot of every member's health, in device-ID order.
func (a *Array) Health() []DeviceHealth {
	out := make([]DeviceHealth, len(a.members))
	for i, m := range a.members {
		out[i] = DeviceHealth{ID: m.ID, Down: m.down, Failures: m.failures}
	}
	return out
}

// noteFailure records a device-level error; at FailureThreshold consecutive
// errors the device is marked down and the router stops routing to it.
func (a *Array) noteFailure(m *Member) {
	m.failures++
	if !m.down && m.failures >= a.opts.FailureThreshold {
		m.down = true
		if a.gDown != nil {
			a.gDown.Add(1)
		}
	}
}

// noteSuccess clears the consecutive-failure counter and revives a down
// device (the only probe path back: a read that failed over may still be
// retried against a recovering device by lowering FailureThreshold traffic).
func (a *Array) noteSuccess(m *Member) {
	m.failures = 0
	if m.down {
		m.down = false
		if a.gDown != nil {
			a.gDown.Add(-1)
		}
	}
}

// MarkDown forces a device down (operator action / tests).
func (a *Array) MarkDown(id int) {
	m := a.members[id]
	if !m.down {
		m.down = true
		if a.gDown != nil {
			a.gDown.Add(1)
		}
	}
}

// MarkUp forces a device back up.
func (a *Array) MarkUp(id int) {
	m := a.members[id]
	m.failures = 0
	if m.down {
		m.down = false
		if a.gDown != nil {
			a.gDown.Add(-1)
		}
	}
}

// PowerCut cuts power to one device and marks it down: the router fails
// reads over to the surviving replicas immediately (degraded reads) while
// the dead replica waits for RestartDevice.
func (a *Array) PowerCut(p *sim.Proc, id int) ssd.PowerCutReport {
	rep := a.members[id].Dev.PowerCut(p)
	a.MarkDown(id)
	// Consensus shard groups on the device lose their volatile state too;
	// their leaders fail over to the surviving members.
	for _, name := range a.repOrder {
		a.replicated[name].cluster.Crash(id)
	}
	return rep
}

// RestartDevice power-cycles a downed device and, on successful recovery,
// replays the writes it missed while down (hinted handoff) and rejoins it to
// the router: subsequent reads and writes route to it again.
func (a *Array) RestartDevice(p *sim.Proc, id int) (*core.RecoveryReport, error) {
	rep, err := a.members[id].Dev.Restart(p)
	if err != nil {
		return rep, err
	}
	if err := a.replayHints(p, id); err != nil {
		return rep, err
	}
	a.MarkUp(id)
	// Rejoin the device's shard groups: state machines reset to their
	// snapshots and the logs replay as the commit indexes re-advance.
	for _, name := range a.repOrder {
		a.replicated[name].cluster.Restart(p, id)
	}
	return rep, nil
}

// readOrder returns replica indices (positions into a partition's replica
// list) in the order reads should try them: healthy devices first, ordered
// by the read preference, then down devices as a last resort.
func (a *Array) readOrder(replicas []int) []int {
	n := len(replicas)
	order := make([]int, n)
	start := 0
	if a.opts.ReadPreference == ReadRoundRobin && n > 1 {
		start = a.rr % n
		a.rr++
	}
	for i := 0; i < n; i++ {
		order[i] = (start + i) % n
	}
	// Stable partition: healthy before down, preserving preference order.
	healthy := make([]int, 0, n)
	downs := make([]int, 0, n)
	for _, ri := range order {
		if a.members[replicas[ri]].Healthy() {
			healthy = append(healthy, ri)
		} else {
			downs = append(downs, ri)
		}
	}
	return append(healthy, downs...)
}

// WaitBackgroundIdle blocks until every device's background jobs finish.
func (a *Array) WaitBackgroundIdle(p *sim.Proc) error {
	for _, m := range a.members {
		if err := m.Dev.WaitBackgroundIdle(p); err != nil {
			return err
		}
	}
	return nil
}

// Shutdown closes every device's command queue; in-flight commands complete
// and the dispatch loops exit. Consensus clusters of replicated keyspaces
// stop first so their tickers release the simulation.
func (a *Array) Shutdown() {
	for _, name := range a.repOrder {
		a.replicated[name].cluster.Stop()
	}
	for _, m := range a.members {
		m.Dev.Shutdown()
	}
}
