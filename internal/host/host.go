// Package host models the compute side of the simulation: a pool of CPU
// cores plus the cost constants that price software work in virtual time.
//
// Two instances appear in every experiment: the host machine (32 EPYC cores
// in the paper's Table I) that runs applications, the filesystem, and the
// RocksDB baseline; and the KV-CSD SoC (4 ARM Cortex-A53 cores) that runs the
// device-side key-value engine. A core pool is a sim.Resource, so when more
// software threads want CPU than cores exist — or when background compaction
// competes with foreground inserts — the queueing that the paper measures
// emerges naturally.
//
// The Speed field scales all compute durations: the A53 SoC is configured
// substantially slower per core than the host's EPYC cores.
package host

import (
	"time"

	"kvcsd/internal/sim"
	"kvcsd/internal/stats"
)

// Config prices software work. Durations are for Speed == 1.0 (a host-class
// core); actual charge = duration / Speed.
type Config struct {
	Name  string
	Cores int
	Speed float64 // relative per-core speed; 1.0 = host class

	// SyscallCost is the kernel entry/exit plus VFS path cost per system
	// call — the "host software overhead" the paper's motivation cites.
	SyscallCost time.Duration
	// MemBandwidth prices in-memory copies and checksums, bytes/sec.
	MemBandwidth float64
	// KVOpCost is the per-key CPU cost of a key-value engine operation
	// (memtable insert, probe) excluding copies.
	KVOpCost time.Duration
	// CompareCost prices one key comparison during sorting/merging.
	CompareCost time.Duration
	// BlockOpCost prices assembling or decoding one 4 KiB block.
	BlockOpCost time.Duration
}

// DefaultHostConfig models the paper's 32-core AMD EPYC host.
func DefaultHostConfig() Config {
	return Config{
		Name:         "host",
		Cores:        32,
		Speed:        1.0,
		SyscallCost:  2 * time.Microsecond,
		MemBandwidth: 12e9,
		KVOpCost:     900 * time.Nanosecond,
		CompareCost:  40 * time.Nanosecond,
		BlockOpCost:  2 * time.Microsecond,
	}
}

// DefaultSoCConfig models the Fidus SW-100's quad-core ARM Cortex-A53.
func DefaultSoCConfig() Config {
	return Config{
		Name:         "soc",
		Cores:        4,
		Speed:        0.45,
		SyscallCost:  0, // the device engine is a userspace SPDK driver: no kernel in the path
		MemBandwidth: 6e9,
		KVOpCost:     120 * time.Nanosecond,
		CompareCost:  40 * time.Nanosecond,
		BlockOpCost:  2 * time.Microsecond,
	}
}

// Host is a core pool bound to a simulation environment.
type Host struct {
	cfg  Config
	cpu  *sim.Resource
	busy stats.Counter // ns of core time charged, as cpu.BusyTime, readable off the sim

	accounts map[string]*account // named shares of busy, see Account
}

// account is one named share of a host's core time and the time its charges
// waited for a core.
type account struct{ ns, wait stats.Counter }

// New creates a host with cfg.Cores cores.
func New(env *sim.Env, cfg Config) *Host {
	if cfg.Cores < 1 {
		panic("host: need at least one core")
	}
	if cfg.Speed <= 0 {
		panic("host: speed must be positive")
	}
	return &Host{cfg: cfg, cpu: sim.NewResource(env, cfg.Name+"-cpu", cfg.Cores)}
}

// Config returns the host configuration.
func (h *Host) Config() Config { return h.cfg }

// CPU exposes the core pool for inspection.
func (h *Host) CPU() *sim.Resource { return h.cpu }

// BusyNs is the core time charged so far in nanoseconds — the pool's
// BusyTime as a counter a metrics registry can publish and other goroutines
// can read.
func (h *Host) BusyNs() *stats.Counter { return &h.busy }

// Compute occupies one core for d (scaled by Speed) of virtual time.
func (h *Host) Compute(p *sim.Proc, d time.Duration) { Meter{h: h}.Compute(p, d) }

// Syscall charges one kernel crossing.
func (h *Host) Syscall(p *sim.Proc) { h.Compute(p, h.cfg.SyscallCost) }

// Copy charges an in-memory move/checksum of n bytes.
func (h *Host) Copy(p *sim.Proc, n int64) { Meter{h: h}.Copy(p, n) }

// KVOp charges n key-value engine operations.
func (h *Host) KVOp(p *sim.Proc, n int64) { Meter{h: h}.KVOp(p, n) }

// Compares charges n key comparisons (sort/merge work).
func (h *Host) Compares(p *sim.Proc, n int64) { Meter{h: h}.Compares(p, n) }

// BlockOp charges assembling/decoding n blocks.
func (h *Host) BlockOp(p *sim.Proc, n int64) { Meter{h: h}.BlockOp(p, n) }

// Account returns the meter of the named share of this host's core time,
// creating the share at zero on first use. A meter adds what it charges to its
// share in the same step as to BusyNs, so when every charge goes through an
// account the shares sum to BusyNs exactly, at every instant. Beside it the
// account counts how long its charges waited for a free core. Shares belong to
// the host, not to whoever charges them: an engine rebuilt after a restart
// keeps counting into the same ones. The empty name is no share: its meter
// counts only into BusyNs, as the Host's own methods do.
func (h *Host) Account(name string) Meter {
	if name == "" {
		return Meter{h: h}
	}
	if h.accounts == nil {
		h.accounts = make(map[string]*account)
	}
	a, ok := h.accounts[name]
	if !ok {
		a = new(account)
		h.accounts[name] = a
	}
	return Meter{h: h, a: a}
}

// Meter charges work to a host's cores on behalf of one account.
type Meter struct {
	h *Host
	a *account
}

// Ns is the core time charged through this meter's account so far, in
// nanoseconds; nil for the empty account.
func (m Meter) Ns() *stats.Counter {
	if m.a == nil {
		return nil
	}
	return &m.a.ns
}

// WaitNs is the time the account's charges have waited for a core so far, from
// each request to its grant, in nanoseconds; nil for the empty account. It is
// measured, never charged: waiting adds no virtual time of its own.
func (m Meter) WaitNs() *stats.Counter {
	if m.a == nil {
		return nil
	}
	return &m.a.wait
}

// Compute occupies one core for d (scaled by Speed) of virtual time.
func (m Meter) Compute(p *sim.Proc, d time.Duration) {
	if d <= 0 {
		return
	}
	m.use(p, m.scale(d))
}

// scale is what d of host-class work takes on one of these cores.
func (m Meter) scale(d time.Duration) time.Duration {
	return time.Duration(float64(d) / m.h.cfg.Speed)
}

// use occupies one core for d, already scaled, and counts it and the time it
// waited for the core.
func (m Meter) use(p *sim.Proc, d time.Duration) {
	m.h.busy.Add(int64(d))
	if m.a == nil {
		p.Use(m.h.cpu, d)
		return
	}
	m.a.ns.Add(int64(d))
	t0 := p.Now()
	p.Use(m.h.cpu, d)
	m.a.wait.Add(int64(p.Now()-t0) - int64(d))
}

// Copy charges an in-memory move/checksum of n bytes.
func (m Meter) Copy(p *sim.Proc, n int64) {
	m.Compute(p, sim.TransferTime(n, m.h.cfg.MemBandwidth))
}

// KVOp charges n key-value engine operations.
func (m Meter) KVOp(p *sim.Proc, n int64) {
	m.Compute(p, time.Duration(n)*m.h.cfg.KVOpCost)
}

// Compares charges n key comparisons (sort/merge work).
func (m Meter) Compares(p *sim.Proc, n int64) {
	m.Compute(p, time.Duration(n)*m.h.cfg.CompareCost)
}

// ComparesSplit charges one data-parallel step's key comparisons, split into
// per-core shares: shares[0] on p and every other share on a helper proc of
// its own, started together and joined before it returns, so the step takes
// the largest share's time on len(shares) cores. Share i is priced at the
// cost of the running total through it less the cost through share i−1: the
// shares cost exactly what Compares charges their sum.
func (m Meter) ComparesSplit(p *sim.Proc, shares []int64) { m.ComparesAfter(p, 0, shares...) }

// ComparesAfter charges one piece of a step charged piece by piece, whose
// pieces before it made done comparisons: ComparesSplit of its shares, with
// the running total that prices them starting at done. The pieces of a step
// thus cost exactly what Compares charges all their comparisons, however each
// is split.
func (m Meter) ComparesAfter(p *sim.Proc, done int64, shares ...int64) {
	cc := m.h.cfg.CompareCost
	var (
		helpers []*sim.Proc
		own     time.Duration
	)
	total, priced := done, m.scale(time.Duration(done)*cc)
	for i, n := range shares {
		total += n
		next := m.scale(time.Duration(total) * cc)
		d := next - priced
		priced = next
		switch {
		case i == 0:
			own = d
		case d > 0:
			helpers = append(helpers, p.Env().Go(m.h.cfg.Name+"-share", func(hp *sim.Proc) { m.use(hp, d) }))
		}
	}
	if own > 0 {
		m.use(p, own)
	}
	p.Join(helpers...)
}

// BlockOp charges assembling/decoding n blocks.
func (m Meter) BlockOp(p *sim.Proc, n int64) {
	m.Compute(p, time.Duration(n)*m.h.cfg.BlockOpCost)
}

// SortCost returns the CPU duration for comparison-sorting n keys
// (n log2 n comparisons), before Speed scaling.
func (h *Host) SortCost(n int64) time.Duration {
	if n < 2 {
		return 0
	}
	log2 := 0
	for v := n; v > 1; v >>= 1 {
		log2++
	}
	return time.Duration(n*int64(log2)) * h.cfg.CompareCost
}
