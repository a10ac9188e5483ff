package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"kvcsd/internal/stats"
	"kvcsd/internal/wire"
)

// rpcStats accumulates per-opcode stage totals. Decode/queue/write stages are
// measured in real (wall-clock) time because they happen on socket
// goroutines; the service stage is measured in both real time and virtual
// device time, which is the figure comparable to the in-process benchmarks.
// The two histograms carry the full service-latency distribution on both
// clocks for quantile exposition.
type rpcStats struct {
	Count   int64
	Errs    int64
	Decode  time.Duration // frame read + payload decode, real time
	Queue   time.Duration // admission to handler start, real time
	Service time.Duration // backend execution, real time
	Virtual time.Duration // backend execution, virtual device time
	Write   time.Duration // response encode + socket write, real time

	RealHist *stats.Histogram // service latency distribution, real clock
	VirtHist *stats.Histogram // service latency distribution, virtual clock
}

// SlowOp is one over-budget operation: an op whose virtual service time
// exceeded the configured threshold, captured with its full stage breakdown.
type SlowOp struct {
	Seq         int64            `json:"seq"`
	Op          string           `json:"op"`
	QueueNs     int64            `json:"queue_ns"`
	RealNs      int64            `json:"real_ns"`
	VirtualNs   int64            `json:"virtual_ns"`
	ThresholdNs int64            `json:"threshold_ns"`
	Stages      map[string]int64 `json:"stages_ns,omitempty"`
}

// slowRingCap bounds the in-memory slow-op history served at /slowops.
const slowRingCap = 128

// metrics is the server-wide RPC counter block. It is written from socket
// goroutines and sim handler procs concurrently, so it guards itself with a
// mutex.
type metrics struct {
	mu        sync.Mutex
	perOp     [256]*rpcStats // indexed by opcode; nil until the op is seen
	accepted  int64
	shed      int64
	refused   int64 // draining refusals
	badFrames int64
	coalesced int64 // puts absorbed into coalesced bulk submissions
	batches   int64 // coalesced bulk submissions issued
	slowOps   int64 // ops over the slow-op budget
	slowRing  []SlowOp
}

func newMetrics() *metrics { return &metrics{} }

func (m *metrics) op(op wire.Op) *rpcStats {
	s := m.perOp[op]
	if s == nil {
		s = &rpcStats{
			RealHist: stats.NewHistogram(op.String() + "/real"),
			VirtHist: stats.NewHistogram(op.String() + "/virtual"),
		}
		m.perOp[op] = s
	}
	return s
}

func (m *metrics) observeDecode(op wire.Op, d time.Duration) {
	m.mu.Lock()
	m.op(op).Decode += d
	m.mu.Unlock()
}

func (m *metrics) observeService(op wire.Op, queue, service, virtual time.Duration, st wire.Status) {
	m.mu.Lock()
	s := m.op(op)
	s.Count++
	if st != wire.StatusOK {
		s.Errs++
	}
	s.Queue += queue
	s.Service += service
	s.Virtual += virtual
	real, virt := s.RealHist, s.VirtHist
	m.mu.Unlock()
	// Histograms lock themselves; record outside the metrics lock.
	real.Record(service)
	virt.Record(virtual)
}

func (m *metrics) observeWrite(op wire.Op, d time.Duration) {
	m.mu.Lock()
	m.op(op).Write += d
	m.mu.Unlock()
}

func (m *metrics) addAccepted() { m.mu.Lock(); m.accepted++; m.mu.Unlock() }
func (m *metrics) addShed()     { m.mu.Lock(); m.shed++; m.mu.Unlock() }
func (m *metrics) addRefused()  { m.mu.Lock(); m.refused++; m.mu.Unlock() }
func (m *metrics) addBadFrame() { m.mu.Lock(); m.badFrames++; m.mu.Unlock() }

func (m *metrics) addCoalesced(puts int) {
	m.mu.Lock()
	m.coalesced += int64(puts)
	m.batches++
	m.mu.Unlock()
}

// addSlowOp records one over-budget op in the bounded ring and returns it
// stamped with its sequence number.
func (m *metrics) addSlowOp(s SlowOp) SlowOp {
	m.mu.Lock()
	m.slowOps++
	s.Seq = m.slowOps
	if len(m.slowRing) == slowRingCap {
		copy(m.slowRing, m.slowRing[1:])
		m.slowRing = m.slowRing[:slowRingCap-1]
	}
	m.slowRing = append(m.slowRing, s)
	m.mu.Unlock()
	return s
}

// slowOpsSnapshot returns a copy of the slow-op ring, oldest first.
func (m *metrics) slowOpsSnapshot() []SlowOp {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]SlowOp(nil), m.slowRing...)
}

// MetricsSnapshot is a copy of the server's RPC counters at one instant. The
// per-op histograms are deep-copied, so the snapshot can be sorted and
// quantiled without racing live recording.
type MetricsSnapshot struct {
	PerOp     map[wire.Op]rpcStats
	Accepted  int64
	Shed      int64
	Refused   int64
	BadFrames int64
	Coalesced int64
	Batches   int64
	SlowOps   int64
}

func (m *metrics) snapshot() MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	sn := MetricsSnapshot{
		PerOp:     make(map[wire.Op]rpcStats),
		Accepted:  m.accepted,
		Shed:      m.shed,
		Refused:   m.refused,
		BadFrames: m.badFrames,
		Coalesced: m.coalesced,
		Batches:   m.batches,
		SlowOps:   m.slowOps,
	}
	for op, s := range m.perOp {
		if s == nil {
			continue
		}
		c := *s
		c.RealHist = s.RealHist.Clone()
		c.VirtHist = s.VirtHist.Clone()
		sn.PerOp[wire.Op(op)] = c
	}
	return sn
}

// ops lists the opcodes the snapshot has counters for, in numeric order.
func (sn MetricsSnapshot) ops() []wire.Op {
	ops := make([]wire.Op, 0, len(sn.PerOp))
	for op := range sn.PerOp {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	return ops
}

// wireReport converts the snapshot to its wire form, so remote stats clients
// receive the gateway's RPC counters alongside engine stats.
func (sn MetricsSnapshot) wireReport() *wire.RPCReport {
	r := &wire.RPCReport{
		Accepted:  sn.Accepted,
		Shed:      sn.Shed,
		Refused:   sn.Refused,
		BadFrames: sn.BadFrames,
		Coalesced: sn.Coalesced,
		Batches:   sn.Batches,
		SlowOps:   sn.SlowOps,
	}
	ops := sn.ops()
	for _, op := range ops {
		s := sn.PerOp[op]
		r.Ops = append(r.Ops, wire.RPCOpStats{
			Op:        op,
			Count:     s.Count,
			Errs:      s.Errs,
			DecodeNs:  int64(s.Decode),
			QueueNs:   int64(s.Queue),
			ServiceNs: int64(s.Service),
			VirtualNs: int64(s.Virtual),
			WriteNs:   int64(s.Write),
		})
	}
	return r
}

// Dump renders the snapshot as a per-opcode stage table plus totals.
func (sn MetricsSnapshot) Dump(w io.Writer) {
	ops := sn.ops()
	fmt.Fprintf(w, "%-20s %8s %6s %12s %12s %12s %12s %12s\n",
		"op", "count", "errs", "decode", "queue", "service", "virtual", "write")
	for _, op := range ops {
		s := sn.PerOp[op]
		fmt.Fprintf(w, "%-20s %8d %6d %12v %12v %12v %12v %12v\n",
			op, s.Count, s.Errs, s.Decode, s.Queue, s.Service, s.Virtual, s.Write)
	}
	fmt.Fprintf(w, "accepted=%d shed=%d refused=%d bad_frames=%d coalesced_puts=%d coalesced_batches=%d slow_ops=%d\n",
		sn.Accepted, sn.Shed, sn.Refused, sn.BadFrames, sn.Coalesced, sn.Batches, sn.SlowOps)
}
