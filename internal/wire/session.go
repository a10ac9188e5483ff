package wire

import (
	"encoding/binary"

	"kvcsd/internal/codec"
)

// Session handshake bodies (PR 8). A client opens a session by sending
// OpHello as the first frame on a connection: the request names the tenant
// the connection bills to, an optional priority class, and an optional resume
// token from an earlier session. The reply carries the session token the
// client must stamp into the header of every subsequent frame, and — when
// resuming — how many backlogged response frames the server will replay
// verbatim immediately after the reply.

// HelloMsg is the session handshake request body.
type HelloMsg struct {
	// Tenant names the tenant this session bills to. Empty is rejected; the
	// anonymous tenant is reached by not opening a session at all.
	Tenant string
	// Class is an optional session-wide lane override (0 = none; otherwise
	// uint8(lane)+1 — see LaneOverride). A per-frame override still wins.
	Class uint8
	// Resume is a previous session token to resume (0 = open a fresh
	// session). Resuming re-attaches the connection to the session's queues
	// and replays its response backlog.
	Resume uint64
}

// HelloReply is the session handshake response body.
type HelloReply struct {
	// Token is the session token to carry on every subsequent frame.
	Token uint64
	// Resumed reports whether an existing session was resumed (false when
	// the resume token was unknown and a fresh session was opened instead).
	Resumed bool
	// Replayed is the number of backlogged response frames the server
	// replays, byte-identical and in original order, directly after this
	// reply.
	Replayed uint32
}

func appendHelloMsg(b []byte, m *HelloMsg) []byte {
	b = codec.AppendBytes(b, m.Tenant)
	b = append(b, m.Class)
	return binary.AppendUvarint(b, m.Resume)
}

func decodeHelloMsg(d *decoder) *HelloMsg {
	return &HelloMsg{
		Tenant: d.str(),
		Class:  d.U8(),
		Resume: d.Uvarint(),
	}
}

func appendHelloReply(b []byte, m *HelloReply) []byte {
	b = binary.AppendUvarint(b, m.Token)
	b = codec.AppendBool(b, m.Resumed)
	return binary.AppendUvarint(b, uint64(m.Replayed))
}

func decodeHelloReply(d *decoder) *HelloReply {
	return &HelloReply{
		Token:    d.Uvarint(),
		Resumed:  d.Bool(),
		Replayed: d.u32(),
	}
}

// LaneStats is one tenant's accounting on one service lane.
type LaneStats struct {
	Lane      uint8
	Admitted  int64 // requests accepted into the fair scheduler
	Completed int64 // responses written (or spilled to a backlog)
	Shed      int64 // requests refused on this lane, any cause
	Queued    int64 // currently parked in the scheduler
}

// TenantStats is one tenant's QoS accounting in a stats report.
type TenantStats struct {
	Tenant       string
	Weight       int64
	Sessions     int64 // open sessions
	BacklogBytes int64 // persistent per-session backlog, summed
	// Shed causes, summed across lanes: per-session queue cap, per-tenant
	// lane cap, global admission cap, backlog overflow.
	ShedSession int64
	ShedTenant  int64
	ShedGlobal  int64
	ShedBacklog int64
	Lanes       []LaneStats
}

func appendTenants(b []byte, ts []TenantStats) []byte {
	b = binary.AppendUvarint(b, uint64(len(ts)))
	for i := range ts {
		t := &ts[i]
		b = codec.AppendBytes(b, t.Tenant)
		b = binary.AppendVarint(b, t.Weight)
		b = binary.AppendVarint(b, t.Sessions)
		b = binary.AppendVarint(b, t.BacklogBytes)
		b = binary.AppendVarint(b, t.ShedSession)
		b = binary.AppendVarint(b, t.ShedTenant)
		b = binary.AppendVarint(b, t.ShedGlobal)
		b = binary.AppendVarint(b, t.ShedBacklog)
		b = binary.AppendUvarint(b, uint64(len(t.Lanes)))
		for _, l := range t.Lanes {
			b = append(b, l.Lane)
			b = binary.AppendVarint(b, l.Admitted)
			b = binary.AppendVarint(b, l.Completed)
			b = binary.AppendVarint(b, l.Shed)
			b = binary.AppendVarint(b, l.Queued)
		}
	}
	return b
}

func decodeTenants(d *decoder) []TenantStats {
	n := d.Count(9)
	if n == 0 {
		return nil
	}
	ts := make([]TenantStats, 0, n)
	for range n {
		t := TenantStats{
			Tenant:       d.str(),
			Weight:       d.Varint(),
			Sessions:     d.Varint(),
			BacklogBytes: d.Varint(),
			ShedSession:  d.Varint(),
			ShedTenant:   d.Varint(),
			ShedGlobal:   d.Varint(),
			ShedBacklog:  d.Varint(),
		}
		for range d.Count(5) {
			t.Lanes = append(t.Lanes, LaneStats{
				Lane:      d.U8(),
				Admitted:  d.Varint(),
				Completed: d.Varint(),
				Shed:      d.Varint(),
				Queued:    d.Varint(),
			})
		}
		ts = append(ts, t)
	}
	return ts
}
