package wire

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"kvcsd/internal/compaction"
	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
)

var updateFrames = flag.Bool("update-frames", false, "rewrite testdata/frames.golden (only when wire bytes are meant to change)")

// goldenRequest builds the request the frame golden records for op: every
// field the verb can carry is set, so a codec change to any field shows.
func goldenRequest(op Op) *Request {
	r := &Request{
		ID:       0x0102030405060708 + uint64(op),
		Op:       op,
		Keyspace: "particles",
		Trace:    TraceContext{TraceID: 0xABCDEF00 + uint64(op), SpanID: 77},
		Session:  0x5E5510 + uint64(op),
		Lane:     LaneOverride(Lane(op % NumLanes)),
		Key:      []byte{0, 1, 2, 3, byte(op)},
		Limit:    uint32(op) * 3,
		Device:   uint32(op % 4),
	}
	switch op {
	case OpPut, OpCompactPolicy:
		r.Value = bytes.Repeat([]byte{byte(op)}, 40)
	case OpBulkPut, OpMigrate:
		for i := 0; i < 5; i++ {
			r.Pairs = append(r.Pairs, nvme.KVPair{
				Key:       []byte{byte(i), byte(op)},
				Value:     bytes.Repeat([]byte{byte(i)}, i*7),
				Tombstone: i == 3,
			})
		}
	case OpScan, OpSecondaryRange:
		r.Low, r.High = []byte{0x00, 0x10}, []byte{0xFF}
		r.Index = nvme.SecondaryIndexSpec{Name: "energy"}
	case OpSecondaryPoint, OpIndexStatus:
		r.Index = nvme.SecondaryIndexSpec{Name: "energy"}
	case OpBuildIndex:
		r.Index = nvme.SecondaryIndexSpec{Name: "energy", Offset: 24, Length: 4, Type: 2}
	case OpCompactWithIndexes:
		r.Indexes = []nvme.SecondaryIndexSpec{{Name: "x", Offset: 0, Length: 4, Type: 1}, {Name: "y", Offset: 4, Length: 8, Type: 3}}
	case OpCreateKeyspace:
		r.Parts = 8
	case OpHello:
		r.Hello = &HelloMsg{Tenant: "analytics", Class: LaneOverride(LaneBulk), Resume: 0xFEEDFACE}
	case OpCorrupt:
		r.Extent = &nvme.ExtentAddr{Kind: 2, Index: "energy", Granule: -3, Bits: 5}
	}
	switch op {
	case OpRequestVote, OpAppendEntries, OpMigrate:
		r.Replica = &ReplicaMsg{
			Shard: 3, From: 1, Term: 9, LastLogIndex: 40, LastLogTerm: 8,
			PrevIndex: 39, PrevTerm: 8, Commit: 38, Round: 5,
			Entries: []ReplicaEntry{
				{Term: 9, Index: 40, Kind: EntryPut, Client: 7, Seq: 11, Key: []byte("k40"), Value: []byte("v40")},
				{Term: 9, Index: 41, Kind: EntryDelete, Client: 7, Seq: 12, Key: []byte("k41")},
				{Term: 9, Index: 42, Kind: EntryConfig, Members: []uint32{0, 2, 3}, Epoch: 4},
			},
			SnapIndex: 30, SnapTerm: 7, Epoch: 4, Done: op == OpMigrate,
			Sessions: []ReplicaSession{{Client: 7, Seq: 12}}, Stream: 99,
		}
	}
	return r
}

// goldenResponse builds the response the frame golden records for op.
func goldenResponse(op Op) *Response {
	r := &Response{
		ID:      0x0807060504030201 + uint64(op),
		Op:      op,
		Trace:   TraceContext{TraceID: 0xABCDEF00 + uint64(op), SpanID: 78},
		Session: 0x5E5510 + uint64(op),
		Status:  StatusOK,
	}
	switch op {
	case OpGet:
		r.Value, r.Exists = bytes.Repeat([]byte{0xA5}, 128), true
	case OpExist:
		r.Exists = true
	case OpScan, OpSecondaryRange, OpSecondaryPoint:
		for i := 0; i < 5; i++ {
			r.Pairs = append(r.Pairs, nvme.KVPair{Key: []byte{byte(i), byte(op)}, Value: bytes.Repeat([]byte{byte(i)}, 16)})
		}
	case OpCompactStatus:
		r.Done = true
		r.Progress = &compaction.Progress{}
	case OpIndexStatus:
		r.Done = true
	case OpKeyspaceInfo:
		r.HasInfo = true
		r.Info = nvme.KeyspaceInfo{
			Name: "particles", State: "COMPACTED", Pairs: 1234, Bytes: 99999,
			MinKey: []byte{0}, MaxKey: []byte{0xFE}, Secondary: []string{"temp", "energy"},
			ZoneCount: 7, CompactDur: sim.Time(123456789),
		}
	case OpStats:
		r.Stats = &StatsReport{
			Devices: 3, Commands: 10, MediaRead: 20, MediaWrite: 30, HostToDevice: 40,
			DeviceToHost: 50, AppWrite: 60, VirtualNanos: 70,
			Health: []DeviceHealth{{ID: 0}, {ID: 1, Down: true, Failures: 5}},
			RPC: &RPCReport{
				Ops:      []RPCOpStats{{Op: OpPut, Count: 10, Errs: 1, DecodeNs: 100, QueueNs: 200, ServiceNs: 300, VirtualNs: 400, WriteNs: 500}},
				Accepted: 30, Shed: 2, Refused: 1, Coalesced: 5, Batches: 8, SlowOps: 3,
			},
			Ring:        []RingEntry{{Keyspace: "particles", Shard: 1, Epoch: 4, Leader: 2, Members: []uint32{2, 0, 3}}},
			Tenants:     []TenantStats{{Tenant: "analytics", Weight: 8, Sessions: 2, Lanes: []LaneStats{{Lane: 0, Admitted: 5, Completed: 4, Queued: 1}}}},
			Compactions: []compaction.KeyspaceProgress{{Keyspace: "particles"}},
		}
	case OpPowerCut, OpRecover, OpCorrupt:
		r.Report = "report for " + op.String()
	case OpScrub:
		r.Report, r.Value = "scrubbed", []byte{1, 2, 3, 4}
	case OpCompactPolicy:
		r.Value = []byte{9, 8, 7}
	case OpMigrateCold:
		r.Moved = -12
	case OpRequestVote, OpAppendEntries, OpMigrate:
		r.Replica = &ReplicaReply{Shard: 3, From: 2, Term: 9, Success: true, MatchIndex: 42, Round: 5}
	case OpHello:
		r.Hello = &HelloReply{Token: 0xFEEDFACE, Resumed: true, Replayed: 3}
	case OpDeleteKeyspace:
		r.Status, r.Err = StatusNotFound, "no such keyspace"
	case OpSync:
		r.Status, r.Err = StatusOverloaded, "admission refused: tenant-cap"
	}
	return r
}

// TestFrameBytesGolden pins the bytes on the wire: for every verb, the request
// frame, the response frame, and the response streamed in chunks of two pairs
// must be exactly what testdata/frames.golden holds. The golden was recorded by
// running this fixture through the two-buffer encoder (EncodeRequest or
// EncodeResponse, then AppendFrameFull) of the commit before the in-place
// encoder; regenerate it only when wire bytes are meant to change.
func TestFrameBytesGolden(t *testing.T) {
	var sb strings.Builder
	for _, op := range Ops() {
		req, err := AppendRequestFrame(nil, goldenRequest(op))
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		fmt.Fprintf(&sb, "%s request %s\n", op, hex.EncodeToString(req))
		fmt.Fprintf(&sb, "%s response %s\n", op, hex.EncodeToString(AppendResponseFrames(nil, goldenResponse(op), 0)))
		fmt.Fprintf(&sb, "%s chunked %s\n", op, hex.EncodeToString(AppendResponseFrames(nil, goldenResponse(op), 2)))
	}
	// The wait-flagged status requests come last, so the lines above keep the
	// bytes they were recorded with.
	for _, op := range []Op{OpCompactStatus, OpIndexStatus} {
		r := goldenRequest(op)
		r.Wait = true
		req, err := AppendRequestFrame(nil, r)
		if err != nil {
			t.Fatalf("%s wait: %v", op, err)
		}
		fmt.Fprintf(&sb, "%s wait-request %s\n", op, hex.EncodeToString(req))
	}
	const path = "testdata/frames.golden"
	if *updateFrames {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(sb.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d golden lines, encoder produced %d", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("frame bytes changed:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}
