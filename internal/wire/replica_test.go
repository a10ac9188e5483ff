package wire

import (
	"bytes"
	"reflect"
	"testing"

	"kvcsd/internal/nvme"
)

func sampleReplicaRequest() *Request {
	return &Request{
		ID: 42,
		Op: OpAppendEntries,
		Pairs: []nvme.KVPair{
			{Key: []byte("snap-k"), Value: []byte("snap-v")},
		},
		Replica: &ReplicaMsg{
			Shard:        3,
			From:         1,
			Term:         7,
			LastLogIndex: 12,
			LastLogTerm:  6,
			PrevIndex:    11,
			PrevTerm:     6,
			Commit:       10,
			Round:        5,
			Entries: []ReplicaEntry{
				{Term: 7, Index: 12, Kind: EntryPut, Client: 9, Seq: 4,
					Key: []byte("k1"), Value: []byte("v1")},
				{Term: 7, Index: 13, Kind: EntryConfig,
					Members: []uint32{0, 1, 2}, Epoch: 3},
				{Term: 7, Index: 14, Kind: EntryNop},
			},
			SnapIndex: 9,
			SnapTerm:  5,
			Epoch:     3,
			Done:      true,
			Sessions:  []ReplicaSession{{Client: 9, Seq: 4}, {Client: 11, Seq: 1}},
			Stream:    77,
		},
	}
}

func TestReplicaRequestRoundTrip(t *testing.T) {
	want := sampleReplicaRequest()
	var buf bytes.Buffer
	if err := WriteRequest(&buf, want); err != nil {
		t.Fatalf("WriteRequest: %v", err)
	}
	h, payload, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	got, err := DecodeRequest(h, payload)
	if err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	if !reflect.DeepEqual(plainRequest(got), want) {
		t.Fatalf("replica request round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestReplicaResponseRoundTrip(t *testing.T) {
	want := &Response{
		ID:     42,
		Op:     OpRequestVote,
		Status: StatusOK,
		Replica: &ReplicaReply{
			Shard:      3,
			From:       2,
			Term:       7,
			Success:    true,
			MatchIndex: 14,
			Round:      5,
		},
	}
	buf := bytes.NewBuffer(AppendResponseFrames(nil, want, 0))
	h, payload, err := ReadFrame(buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	got, err := DecodeResponse(h, payload)
	if err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	if !reflect.DeepEqual(plainResponse(got), want) {
		t.Fatalf("replica response round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestRingTableRoundTrip(t *testing.T) {
	want := &Response{
		ID:     7,
		Op:     OpStats,
		Status: StatusOK,
		Stats: &StatsReport{
			Devices: 4,
			Ring: []RingEntry{
				{Keyspace: "atoms", Shard: 0, Epoch: 3, Leader: 2, Members: []uint32{2, 0, 1}},
				{Keyspace: "atoms", Shard: 1, Epoch: 3, Leader: 1, Members: []uint32{1, 3, 0}},
				{Keyspace: "plain", Shard: 0, Epoch: 1, Leader: -1, Members: []uint32{0, 2}},
			},
		},
	}
	buf := bytes.NewBuffer(AppendResponseFrames(nil, want, 0))
	h, payload, err := ReadFrame(buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	got, err := DecodeResponse(h, payload)
	if err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	if !reflect.DeepEqual(plainResponse(got), want) {
		t.Fatalf("ring table round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// A DecodeScratch decodes what DecodeRequest and DecodeResponse decode, frame
// after frame into the same structs: nothing of a larger frame shows through
// a smaller one that follows it, a malformed payload is refused as it is
// there, and in steady state a consensus frame allocates nothing.
func TestDecodeScratchMatchesDecode(t *testing.T) {
	big := sampleReplicaRequest()
	big.Pairs = nil
	small := &Request{ID: 43, Op: OpAppendEntries,
		Replica: &ReplicaMsg{Shard: 1, From: 2, Term: 8, PrevIndex: 14, PrevTerm: 7, Commit: 14, Round: 6}}
	reply := &Response{ID: 44, Op: OpAppendEntries, Status: StatusOK,
		Replica: &ReplicaReply{Shard: 1, From: 0, Term: 8, Success: true, MatchIndex: 14, Round: 6}}

	var sc DecodeScratch
	for _, want := range []*Request{big, small, big, small} {
		frame, err := AppendRequestFrame(nil, want)
		if err != nil {
			t.Fatalf("AppendRequestFrame: %v", err)
		}
		h, payload, err := ParseFrame(frame)
		if err != nil {
			t.Fatalf("ParseFrame: %v", err)
		}
		plain, err := DecodeRequest(h, payload)
		if err != nil {
			t.Fatalf("DecodeRequest: %v", err)
		}
		got, err := sc.DecodeRequest(h, payload)
		if err != nil {
			t.Fatalf("scratch DecodeRequest: %v", err)
		}
		// An empty list decodes as nil there and as the kept, empty array here.
		if len(got.Replica.Entries) == 0 {
			got.Replica.Entries = nil
		}
		if len(got.Replica.Sessions) == 0 {
			got.Replica.Sessions = nil
		}
		if !reflect.DeepEqual(got, plain) {
			t.Fatalf("scratch decode differs:\n got %+v %+v\nwant %+v %+v", got, got.Replica, plain, plain.Replica)
		}
		if _, err := sc.DecodeRequest(h, payload[:len(payload)-3]); err == nil {
			t.Fatalf("scratch decode accepted a truncated payload")
		}
	}

	frame := AppendResponseFrames(nil, reply, 0)
	h, payload, err := ParseFrame(frame)
	if err != nil {
		t.Fatalf("ParseFrame: %v", err)
	}
	got, err := sc.DecodeResponse(h, payload)
	if err != nil || !reflect.DeepEqual(got, reply) {
		t.Fatalf("scratch DecodeResponse = %+v, %v; want %+v", got, err, reply)
	}

	reqFrame, _ := AppendRequestFrame(nil, &Request{ID: 45, Op: OpAppendEntries, Replica: &ReplicaMsg{
		Term: 8, Entries: []ReplicaEntry{{Term: 8, Index: 15, Kind: EntryPut, Key: []byte("k"), Value: []byte("v")}}}})
	allocs := testing.AllocsPerRun(100, func() {
		h, payload, _ := ParseFrame(reqFrame)
		if r, err := sc.DecodeRequest(h, payload); err != nil || len(r.Replica.Entries) != 1 {
			t.Fatalf("decode: %v", err)
		}
		h, payload, _ = ParseFrame(frame)
		if _, err := sc.DecodeResponse(h, payload); err != nil {
			t.Fatalf("decode: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("scratch decode of an AppendEntries and its reply: %.1f allocs, want 0", allocs)
	}
}
