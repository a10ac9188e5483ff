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
	var buf bytes.Buffer
	if err := WriteResponse(&buf, want, 0); err != nil {
		t.Fatalf("WriteResponse: %v", err)
	}
	h, payload, err := ReadFrame(&buf)
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
	var buf bytes.Buffer
	if err := WriteResponse(&buf, want, 0); err != nil {
		t.Fatalf("WriteResponse: %v", err)
	}
	h, payload, err := ReadFrame(&buf)
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
