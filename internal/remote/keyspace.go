package remote

import (
	"errors"
	"fmt"
	"sync"

	"kvcsd/internal/client"
	"kvcsd/internal/compaction"
	"kvcsd/internal/nvme"
	"kvcsd/internal/wire"
)

// Keyspace is a handle to a named keyspace on the server, mirroring the
// in-process client.Keyspace surface. Unlike the in-process handle it is
// safe for concurrent use; bulk staging is guarded by a mutex.
type Keyspace struct {
	c    *Client
	name string

	mu        sync.Mutex
	bulkPairs []nvme.KVPair
	bulkBytes int
}

// CreateKeyspace creates a keyspace and returns a handle to it. Against an
// array backend the keyspace is pinned to one ring position.
func (c *Client) CreateKeyspace(name string) (*Keyspace, error) {
	return c.CreateRangeSharded(name, 0)
}

// CreateRangeSharded creates a range-sharded keyspace with parts partitions
// (meaningful against an array backend; a single-device server ignores the
// partition count).
func (c *Client) CreateRangeSharded(name string, parts int) (*Keyspace, error) {
	_, err := c.call(&wire.Request{Op: wire.OpCreateKeyspace, Keyspace: name, Parts: uint32(parts)})
	if err != nil {
		return nil, err
	}
	return &Keyspace{c: c, name: name}, nil
}

// OpenKeyspace opens an existing keyspace.
func (c *Client) OpenKeyspace(name string) (*Keyspace, error) {
	_, err := c.call(&wire.Request{Op: wire.OpOpenKeyspace, Keyspace: name})
	if err != nil {
		return nil, err
	}
	return &Keyspace{c: c, name: name}, nil
}

// DeleteKeyspace removes a keyspace and all its pairs.
func (c *Client) DeleteKeyspace(name string) error {
	_, err := c.call(&wire.Request{Op: wire.OpDeleteKeyspace, Keyspace: name})
	return err
}

// Name returns the keyspace name.
func (k *Keyspace) Name() string { return k.name }

// Put stores one pair.
func (k *Keyspace) Put(key, value []byte) error {
	_, err := k.c.call(&wire.Request{Op: wire.OpPut, Keyspace: k.name, Key: key, Value: value})
	return err
}

// Delete removes one pair.
func (k *Keyspace) Delete(key []byte) error {
	_, err := k.c.call(&wire.Request{Op: wire.OpDelete, Keyspace: k.name, Key: key})
	return err
}

// BulkPut stages a pair into the bulk message buffer, flushing automatically
// once the staged bytes reach the client library's bulk message size.
func (k *Keyspace) BulkPut(key, value []byte) error {
	return k.stage(nvme.KVPair{Key: key, Value: value})
}

// BulkDelete stages a tombstone into the bulk message buffer.
func (k *Keyspace) BulkDelete(key []byte) error {
	return k.stage(nvme.KVPair{Key: key, Tombstone: true})
}

func (k *Keyspace) stage(kv nvme.KVPair) error {
	k.mu.Lock()
	k.bulkPairs = append(k.bulkPairs, kv)
	k.bulkBytes += len(kv.Key) + len(kv.Value)
	var flush []nvme.KVPair
	if k.bulkBytes >= client.BulkMessageBytes {
		flush = k.bulkPairs
		k.bulkPairs = nil
		k.bulkBytes = 0
	}
	k.mu.Unlock()
	if flush == nil {
		return nil
	}
	return k.sendBulk(flush)
}

// Flush sends any staged bulk pairs as one message.
func (k *Keyspace) Flush() error {
	k.mu.Lock()
	flush := k.bulkPairs
	k.bulkPairs = nil
	k.bulkBytes = 0
	k.mu.Unlock()
	if len(flush) == 0 {
		return nil
	}
	return k.sendBulk(flush)
}

func (k *Keyspace) sendBulk(pairs []nvme.KVPair) error {
	_, err := k.c.call(&wire.Request{Op: wire.OpBulkPut, Keyspace: k.name, Pairs: pairs})
	return err
}

// Sync flushes staged pairs and forces the device WAL to media.
func (k *Keyspace) Sync() error {
	if err := k.Flush(); err != nil {
		return err
	}
	_, err := k.c.call(&wire.Request{Op: wire.OpSync, Keyspace: k.name})
	return err
}

// Get retrieves a value; ok is false when the key does not exist.
func (k *Keyspace) Get(key []byte) ([]byte, bool, error) {
	resp, err := k.c.call(&wire.Request{Op: wire.OpGet, Keyspace: k.name, Key: key})
	if err != nil {
		if errors.Is(err, client.ErrNotFound) {
			return nil, false, nil
		}
		return nil, false, err
	}
	return resp.Value, true, nil
}

// Exist reports whether a key exists.
func (k *Keyspace) Exist(key []byte) (bool, error) {
	resp, err := k.c.call(&wire.Request{Op: wire.OpExist, Keyspace: k.name, Key: key})
	if err != nil {
		return false, err
	}
	return resp.Exists, nil
}

// Scan returns pairs with lo <= key < hi (nil bounds are open); limit 0
// means unlimited. Large results arrive as streamed frames reassembled
// transparently.
func (k *Keyspace) Scan(lo, hi []byte, limit int) ([]nvme.KVPair, error) {
	resp, err := k.c.call(&wire.Request{Op: wire.OpScan, Keyspace: k.name, Low: lo, High: hi, Limit: uint32(limit)})
	if err != nil {
		return nil, err
	}
	return resp.Pairs, nil
}

// QuerySecondaryRange queries a secondary index by encoded-secondary-key
// range.
func (k *Keyspace) QuerySecondaryRange(index string, lo, hi []byte, limit int) ([]nvme.KVPair, error) {
	resp, err := k.c.call(&wire.Request{
		Op: wire.OpSecondaryRange, Keyspace: k.name,
		Index: nvme.SecondaryIndexSpec{Name: index}, Low: lo, High: hi, Limit: uint32(limit),
	})
	if err != nil {
		return nil, err
	}
	return resp.Pairs, nil
}

// QuerySecondaryPoint queries a secondary index for one exact secondary key.
func (k *Keyspace) QuerySecondaryPoint(index string, key []byte, limit int) ([]nvme.KVPair, error) {
	resp, err := k.c.call(&wire.Request{
		Op: wire.OpSecondaryPoint, Keyspace: k.name,
		Index: nvme.SecondaryIndexSpec{Name: index}, Key: key, Limit: uint32(limit),
	})
	if err != nil {
		return nil, err
	}
	return resp.Pairs, nil
}

// Compact kicks an asynchronous compaction.
func (k *Keyspace) Compact() error {
	_, err := k.c.call(&wire.Request{Op: wire.OpCompact, Keyspace: k.name})
	return err
}

// CompactWithIndexes kicks a compaction that also builds the given
// secondary indexes in the same pass.
func (k *Keyspace) CompactWithIndexes(specs []client.IndexSpec) error {
	_, err := k.c.call(&wire.Request{Op: wire.OpCompactWithIndexes, Keyspace: k.name, Indexes: specs})
	return err
}

// CompactDone asks once whether the last compaction has finished.
func (k *Keyspace) CompactDone() (bool, error) {
	resp, err := k.c.call(&wire.Request{Op: wire.OpCompactStatus, Keyspace: k.name})
	if err != nil {
		return false, err
	}
	return resp.Done, nil
}

// CompactionProgress returns the keyspace's live compaction-pipeline
// progress alongside the done flag (an array server aggregates shards into
// one row).
func (k *Keyspace) CompactionProgress() (compaction.Progress, bool, error) {
	resp, err := k.c.call(&wire.Request{Op: wire.OpCompactStatus, Keyspace: k.name})
	if err != nil {
		return compaction.Progress{}, false, err
	}
	if resp.Progress == nil {
		return compaction.Progress{}, resp.Done, fmt.Errorf("remote: server reported no compaction progress")
	}
	return *resp.Progress, resp.Done, nil
}

// WaitCompacted blocks until compaction completes: one CompactStatus request
// with the wait flag, which the server answers when the compaction job ends.
func (k *Keyspace) WaitCompacted() error {
	return k.wait(&wire.Request{Op: wire.OpCompactStatus, Keyspace: k.name, Wait: true})
}

// BuildSecondaryIndex declares and starts building a secondary index.
func (k *Keyspace) BuildSecondaryIndex(spec client.IndexSpec) error {
	_, err := k.c.call(&wire.Request{Op: wire.OpBuildIndex, Keyspace: k.name, Index: spec})
	return err
}

// IndexBuilt asks once whether the named index is ready.
func (k *Keyspace) IndexBuilt(name string) (bool, error) {
	resp, err := k.c.call(&wire.Request{Op: wire.OpIndexStatus, Keyspace: k.name, Index: nvme.SecondaryIndexSpec{Name: name}})
	if err != nil {
		return false, err
	}
	return resp.Done, nil
}

// WaitIndexBuilt blocks until the named index is ready, with one IndexStatus
// request carrying the wait flag. An index that was never requested fails
// with a StatusNotFound error.
func (k *Keyspace) WaitIndexBuilt(name string) error {
	return k.wait(&wire.Request{Op: wire.OpIndexStatus, Keyspace: k.name, Index: nvme.SecondaryIndexSpec{Name: name}, Wait: true})
}

// wait sends a wait-flagged status request until it reports done. The server
// answers a wait only when its job has ended, so one request is the rule;
// should the job end without finishing what was asked, the request goes
// again.
func (k *Keyspace) wait(req *wire.Request) error {
	for {
		resp, err := k.c.call(req)
		if err != nil || resp.Done {
			return err
		}
	}
}

// Info returns the keyspace's current state and statistics.
func (k *Keyspace) Info() (nvme.KeyspaceInfo, error) {
	resp, err := k.c.call(&wire.Request{Op: wire.OpKeyspaceInfo, Keyspace: k.name})
	if err != nil {
		return nvme.KeyspaceInfo{}, err
	}
	return resp.Info, nil
}
