package array

import (
	"bytes"
	"fmt"

	"kvcsd/internal/client"
	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
)

// --- Scatter-gather primary range queries ---------------------------------

// Scan returns pairs with lo <= key < hi in key order, capped at limit
// (0 = all). The query scatters to every partition whose key range overlaps
// [lo, hi) — in parallel, one stream per shard — and gathers the per-shard
// sorted streams with a k-way merge, so the caller sees one ordered stream
// regardless of how the keyspace is sharded.
func (k *Keyspace) Scan(p *sim.Proc, lo, hi []byte, limit int) ([]nvme.KVPair, error) {
	parts := k.overlapping(lo, hi)
	streams, err := k.scatter(p, parts, func(q *sim.Proc, h *client.Keyspace) ([]nvme.KVPair, error) {
		return h.Scan(q, lo, hi, limit)
	})
	if err != nil {
		return nil, err
	}
	return mergeStreams(streams, limit, func(a, b nvme.KVPair) bool {
		return bytes.Compare(a.Key, b.Key) < 0
	}), nil
}

// overlapping returns the partitions whose prefix range can contain keys in
// [lo, hi), in partition (key) order. The prefix test is conservative for
// truncated bounds: an extra shard only returns an empty stream.
func (k *Keyspace) overlapping(lo, hi []byte) []*partition {
	if !k.split {
		return k.parts
	}
	loPfx := uint64(0)
	if len(lo) > 0 {
		loPfx = keyPrefix(lo)
	}
	hiPfx := ^uint64(0)
	if len(hi) > 0 {
		hiPfx = keyPrefix(hi)
	}
	out := make([]*partition, 0, len(k.parts))
	for _, pt := range k.parts {
		if pt.hi >= loPfx && pt.lo <= hiPfx {
			out = append(out, pt)
		}
	}
	return out
}

// scatter runs fn against every listed partition concurrently (each with
// replica failover) and returns the per-partition result streams in
// partition order. Read order is drawn in the parent before spawning so the
// round-robin cursor advances deterministically.
func (k *Keyspace) scatter(p *sim.Proc, parts []*partition, fn func(q *sim.Proc, h *client.Keyspace) ([]nvme.KVPair, error)) ([][]nvme.KVPair, error) {
	streams := make([][]nvme.KVPair, len(parts))
	errs := make([]error, len(parts))
	run := func(q *sim.Proc, i int) {
		_, err := k.readWithFailover(q, parts[i], func(q *sim.Proc, h *client.Keyspace) error {
			pairs, err := fn(q, h)
			if err != nil {
				return err
			}
			streams[i] = pairs
			return nil
		})
		errs[i] = err
	}
	if len(parts) == 1 {
		run(p, 0)
	} else {
		procs := make([]*sim.Proc, len(parts))
		for i := range parts {
			i := i
			procs[i] = k.a.env.Go(fmt.Sprintf("scatter-%s", parts[i].name), func(q *sim.Proc) {
				run(q, i)
			})
		}
		p.Join(procs...)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return streams, nil
}

// mergeStreams k-way merges sorted streams into one sorted stream, capped at
// limit (0 = all). Ties break toward the lower stream index, which is
// partition order — deterministic by construction.
func mergeStreams(streams [][]nvme.KVPair, limit int, less func(a, b nvme.KVPair) bool) []nvme.KVPair {
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	if limit > 0 && limit < total {
		total = limit
	}
	out := make([]nvme.KVPair, 0, total)
	cursors := make([]int, len(streams))
	for len(out) < total {
		best := -1
		for i, s := range streams {
			if cursors[i] >= len(s) {
				continue
			}
			if best == -1 || less(s[cursors[i]], streams[best][cursors[best]]) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		out = append(out, streams[best][cursors[best]])
		cursors[best]++
	}
	return out
}

// --- Secondary indexes across shards --------------------------------------

// BuildSecondaryIndex declares and starts building a secondary index on
// every replica of every shard. The spec is remembered so scatter-gather
// secondary queries can re-derive each result's secondary key for the merge.
func (k *Keyspace) BuildSecondaryIndex(p *sim.Proc, spec client.IndexSpec) error {
	k.rememberSpec(spec)
	return k.writeEach(p, func(q *sim.Proc, h *client.Keyspace) error { return h.BuildSecondaryIndex(q, spec) })
}

// IndexBuilt polls every shard once and reports whether the named index is
// ready on all healthy replicas — the non-blocking counterpart of
// WaitIndexBuilt for status RPCs.
func (k *Keyspace) IndexBuilt(p *sim.Proc, name string) (bool, error) {
	all := true
	err := k.writeEach(p, func(q *sim.Proc, h *client.Keyspace) error {
		done, err := h.IndexBuilt(q, name)
		if err == nil && !done {
			all = false
		}
		return err
	})
	return all && err == nil, err
}

// WaitIndexBuilt waits until the named index is ready on the healthy
// replicas of every shard. A replica that errors retryably is tolerated as
// long as one copy per shard finishes — reads fail over past the laggard.
func (k *Keyspace) WaitIndexBuilt(p *sim.Proc, name string) error {
	return k.writeEach(p, func(q *sim.Proc, h *client.Keyspace) error { return h.WaitIndexBuilt(q, name) })
}

// rememberSpec records (or replaces) a declared index spec.
func (k *Keyspace) rememberSpec(spec client.IndexSpec) {
	for i, s := range k.specs {
		if s.Name == spec.Name {
			k.specs[i] = spec
			return
		}
	}
	k.specs = append(k.specs, spec)
}

// specFor returns the declared spec for an index name.
func (k *Keyspace) specFor(index string) (client.IndexSpec, bool) {
	for _, s := range k.specs {
		if s.Name == index {
			return s, true
		}
	}
	return client.IndexSpec{}, false
}

// secondaryKey re-derives a result pair's normalized secondary key from its
// value, exactly as the device-side extractor does, so shard streams ordered
// by secondary key can be merged host-side.
func secondaryKey(spec client.IndexSpec, pair nvme.KVPair) []byte {
	if spec.Offset < 0 || spec.Offset > len(pair.Value)-spec.Length {
		return nil
	}
	norm, err := spec.Type.Normalize(pair.Value[spec.Offset : spec.Offset+spec.Length])
	if err != nil {
		return nil
	}
	return norm
}

// QuerySecondaryRange returns pairs whose secondary key is in [lo, hi),
// ordered by (secondary key, primary key). A secondary index does not align
// with the primary key ranges, so the query scatters to every shard and
// merges by the re-derived secondary key.
func (k *Keyspace) QuerySecondaryRange(p *sim.Proc, index string, lo, hi []byte, limit int) ([]nvme.KVPair, error) {
	spec, ok := k.specFor(index)
	if !ok && len(k.parts) > 1 {
		return nil, fmt.Errorf("array: secondary index %q not declared through this router", index)
	}
	streams, err := k.scatter(p, k.parts, func(q *sim.Proc, h *client.Keyspace) ([]nvme.KVPair, error) {
		return h.QuerySecondaryRange(q, index, lo, hi, limit)
	})
	if err != nil {
		return nil, err
	}
	if len(streams) == 1 {
		return capPairs(streams[0], limit), nil
	}
	return mergeStreams(streams, limit, func(a, b nvme.KVPair) bool {
		sa, sb := secondaryKey(spec, a), secondaryKey(spec, b)
		if c := bytes.Compare(sa, sb); c != 0 {
			return c < 0
		}
		return bytes.Compare(a.Key, b.Key) < 0
	}), nil
}

// QuerySecondaryPoint returns pairs whose secondary key equals key, ordered
// by primary key across shards.
func (k *Keyspace) QuerySecondaryPoint(p *sim.Proc, index string, key []byte, limit int) ([]nvme.KVPair, error) {
	streams, err := k.scatter(p, k.parts, func(q *sim.Proc, h *client.Keyspace) ([]nvme.KVPair, error) {
		return h.QuerySecondaryPoint(q, index, key, limit)
	})
	if err != nil {
		return nil, err
	}
	if len(streams) == 1 {
		return capPairs(streams[0], limit), nil
	}
	return mergeStreams(streams, limit, func(a, b nvme.KVPair) bool {
		return bytes.Compare(a.Key, b.Key) < 0
	}), nil
}

// capPairs applies a result limit to a single already-sorted stream.
func capPairs(pairs []nvme.KVPair, limit int) []nvme.KVPair {
	if limit > 0 && len(pairs) > limit {
		return pairs[:limit]
	}
	return pairs
}
