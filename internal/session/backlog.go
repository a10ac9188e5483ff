// Package session is the million-session front end: multi-tenant sessions,
// deficit-weighted-fair QoS admission, and per-session response backlogs for
// the server gateway.
//
// The layer sits between the socket goroutines and the virtual-time
// simulation. Every connection may open a session (wire.OpHello) naming the
// tenant it bills to; admitted requests enter a deficit-weighted-fair
// scheduler that serves three priority lanes (latency > normal > bulk) and,
// within a lane, round-robins tenants by weighted deficit — so one abusive
// bulk loader cannot starve thousands of latency-sensitive readers. A
// response that cannot be delivered (slow or dead client) spills into the
// session's backlog and replays, byte-identical and in order, when the client
// resumes the session with its token.
package session

import "errors"

// A backlog entry is the exact response frame bytes the writer would have put
// on the socket, kept in memory under its request ID. It needs no framing of
// its own: every wire frame already ends in its CRC32-C, which the client
// checks on replay. Replayed entries are retained (until evicted under the
// byte cap) so a duplicate request ID can be answered with the identical
// bytes instead of re-applying.

// ErrBacklogFull reports a spill refused because the session's backlog byte
// cap is reached and no replayed entry can be evicted.
var ErrBacklogFull = errors.New("session: backlog full")

// bentry is one spilled response.
type bentry struct {
	id       uint64
	frames   []byte
	replayed bool
}

// Backlog is a bounded, in-memory list of undeliverable responses for one
// session. Not safe for concurrent use; Session serializes access.
type Backlog struct {
	limit   int
	total   int // sum of retained frame bytes
	entries []*bentry
	index   map[uint64]*bentry // request id -> latest entry
}

// NewBacklog returns an empty backlog bounded to limit frame bytes.
func NewBacklog(limit int) *Backlog {
	return &Backlog{limit: limit, index: make(map[uint64]*bentry)}
}

// Append spills one response (its wire frame bytes, possibly several chunked
// frames) under the given request id, copying the bytes. When the byte cap is
// reached, replayed entries are evicted oldest-first to make room; if the
// response still does not fit, the spill is refused with ErrBacklogFull.
func (b *Backlog) Append(id uint64, frames []byte) error {
	for b.total+len(frames) > b.limit {
		if !b.evictOneReplayed() {
			return ErrBacklogFull
		}
	}
	e := &bentry{id: id, frames: append([]byte(nil), frames...)}
	b.entries = append(b.entries, e)
	b.index[id] = e
	b.total += len(frames)
	return nil
}

// evictOneReplayed drops the oldest replayed entry; false if none exists.
func (b *Backlog) evictOneReplayed() bool {
	for i, e := range b.entries {
		if !e.replayed {
			continue
		}
		b.total -= len(e.frames)
		if b.index[e.id] == e {
			delete(b.index, e.id)
		}
		b.entries = append(b.entries[:i], b.entries[i+1:]...)
		return true
	}
	return false
}

// ReplayEntry is one backlogged response handed back during resume.
type ReplayEntry struct {
	ID     uint64
	Frames []byte
}

// Replay returns every not-yet-replayed entry in append order and marks them
// replayed. The entries stay in the backlog (evictable) so duplicate request
// IDs keep resolving to the identical bytes.
func (b *Backlog) Replay() []ReplayEntry {
	var out []ReplayEntry
	for _, e := range b.entries {
		if e.replayed {
			continue
		}
		e.replayed = true
		out = append(out, ReplayEntry{ID: e.id, Frames: e.frames})
	}
	return out
}

// Frame returns the response frame bytes spilled under id, if present.
func (b *Backlog) Frame(id uint64) ([]byte, bool) {
	e, ok := b.index[id]
	if !ok {
		return nil, false
	}
	return e.frames, true
}

// Pending counts entries not yet replayed.
func (b *Backlog) Pending() int {
	n := 0
	for _, e := range b.entries {
		if !e.replayed {
			n++
		}
	}
	return n
}

// Bytes is the total frame bytes of retained entries.
func (b *Backlog) Bytes() int { return b.total }
