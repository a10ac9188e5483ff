// Package client is the host-side KV-CSD client library (paper §I, IV): a
// thin userspace driver that packs key-value calls into NVMe commands, ships
// them over PCIe with DMA, and waits for completions — bypassing the host
// kernel, filesystem, and block layer entirely.
//
// The library supports regular and bulk PUTs. Bulk PUTs accumulate pairs
// into 128 KiB messages ("each bulk put message is 128KB ... up to 2570
// key-value pairs"), amortizing per-command latency.
package client

import (
	"errors"
	"fmt"
	"time"

	"kvcsd/internal/core"
	"kvcsd/internal/device"
	"kvcsd/internal/host"
	"kvcsd/internal/nvme"
	"kvcsd/internal/obs"
	"kvcsd/internal/pcie"
	"kvcsd/internal/sim"
)

// ErrNotFound reports a missing key or keyspace.
var ErrNotFound = errors.New("client: not found")

// ErrTimeout reports a command that outlived the client's per-command
// timeout. The command may still complete inside the device; retrying is
// safe only for idempotent operations.
var ErrTimeout = errors.New("client: command timed out")

// TimeoutError is the concrete error behind ErrTimeout, carrying the opcode
// and the timeout that expired.
type TimeoutError struct {
	Op      nvme.Opcode
	Timeout time.Duration
}

// Error renders "client: <op> timed out after <d>".
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("client: %s timed out after %v", e.Op, e.Timeout)
}

// Is lets errors.Is(err, ErrTimeout) match.
func (e *TimeoutError) Is(target error) bool { return target == ErrTimeout }

// StatusError is a non-OK NVMe completion surfaced as a Go error. It carries
// the opcode and status so callers that own several replicas of a keyspace —
// the array router — can tell device-level failures (retry on a replica)
// from logical outcomes (propagate).
type StatusError struct {
	Op     nvme.Opcode
	Status nvme.Status
}

// Error renders "nvme: <status> (<op>)".
func (e *StatusError) Error() string {
	return fmt.Sprintf("nvme: %s (%s)", e.Status, e.Op)
}

// Is lets errors.Is(err, ErrNotFound) match a StatusNotFound completion.
func (e *StatusError) Is(target error) bool {
	return target == ErrNotFound && e.Status == nvme.StatusNotFound
}

// statusErr wraps a completion status as an error (nil for StatusOK).
func statusErr(op nvme.Opcode, s nvme.Status) error {
	if s == nvme.StatusOK {
		return nil
	}
	return &StatusError{Op: op, Status: s}
}

// Retryable reports whether err looks like a device-side failure another
// replica (or a later attempt) might not share: an internal error (e.g. an
// injected media fault), the device running out of space, a keyspace that is
// not in the right state on this particular device (a replica that has not
// finished compacting yet), a device that has lost power, a checksum mismatch
// (the bytes on this replica are rotted; another replica holds a clean copy),
// or a command that timed out. Logical errors — not found, already exists,
// invalid arguments — return false; retrying those cannot change the answer.
func Retryable(err error) bool {
	if errors.Is(err, ErrTimeout) {
		return true
	}
	var se *StatusError
	if !errors.As(err, &se) {
		return false
	}
	switch se.Status {
	case nvme.StatusInternal, nvme.StatusNoSpace, nvme.StatusKeyspaceState,
		nvme.StatusPoweredOff, nvme.StatusCorrupted:
		return true
	}
	return false
}

// Corrupted reports whether err is a device-detected checksum mismatch.
// Corruption is retryable only *on another replica*: the bad bytes are on
// media, so replaying the command against the same device fails the same way
// until a repair rewrites the extent. The array router uses this to fail over
// immediately and schedule read-repair instead of burning backoff attempts.
func Corrupted(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Status == nvme.StatusCorrupted
}

// RetryPolicy bounds each command in virtual time and retries idempotent
// commands with capped exponential backoff. The zero value disables both
// (wait forever, no retries) — the pre-crash-recovery behavior.
type RetryPolicy struct {
	// Timeout caps one attempt's round trip (0 = wait forever).
	Timeout time.Duration
	// BaseBackoff is the delay before the first retry; each further retry
	// doubles it up to MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff growth (0 = uncapped).
	MaxBackoff time.Duration
	// MaxAttempts is the total attempts for idempotent commands (<= 1 means
	// a single attempt).
	MaxAttempts int
}

// DefaultRetryPolicy rides out a device power-cut-to-restart window: eight
// attempts backing off 200µs → 50ms, each attempt capped at 2s.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		Timeout:     2 * time.Second,
		BaseBackoff: 200 * time.Microsecond,
		MaxBackoff:  50 * time.Millisecond,
		MaxAttempts: 8,
	}
}

// BulkMessageBytes is the bulk PUT message size from the paper.
const BulkMessageBytes = 128 << 10

// perCommandCost is the host CPU cost of assembling and ringing one NVMe
// command from userspace (no kernel crossing).
const perCommandCost = 500 * time.Nanosecond

// Client is a host-side connection to one KV-CSD device.
type Client struct {
	h      *host.Host
	dev    *device.Device
	link   *pcie.Link
	queue  *nvme.QueuePair
	tr     *obs.Tracer // device tracer; nil when tracing is off
	policy RetryPolicy
	// abandoned counts commands left in flight by a timeout: the device may
	// still read such a command's payload after the call has returned.
	abandoned int64
}

// New binds a client to a device using the host's CPU for packing costs.
func New(h *host.Host, dev *device.Device) *Client {
	return &Client{h: h, dev: dev, link: dev.Link(), queue: dev.Queue(), tr: dev.Tracer()}
}

// SetRetryPolicy installs per-command timeouts and idempotent retries.
func (c *Client) SetRetryPolicy(rp RetryPolicy) { c.policy = rp }

// RetryPolicy returns the active policy.
func (c *Client) RetryPolicy() RetryPolicy { return c.policy }

// Device returns the device this client is bound to (inspection: the array
// router uses it for health probing and per-device statistics).
func (c *Client) Device() *device.Device { return c.dev }

// roundTrip sends one command and waits for its completion, applying the
// client's retry policy: each attempt is capped at the policy timeout, and
// idempotent commands that fail retryably (timeout, powered-off device,
// internal errors) are replayed with capped exponential backoff. A replayed
// write is safe — a duplicate that actually landed becomes a duplicate log
// record and deduplicates at compaction.
func (c *Client) roundTrip(p *sim.Proc, cmd *nvme.Command) (*nvme.Completion, error) {
	// A status wait takes as long as its job does: the device answers it when
	// the job ends, or at a power cut or shutdown, so no attempt timeout
	// applies.
	timeout := c.policy.Timeout
	if cmd.Wait {
		timeout = 0
	}
	comp, err := c.sendOnce(p, cmd, timeout)
	if err == nil || c.policy.MaxAttempts <= 1 || !cmd.Op.Idempotent() {
		return comp, err
	}
	backoff := c.policy.BaseBackoff
	for attempt := 1; attempt < c.policy.MaxAttempts && Retryable(err) && !Corrupted(err); attempt++ {
		if backoff > 0 {
			p.Sleep(backoff)
		}
		backoff *= 2
		if c.policy.MaxBackoff > 0 && backoff > c.policy.MaxBackoff {
			backoff = c.policy.MaxBackoff
		}
		comp, err = c.sendOnce(p, cmd, timeout)
		if err == nil {
			return comp, nil
		}
	}
	return comp, err
}

// cmdSpanNames holds each opcode's root span name, built once: sendOnce runs
// for every command, tracing on or off.
var cmdSpanNames = func() (t [256]string) {
	for i := range t {
		t[i] = "cmd:" + nvme.Opcode(i).String()
	}
	return t
}()

// sendOnce performs one command round trip, charging packing CPU and both
// PCIe directions. With tracing on, the round trip becomes one root span
// whose stage children (prep + transfers = link, queue-wait = queue,
// dispatch = service, channel time = media) partition the client-observed
// latency exactly. A positive timeout caps the wait for the completion.
func (c *Client) sendOnce(p *sim.Proc, cmd *nvme.Command, timeout time.Duration) (*nvme.Completion, error) {
	span := c.tr.StartRoot(p, cmdSpanNames[cmd.Op], cmd.Op.String())
	if span != nil {
		cmd.Span = span
		c.tr.Push(p, span)
	}
	// Host-side packing CPU and the staging copy count as link time: they are
	// the host's cost of getting bytes onto the wire.
	prep := span.Child("prep", obs.StageLink)
	c.h.Compute(p, perCommandCost)
	size := cmd.WireSize()
	c.h.Copy(p, size-64) // payload staging copy (command header is free)
	prep.End()
	c.link.Transfer(p, pcie.HostToDevice, size)
	handle := c.queue.Submit(p, cmd)
	var comp *nvme.Completion
	if timeout > 0 {
		var done bool
		comp, done = handle.WaitTimeout(p, timeout)
		if !done {
			// The command stays in flight inside the device; the abandoned
			// handle absorbs its eventual completion.
			c.abandoned++
			if span != nil {
				c.tr.Pop(p)
				span.End()
			}
			return nil, &TimeoutError{Op: cmd.Op, Timeout: timeout}
		}
	} else {
		comp = handle.Wait(p)
	}
	c.link.Transfer(p, pcie.DeviceToHost, comp.WireSize())
	if span != nil {
		c.tr.Pop(p)
		span.End()
	}
	return comp, statusErr(cmd.Op, comp.Status)
}

// CreateKeyspace creates a keyspace and returns a handle to it.
func (c *Client) CreateKeyspace(p *sim.Proc, name string) (*Keyspace, error) {
	if _, err := c.roundTrip(p, &nvme.Command{Op: nvme.OpCreateKeyspace, Keyspace: name}); err != nil {
		return nil, err
	}
	return &Keyspace{c: c, name: name}, nil
}

// OpenKeyspace returns a handle to an existing keyspace.
func (c *Client) OpenKeyspace(p *sim.Proc, name string) (*Keyspace, error) {
	comp, err := c.roundTrip(p, &nvme.Command{Op: nvme.OpOpenKeyspace, Keyspace: name})
	if err != nil {
		if comp != nil && comp.Status == nvme.StatusNotFound {
			return nil, fmt.Errorf("%w: keyspace %s", ErrNotFound, name)
		}
		return nil, err
	}
	return &Keyspace{c: c, name: name}, nil
}

// DeleteKeyspace removes a keyspace and all its data.
func (c *Client) DeleteKeyspace(p *sim.Proc, name string) error {
	_, err := c.roundTrip(p, &nvme.Command{Op: nvme.OpDeleteKeyspace, Keyspace: name})
	return err
}

// ScrubMedia runs one synchronous scrub pass over every keyspace on the
// device and returns the decoded report (what the background scrubber does on
// its own cadence, but on demand).
func (c *Client) ScrubMedia(p *sim.Proc) (*core.ScrubReport, error) {
	comp, err := c.roundTrip(p, &nvme.Command{Op: nvme.OpScrubMedia})
	if err != nil {
		return nil, err
	}
	return core.DecodeScrubReport(comp.Value)
}

// ReadExtent reads one verified granule by its logical extent address. The
// array router uses this to fetch a clean copy from a healthy replica when
// another replica reports the same extent corrupted.
func (c *Client) ReadExtent(p *sim.Proc, keyspace string, addr nvme.ExtentAddr) ([]byte, error) {
	comp, err := c.roundTrip(p, &nvme.Command{Op: nvme.OpReadExtent, Keyspace: keyspace, Extent: addr})
	if err != nil {
		return nil, err
	}
	return comp.Value, nil
}

// RepairExtent rewrites one granule in place from data fetched off a healthy
// replica. The device re-verifies the payload against its stored checksum
// before programming, so a repair can never install wrong bytes.
func (c *Client) RepairExtent(p *sim.Proc, keyspace string, addr nvme.ExtentAddr, data []byte) error {
	_, err := c.roundTrip(p, &nvme.Command{
		Op:       nvme.OpRepairExtent,
		Keyspace: keyspace,
		Extent:   addr,
		Value:    data,
	})
	return err
}

// CorruptMedia flips addr.Bits random bits inside one granule on media — the
// fault-injection hook behind the chaos campaign and the CLI corrupt verb.
// It returns how many bits actually flipped.
func (c *Client) CorruptMedia(p *sim.Proc, keyspace string, addr nvme.ExtentAddr) (int64, error) {
	comp, err := c.roundTrip(p, &nvme.Command{Op: nvme.OpCorruptMedia, Keyspace: keyspace, Extent: addr})
	if err != nil {
		return 0, err
	}
	return comp.Count, nil
}

// Contract is the in-simulation keyspace contract: the one method set every
// keyspace handle that runs inside the simulation offers — this package's
// Keyspace (one device), array.Keyspace (fan-out replication over a fleet)
// and array.ReplicatedKeyspace (consensus shard groups, which refuse the
// verbs they do not replicate yet). The server's dispatch and the conformance
// suite are written against it, so a backend is whatever hands out a
// Contract. workload.KS is a subset.
type Contract interface {
	Name() string

	Put(p *sim.Proc, key, value []byte) error
	Delete(p *sim.Proc, key []byte) error
	BulkPut(p *sim.Proc, key, value []byte) error
	BulkDelete(p *sim.Proc, key []byte) error
	Flush(p *sim.Proc) error
	Sync(p *sim.Proc) error

	Get(p *sim.Proc, key []byte) ([]byte, bool, error)
	Exist(p *sim.Proc, key []byte) (bool, error)
	Scan(p *sim.Proc, lo, hi []byte, limit int) ([]nvme.KVPair, error)
	QuerySecondaryRange(p *sim.Proc, index string, lo, hi []byte, limit int) ([]nvme.KVPair, error)
	QuerySecondaryPoint(p *sim.Proc, index string, key []byte, limit int) ([]nvme.KVPair, error)

	Compact(p *sim.Proc) error
	CompactWithIndexes(p *sim.Proc, specs []IndexSpec) error
	CompactDone(p *sim.Proc) (bool, error)
	WaitCompacted(p *sim.Proc) error
	BuildSecondaryIndex(p *sim.Proc, spec IndexSpec) error
	IndexBuilt(p *sim.Proc, name string) (bool, error)
	WaitIndexBuilt(p *sim.Proc, name string) error

	Info(p *sim.Proc) (nvme.KeyspaceInfo, error)
}

var _ Contract = (*Keyspace)(nil)

// Keyspace is a handle for operations on one keyspace.
//
// Bulk staging owns its bytes: BulkPut and BulkDelete copy each pair into
// arena, the current message's byte arena, and stage a view of the copy in
// bulk. When a full message goes out and the device has answered it, the
// next message reuses both — a streaming load allocates them once — unless a
// timed-out attempt may still be reading them inside the device. An explicit
// Flush drops them, so an idle handle pins nothing.
type Keyspace struct {
	c    *Client
	name string

	arena     []byte
	bulk      []nvme.KVPair
	bulkBytes int64
}

// Name returns the keyspace name.
func (k *Keyspace) Name() string { return k.name }

// Put stores a single pair with one command (the paper's regular PUT).
// Staged bulk pairs are flushed first so device order matches program order.
// Key and value are copied into one allocation: the command may outlive the
// call when it times out.
func (k *Keyspace) Put(p *sim.Proc, key, value []byte) error {
	if err := k.Flush(p); err != nil {
		return err
	}
	kv := append(append(make([]byte, 0, len(key)+len(value)), key...), value...)
	_, err := k.c.roundTrip(p, &nvme.Command{
		Op:       nvme.OpStore,
		Keyspace: k.name,
		Key:      kv[:len(key):len(key)],
		Value:    kv[len(key):],
	})
	return err
}

// Delete removes a key with one command. The device records a tombstone;
// the key (and everything older under it) vanishes at compaction. Staged
// bulk pairs are flushed first so device order matches program order.
func (k *Keyspace) Delete(p *sim.Proc, key []byte) error {
	if err := k.Flush(p); err != nil {
		return err
	}
	_, err := k.c.roundTrip(p, &nvme.Command{
		Op:       nvme.OpDelete,
		Keyspace: k.name,
		Key:      append([]byte(nil), key...),
	})
	return err
}

// BulkDelete stages a deletion into the current bulk message (the paper's
// bulk deletes share the bulk-put transport).
func (k *Keyspace) BulkDelete(p *sim.Proc, key []byte) error {
	k.bulk = append(k.bulk, nvme.KVPair{Key: k.stage(key), Tombstone: true})
	k.bulkBytes += int64(len(key) + 8)
	if k.bulkBytes >= BulkMessageBytes {
		return k.send(p, true)
	}
	return nil
}

// BulkPut stages a pair into the current 128 KiB bulk message, sending it
// when full. Call Flush to push a final partial message.
func (k *Keyspace) BulkPut(p *sim.Proc, key, value []byte) error {
	k.bulk = append(k.bulk, nvme.KVPair{Key: k.stage(key), Value: k.stage(value)})
	k.bulkBytes += int64(len(key) + len(value) + 8)
	if k.bulkBytes >= BulkMessageBytes {
		return k.send(p, true)
	}
	return nil
}

// stage copies b into the message arena and returns the copy, clipped to its
// length. Growing the arena moves later copies only: earlier ones keep
// viewing the array they were made in.
func (k *Keyspace) stage(b []byte) []byte {
	k.arena = append(k.arena, b...)
	n := len(k.arena)
	return k.arena[n-len(b) : n : n]
}

// Flush sends any staged bulk pairs and drops the staging buffers.
func (k *Keyspace) Flush(p *sim.Proc) error { return k.send(p, false) }

// send ships the staged pairs as one bulk command. With reuse, the arena
// and pair slice serve the next message once the device has answered this
// one — if no other proc started a message on the handle meanwhile;
// otherwise they go with the command.
func (k *Keyspace) send(p *sim.Proc, reuse bool) error {
	if len(k.bulk) == 0 {
		return nil
	}
	pairs, arena := k.bulk, k.arena
	k.bulk, k.arena, k.bulkBytes = nil, nil, 0
	abandoned := k.c.abandoned
	_, err := k.c.roundTrip(p, &nvme.Command{Op: nvme.OpBulkStore, Keyspace: k.name, Pairs: pairs})
	if reuse && err == nil && k.c.abandoned == abandoned && k.bulk == nil {
		clear(pairs)
		k.arena, k.bulk = arena[:0], pairs[:0]
	}
	return err
}

// Sync flushes staged pairs and the device-side ingest buffer.
func (k *Keyspace) Sync(p *sim.Proc) error {
	if err := k.Flush(p); err != nil {
		return err
	}
	_, err := k.c.roundTrip(p, &nvme.Command{Op: nvme.OpSync, Keyspace: k.name})
	return err
}

// Compact asks the device to sort the keyspace. The call returns as soon as
// the device acknowledges — compaction continues asynchronously in the
// device (the paper's deferred, offloaded compaction).
func (k *Keyspace) Compact(p *sim.Proc) error {
	if err := k.Flush(p); err != nil {
		return err
	}
	_, err := k.c.roundTrip(p, &nvme.Command{Op: nvme.OpCompact, Keyspace: k.name})
	return err
}

// CompactWithIndexes invokes compaction with secondary indexes declared
// upfront — the consolidated index construction the paper proposes as
// future work: the device extracts all secondary keys during the
// compaction's own data pass instead of re-reading the keyspace per index.
func (k *Keyspace) CompactWithIndexes(p *sim.Proc, specs []IndexSpec) error {
	if err := k.Flush(p); err != nil {
		return err
	}
	_, err := k.c.roundTrip(p, &nvme.Command{
		Op:       nvme.OpCompactWithIndexes,
		Keyspace: k.name,
		Indexes:  append([]IndexSpec(nil), specs...),
	})
	return err
}

// CompactDone asks once whether compaction has finished.
func (k *Keyspace) CompactDone(p *sim.Proc) (bool, error) {
	return k.status(p, &nvme.Command{Op: nvme.OpCompactStatus, Keyspace: k.name})
}

// WaitCompacted blocks until compaction completes: the status command carries
// the wait bit, so the device answers it the instant the compaction job ends.
// A failed compaction surfaces as its typed status.
func (k *Keyspace) WaitCompacted(p *sim.Proc) error {
	return k.wait(p, &nvme.Command{Op: nvme.OpCompactStatus, Keyspace: k.name, Wait: true})
}

// status sends one status command and returns its Done bit.
func (k *Keyspace) status(p *sim.Proc, cmd *nvme.Command) (bool, error) {
	comp, err := k.c.roundTrip(p, cmd)
	if err != nil {
		return false, err
	}
	return comp.Done, nil
}

// wait sends a status command with the wait bit until it reports Done. The
// device answers a wait only when its job has ended, so one round trip is
// the rule; should the job end without finishing what was asked, the
// command goes again.
func (k *Keyspace) wait(p *sim.Proc, cmd *nvme.Command) error {
	for {
		done, err := k.status(p, cmd)
		if err != nil || done {
			return err
		}
	}
}

// IndexSpec is the paper's secondary index configuration, in the form the
// device command carries it.
type IndexSpec = nvme.SecondaryIndexSpec

// BuildSecondaryIndex configures and starts building a secondary index over
// the given value byte range; the build runs asynchronously in the device.
// Requested while the keyspace's compaction has not begun its value pass, it
// joins that pass as a declared index would (CompactWithIndexes).
func (k *Keyspace) BuildSecondaryIndex(p *sim.Proc, spec IndexSpec) error {
	_, err := k.c.roundTrip(p, &nvme.Command{
		Op:       nvme.OpBuildSecondaryIndex,
		Keyspace: k.name,
		Index:    spec,
	})
	return err
}

// IndexBuilt asks once whether a secondary index has finished building.
func (k *Keyspace) IndexBuilt(p *sim.Proc, name string) (bool, error) {
	return k.status(p, &nvme.Command{
		Op:       nvme.OpIndexStatus,
		Keyspace: k.name,
		Index:    nvme.SecondaryIndexSpec{Name: name},
	})
}

// WaitIndexBuilt blocks until the named index is ready, with one status
// command carrying the wait bit. An index that was never requested fails
// with a StatusNotFound error.
func (k *Keyspace) WaitIndexBuilt(p *sim.Proc, name string) error {
	return k.wait(p, &nvme.Command{
		Op:       nvme.OpIndexStatus,
		Keyspace: k.name,
		Index:    nvme.SecondaryIndexSpec{Name: name},
		Wait:     true,
	})
}

// Get retrieves the value for a key.
func (k *Keyspace) Get(p *sim.Proc, key []byte) ([]byte, bool, error) {
	comp, err := k.c.roundTrip(p, &nvme.Command{Op: nvme.OpRetrieve, Keyspace: k.name, Key: key})
	if comp != nil && comp.Status == nvme.StatusNotFound {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return comp.Value, true, nil
}

// Exist probes for a key without transferring its value.
func (k *Keyspace) Exist(p *sim.Proc, key []byte) (bool, error) {
	comp, err := k.c.roundTrip(p, &nvme.Command{Op: nvme.OpExist, Keyspace: k.name, Key: key})
	if err != nil {
		return false, err
	}
	return comp.Exists, nil
}

// Scan returns pairs with lo <= key < hi in key order, capped at limit
// (0 = all). Only the results cross the PCIe link.
func (k *Keyspace) Scan(p *sim.Proc, lo, hi []byte, limit int) ([]nvme.KVPair, error) {
	comp, err := k.c.roundTrip(p, &nvme.Command{
		Op:          nvme.OpQueryPrimaryRange,
		Keyspace:    k.name,
		Low:         lo,
		High:        hi,
		ResultLimit: limit,
	})
	if err != nil {
		return nil, err
	}
	return comp.Pairs, nil
}

// QuerySecondaryRange returns pairs whose secondary key is in [lo, hi),
// ordered by secondary key. Pair keys are the primary keys.
func (k *Keyspace) QuerySecondaryRange(p *sim.Proc, index string, lo, hi []byte, limit int) ([]nvme.KVPair, error) {
	comp, err := k.c.roundTrip(p, &nvme.Command{
		Op:          nvme.OpQuerySecondaryRange,
		Keyspace:    k.name,
		Index:       nvme.SecondaryIndexSpec{Name: index},
		Low:         lo,
		High:        hi,
		ResultLimit: limit,
	})
	if err != nil {
		return nil, err
	}
	return comp.Pairs, nil
}

// QuerySecondaryPoint returns pairs whose secondary key equals key.
func (k *Keyspace) QuerySecondaryPoint(p *sim.Proc, index string, key []byte, limit int) ([]nvme.KVPair, error) {
	comp, err := k.c.roundTrip(p, &nvme.Command{
		Op:          nvme.OpQuerySecondaryPoint,
		Keyspace:    k.name,
		Index:       nvme.SecondaryIndexSpec{Name: index},
		Key:         key,
		ResultLimit: limit,
	})
	if err != nil {
		return nil, err
	}
	return comp.Pairs, nil
}

// Info fetches the keyspace metadata the device tracks.
func (k *Keyspace) Info(p *sim.Proc) (nvme.KeyspaceInfo, error) {
	comp, err := k.c.roundTrip(p, &nvme.Command{Op: nvme.OpKeyspaceInfo, Keyspace: k.name})
	if err != nil {
		return nvme.KeyspaceInfo{}, err
	}
	return comp.Info, nil
}
