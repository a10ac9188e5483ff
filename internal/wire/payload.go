package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"kvcsd/internal/compaction"
	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
)

// Payload encoding: a flat field sequence per message type. Variable-length
// byte strings and lists are uvarint-length-prefixed; integers are uvarint
// (values) or fixed little-endian 64-bit (counters that can be negative are
// zig-zag varints). Every decode path is bounds-checked: malformed input
// yields ErrDecode, never a panic — the frame-decoder fuzz target holds the
// package to that.

// ErrDecode reports a structurally invalid payload.
var ErrDecode = errors.New("wire: malformed payload")

// --- encoder ---------------------------------------------------------------

type encoder struct{ b []byte }

func (e *encoder) u8(v uint8) { e.b = append(e.b, v) }
func (e *encoder) uvarint(v uint64) {
	e.b = binary.AppendUvarint(e.b, v)
}
func (e *encoder) varint(v int64) {
	e.b = binary.AppendVarint(e.b, v)
}
func (e *encoder) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *encoder) bytes(v []byte) {
	e.uvarint(uint64(len(v)))
	e.b = append(e.b, v...)
}
func (e *encoder) str(v string) {
	e.uvarint(uint64(len(v)))
	e.b = append(e.b, v...)
}

// --- decoder ---------------------------------------------------------------

// decoder walks one payload. Byte fields it returns are views into the
// payload, not copies (see "Who owns a frame buffer" in frame.go).
type decoder struct {
	b   []byte
	err error
	// viewed is set once a non-empty byte view has been handed out: the
	// decoded struct then keeps the payload's backing store alive.
	viewed bool
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrDecode
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) boolean() bool { return d.u8() != 0 }

func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	d.viewed = true
	return v
}

func (d *decoder) str() string { return d.strLike("") }

// strLike reads a string, returning prev itself when the bytes spell it —
// strings are copies, and a caller that decodes the same name again and
// again (a keyspace) passes the last one to save the allocation.
func (d *decoder) strLike(prev string) string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail()
		return ""
	}
	v := prev
	if string(d.b[:n]) != prev {
		v = string(d.b[:n])
	}
	d.b = d.b[n:]
	return v
}

// count reads a list length and rejects lengths that could not possibly fit
// in the remaining payload (each element needs at least min bytes), bounding
// allocations on corrupt input.
func (d *decoder) count(min int) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n > uint64(len(d.b)/min)+1 {
		d.fail()
		return 0
	}
	return int(n)
}

func (d *decoder) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrDecode, len(d.b))
	}
	return nil
}

// --- pairs -----------------------------------------------------------------

func encodePairs(e *encoder, pairs []nvme.KVPair) {
	e.uvarint(uint64(len(pairs)))
	for _, p := range pairs {
		e.bytes(p.Key)
		e.bytes(p.Value)
		e.boolean(p.Tombstone)
	}
}

// decodePairs appends the decoded pairs to scratch[:0] (nil allocates).
func decodePairs(d *decoder, scratch []nvme.KVPair) []nvme.KVPair {
	n := d.count(3)
	if d.err != nil || n == 0 {
		return nil
	}
	pairs := scratch[:0]
	if cap(pairs) < n {
		pairs = make([]nvme.KVPair, 0, n)
	}
	for i := 0; i < n; i++ {
		p := nvme.KVPair{Key: d.bytes(), Value: d.bytes(), Tombstone: d.boolean()}
		if d.err != nil {
			return nil
		}
		pairs = append(pairs, p)
	}
	return pairs
}

func encodeIndexSpec(e *encoder, s IndexSpec) {
	e.str(s.Name)
	e.uvarint(uint64(s.Offset))
	e.uvarint(uint64(s.Length))
	e.u8(s.Type)
}

func decodeIndexSpec(d *decoder) IndexSpec {
	return IndexSpec{
		Name:   d.str(),
		Offset: uint32(d.uvarint()),
		Length: uint32(d.uvarint()),
		Type:   d.u8(),
	}
}

// --- request ---------------------------------------------------------------

// EncodeRequest serializes a request payload alone (everything but the frame
// header, which carries ID and Op). AppendRequestFrame builds whole frames.
func EncodeRequest(r *Request) []byte {
	var e encoder
	encodeRequest(&e, r)
	return e.b
}

// AppendRequestFrame appends r as one complete frame to dst — the payload is
// encoded in place behind the reserved header, carrying the request's trace
// context, session token and lane override — and returns the extended slice.
// A payload over MaxPayload leaves dst as it was.
func AppendRequestFrame(dst []byte, r *Request) ([]byte, error) {
	off := len(dst)
	e := encoder{b: beginFrame(dst)}
	encodeRequest(&e, r)
	if len(e.b)-off-HeaderSize > MaxPayload {
		return dst, ErrFrameTooLarge
	}
	return finishFrame(e.b, off, KindRequest, r.Op, laneFlags(r.Lane), r.ID, r.Trace, r.Session), nil
}

func encodeRequest(e *encoder, r *Request) {
	e.str(r.Keyspace)
	e.bytes(r.Key)
	e.bytes(r.Value)
	e.bytes(r.Low)
	e.bytes(r.High)
	encodePairs(e, r.Pairs)
	encodeIndexSpec(e, r.Index)
	e.uvarint(uint64(len(r.Indexes)))
	for _, ix := range r.Indexes {
		encodeIndexSpec(e, ix)
	}
	e.uvarint(uint64(r.Limit))
	e.uvarint(uint64(r.Parts))
	e.uvarint(uint64(r.Device))
	e.boolean(r.Replica != nil)
	if r.Replica != nil {
		encodeReplicaMsg(e, r.Replica)
	}
	e.boolean(r.Hello != nil)
	if r.Hello != nil {
		encodeHelloMsg(e, r.Hello)
	}
	e.boolean(r.Extent != nil)
	if r.Extent != nil {
		e.u8(r.Extent.Kind)
		e.str(r.Extent.Index)
		e.varint(r.Extent.Granule)
		e.uvarint(uint64(r.Extent.Bits))
	}
}

// DecodeRequest parses a request payload for the given frame header. Byte
// fields of the result are views into payload. With a header from ReadFrame
// the request is pooled with the frame's body and DecodeRequest takes both
// over: valid until Release, and released here when the payload is malformed.
func DecodeRequest(h Header, payload []byte) (*Request, error) {
	r, err := decodeRequest(h, payload, nil)
	if err != nil {
		if h.body != nil {
			h.body.release(false)
		}
		return nil, err
	}
	return r, nil
}

// decodeRequest decodes into the body's pooled request, else into sc's, else
// into a new one.
func decodeRequest(h Header, payload []byte, sc *DecodeScratch) (*Request, error) {
	fb := h.body
	if !h.Op.Valid() {
		return nil, fmt.Errorf("%w: opcode %d", ErrDecode, uint8(h.Op))
	}
	d := decoder{b: payload}
	var r *Request
	var lastKeyspace string
	var pairScratch []nvme.KVPair
	switch {
	case fb != nil:
		r, lastKeyspace, pairScratch = &fb.req, fb.keyspace, fb.pairs
	case sc != nil:
		r = &sc.req
	default:
		r = new(Request)
	}
	*r = Request{ID: h.ID, Op: h.Op, Trace: h.Trace,
		Session: h.Session, Lane: laneFromFlags(h.Flags), body: fb}
	r.Keyspace = d.strLike(lastKeyspace)
	r.Key = d.bytes()
	r.Value = d.bytes()
	r.Low = d.bytes()
	r.High = d.bytes()
	r.Pairs = decodePairs(&d, pairScratch)
	if fb != nil {
		fb.keyspace = r.Keyspace
		if r.Pairs != nil {
			fb.pairs = r.Pairs[:0]
		}
	}
	r.Index = decodeIndexSpec(&d)
	n := d.count(4)
	for i := 0; i < n && d.err == nil; i++ {
		r.Indexes = append(r.Indexes, decodeIndexSpec(&d))
	}
	r.Limit = uint32(d.uvarint())
	r.Parts = uint32(d.uvarint())
	r.Device = uint32(d.uvarint())
	if d.boolean() {
		if sc != nil {
			r.Replica = decodeReplicaMsg(&d, &sc.msg)
		} else {
			r.Replica = decodeReplicaMsg(&d, new(ReplicaMsg))
		}
	}
	if d.boolean() {
		r.Hello = decodeHelloMsg(&d)
	}
	if d.boolean() {
		r.Extent = &ExtentAddr{
			Kind:    d.u8(),
			Index:   d.str(),
			Granule: d.varint(),
			Bits:    uint32(d.uvarint()),
		}
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return r, nil
}

// Release ends the request's use of its frame body: the request and every
// byte slice decoded into it are invalid afterwards. It does nothing for a
// request that was not decoded from a ReadFrame body, or on a second call.
func (r *Request) Release() {
	if fb := r.body; fb != nil {
		r.body = nil
		fb.release(false)
	}
}

// --- response --------------------------------------------------------------

func encodeInfo(e *encoder, info *nvme.KeyspaceInfo) {
	e.str(info.Name)
	e.str(info.State)
	e.varint(info.Pairs)
	e.varint(info.Bytes)
	e.bytes(info.MinKey)
	e.bytes(info.MaxKey)
	e.uvarint(uint64(len(info.Secondary)))
	for _, s := range info.Secondary {
		e.str(s)
	}
	e.uvarint(uint64(info.ZoneCount))
	e.varint(int64(info.CompactDur))
}

func decodeInfo(d *decoder) nvme.KeyspaceInfo {
	var info nvme.KeyspaceInfo
	info.Name = d.str()
	info.State = d.str()
	info.Pairs = d.varint()
	info.Bytes = d.varint()
	info.MinKey = d.bytes()
	info.MaxKey = d.bytes()
	n := d.count(1)
	for i := 0; i < n && d.err == nil; i++ {
		info.Secondary = append(info.Secondary, d.str())
	}
	info.ZoneCount = int(d.uvarint())
	info.CompactDur = sim.Time(d.varint())
	return info
}

func encodeStats(e *encoder, s *StatsReport) {
	e.uvarint(uint64(s.Devices))
	e.varint(s.Commands)
	e.varint(s.MediaRead)
	e.varint(s.MediaWrite)
	e.varint(s.HostToDevice)
	e.varint(s.DeviceToHost)
	e.varint(s.AppWrite)
	e.varint(s.VirtualNanos)
	e.uvarint(uint64(len(s.Health)))
	for _, h := range s.Health {
		e.uvarint(uint64(h.ID))
		e.boolean(h.Down)
		e.uvarint(uint64(h.Failures))
	}
	e.boolean(s.RPC != nil)
	if s.RPC != nil {
		encodeRPC(e, s.RPC)
	}
	encodeRing(e, s.Ring)
	encodeTenants(e, s.Tenants)
	encodeCompactions(e, s.Compactions)
}

func encodeCompactions(e *encoder, cs []CompactionProgress) {
	e.uvarint(uint64(len(cs)))
	for _, c := range cs {
		e.str(c.Keyspace)
		e.bytes(compaction.EncodeProgress(c.Progress))
	}
}

func decodeCompactions(d *decoder) []CompactionProgress {
	n := d.count(2)
	var cs []CompactionProgress
	for i := 0; i < n && d.err == nil; i++ {
		name := d.str()
		pr, err := compaction.DecodeProgress(d.bytes())
		if err != nil {
			d.fail()
			return nil
		}
		cs = append(cs, CompactionProgress{Keyspace: name, Progress: pr})
	}
	return cs
}

func encodeRPC(e *encoder, r *RPCReport) {
	e.uvarint(uint64(len(r.Ops)))
	for _, o := range r.Ops {
		e.u8(uint8(o.Op))
		e.varint(o.Count)
		e.varint(o.Errs)
		e.varint(o.DecodeNs)
		e.varint(o.QueueNs)
		e.varint(o.ServiceNs)
		e.varint(o.VirtualNs)
		e.varint(o.WriteNs)
	}
	e.varint(r.Accepted)
	e.varint(r.Shed)
	e.varint(r.Refused)
	e.varint(r.BadFrames)
	e.varint(r.Coalesced)
	e.varint(r.Batches)
	e.varint(r.SlowOps)
}

func decodeRPC(d *decoder) *RPCReport {
	r := &RPCReport{}
	n := d.count(8)
	for i := 0; i < n && d.err == nil; i++ {
		r.Ops = append(r.Ops, RPCOpStats{
			Op:        Op(d.u8()),
			Count:     d.varint(),
			Errs:      d.varint(),
			DecodeNs:  d.varint(),
			QueueNs:   d.varint(),
			ServiceNs: d.varint(),
			VirtualNs: d.varint(),
			WriteNs:   d.varint(),
		})
	}
	r.Accepted = d.varint()
	r.Shed = d.varint()
	r.Refused = d.varint()
	r.BadFrames = d.varint()
	r.Coalesced = d.varint()
	r.Batches = d.varint()
	r.SlowOps = d.varint()
	if d.err != nil {
		return nil
	}
	return r
}

func decodeStats(d *decoder) *StatsReport {
	s := &StatsReport{
		Devices:      uint32(d.uvarint()),
		Commands:     d.varint(),
		MediaRead:    d.varint(),
		MediaWrite:   d.varint(),
		HostToDevice: d.varint(),
		DeviceToHost: d.varint(),
		AppWrite:     d.varint(),
		VirtualNanos: d.varint(),
	}
	n := d.count(3)
	for i := 0; i < n && d.err == nil; i++ {
		s.Health = append(s.Health, DeviceHealth{
			ID:       uint32(d.uvarint()),
			Down:     d.boolean(),
			Failures: uint32(d.uvarint()),
		})
	}
	if d.boolean() {
		s.RPC = decodeRPC(d)
	}
	s.Ring = decodeRing(d)
	s.Tenants = decodeTenants(d)
	s.Compactions = decodeCompactions(d)
	if d.err != nil {
		return nil
	}
	return s
}

// EncodeResponse serializes a response payload alone; AppendResponseFrames
// builds whole frames.
func EncodeResponse(r *Response) []byte {
	var e encoder
	encodeResponse(&e, r)
	return e.b
}

func encodeResponse(e *encoder, r *Response) {
	e.u8(uint8(r.Status))
	e.str(r.Err)
	e.bytes(r.Value)
	e.boolean(r.Exists)
	e.boolean(r.Done)
	encodePairs(e, r.Pairs)
	e.boolean(r.HasInfo)
	if r.HasInfo {
		encodeInfo(e, &r.Info)
	}
	e.boolean(r.Stats != nil)
	if r.Stats != nil {
		encodeStats(e, r.Stats)
	}
	e.str(r.Report)
	e.boolean(r.Replica != nil)
	if r.Replica != nil {
		encodeReplicaReply(e, r.Replica)
	}
	e.boolean(r.Hello != nil)
	if r.Hello != nil {
		encodeHelloReply(e, r.Hello)
	}
	e.boolean(r.Progress != nil)
	if r.Progress != nil {
		e.bytes(compaction.EncodeProgress(*r.Progress))
	}
	e.varint(r.Moved)
}

// DecodeResponse parses a response payload for the given frame header. Byte
// fields of the result are views into payload. With a header from ReadFrame
// the response is pooled with the frame's body and DecodeResponse takes both
// over: valid until Release, and released here when the payload is malformed.
func DecodeResponse(h Header, payload []byte) (*Response, error) {
	r, err := decodeResponse(h, payload, nil)
	if err != nil {
		if h.body != nil {
			h.body.release(false)
		}
		return nil, err
	}
	return r, nil
}

// decodeResponse decodes into the body's pooled response, else into sc's,
// else into a new one.
func decodeResponse(h Header, payload []byte, sc *DecodeScratch) (*Response, error) {
	fb := h.body
	d := decoder{b: payload}
	var r *Response
	switch {
	case fb != nil:
		r = &fb.resp
	case sc != nil:
		r = &sc.resp
	default:
		r = new(Response)
	}
	*r = Response{ID: h.ID, Op: h.Op, Trace: h.Trace,
		Session: h.Session, More: h.Flags&FlagMore != 0, body: fb}
	r.Status = Status(d.u8())
	r.Err = d.str()
	r.Value = d.bytes()
	r.Exists = d.boolean()
	r.Done = d.boolean()
	// The pairs slice goes to the caller with the result: never scratch.
	r.Pairs = decodePairs(&d, nil)
	r.HasInfo = d.boolean()
	if d.err == nil && r.HasInfo {
		r.Info = decodeInfo(&d)
	}
	if d.boolean() {
		r.Stats = decodeStats(&d)
	}
	r.Report = d.str()
	if d.boolean() {
		if sc != nil {
			r.Replica = decodeReplicaReply(&d, &sc.reply)
		} else {
			r.Replica = decodeReplicaReply(&d, new(ReplicaReply))
		}
	}
	if d.boolean() {
		r.Hello = decodeHelloReply(&d)
	}
	if d.boolean() {
		pr, err := compaction.DecodeProgress(d.bytes())
		if err != nil {
			d.fail()
		} else {
			r.Progress = &pr
		}
	}
	r.Moved = d.varint()
	if err := d.done(); err != nil {
		return nil, err
	}
	if fb != nil {
		fb.handOff = d.viewed
	}
	return r, nil
}

// Release ends the response's use of its frame body: the struct is invalid
// afterwards (Detach keeps a copy). Byte slices decoded into it stay valid —
// a body that carries any is handed to whoever holds them instead of going
// back to the pool. It does nothing for a response that was not decoded from
// a ReadFrame body, or on a second call.
func (r *Response) Release() {
	if fb := r.body; fb != nil {
		r.body = nil
		fb.release(fb.handOff)
	}
}

// Detach releases the response and returns a copy of it that owns everything
// it references.
func (r *Response) Detach() Response {
	out := *r
	out.body = nil
	r.Release()
	return out
}

// --- streaming -------------------------------------------------------------

// WriteRequest frames and writes one request (see AppendRequestFrame).
func WriteRequest(w io.Writer, r *Request) error {
	buf, err := AppendRequestFrame(nil, r)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// appendResponseFrame appends one response frame, payload encoded in place.
// The header fields come from hdr, which a streamed chunk does not repeat.
func appendResponseFrame(dst []byte, hdr, r *Response, flags uint8) []byte {
	off := len(dst)
	e := encoder{b: beginFrame(dst)}
	encodeResponse(&e, r)
	return finishFrame(e.b, off, KindResponse, hdr.Op, flags, hdr.ID, hdr.Trace, hdr.Session)
}

// AppendResponseFrames appends the frames of r to dst and returns the
// extended slice, streaming pairs in chunks of chunkPairs per frame (0 =
// everything in one frame). Non-final chunks carry FlagMore and StatusOK; the
// final frame carries the real status and every scalar field — the shape
// clients reassemble in ReadResponse order. Having the bytes first-class is
// what lets the session backlog spill an undeliverable response and later
// replay it byte-identical.
func AppendResponseFrames(dst []byte, r *Response, chunkPairs int) []byte {
	if chunkPairs <= 0 || len(r.Pairs) <= chunkPairs || r.Status != StatusOK {
		return appendResponseFrame(dst, r, r, 0)
	}
	pairs := r.Pairs
	for len(pairs) > chunkPairs {
		chunk := Response{ID: r.ID, Op: r.Op, Status: StatusOK, Pairs: pairs[:chunkPairs]}
		dst = appendResponseFrame(dst, r, &chunk, FlagMore)
		pairs = pairs[chunkPairs:]
	}
	last := *r
	last.Pairs = pairs
	return appendResponseFrame(dst, r, &last, 0)
}

// Accumulate folds a streamed chunk into acc (nil acc starts a new
// accumulation) and reports whether the response is complete. A response that
// arrives whole is returned as it is; the first chunk of a streamed one is
// copied into a fresh accumulator, and the caller releases every chunk it
// folded (pair bytes stay valid — see Response.Release).
func Accumulate(acc, chunk *Response) (*Response, bool) {
	if acc == nil {
		if !chunk.More {
			return chunk, true
		}
		cp := *chunk
		cp.body = nil
		return &cp, false
	}
	acc.Pairs = append(acc.Pairs, chunk.Pairs...)
	if !chunk.More {
		acc.Status = chunk.Status
		acc.Err = chunk.Err
		acc.Value = chunk.Value
		acc.Exists = chunk.Exists
		acc.Done = chunk.Done
		acc.HasInfo = chunk.HasInfo
		acc.Info = chunk.Info
		acc.Stats = chunk.Stats
		acc.Report = chunk.Report
		acc.Replica = chunk.Replica
		acc.Hello = chunk.Hello
		acc.Progress = chunk.Progress
		acc.Moved = chunk.Moved
		acc.More = false
		return acc, true
	}
	return acc, false
}
