package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"kvcsd/internal/codec"
	"kvcsd/internal/compaction"
	"kvcsd/internal/keyenc"
	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
)

// Payload encoding: a flat field sequence per message type, written and read
// with internal/codec. Variable-length byte strings and lists are
// uvarint-length-prefixed; integers are uvarint (values) or zig-zag varints
// (counters that can be negative). Decoding follows codec's rules, so
// malformed input yields ErrDecode, never a panic, and an accepted payload
// re-encodes to itself — the frame-decoder fuzz target holds the package to
// both.

// ErrDecode reports a structurally invalid payload.
var ErrDecode = errors.New("wire: malformed payload")

// decoder walks one payload. Byte fields it returns are views into the
// payload, not copies (see "Who owns a frame buffer" in frame.go).
type decoder struct {
	codec.Decoder
	// viewed is set once a non-empty byte view has been handed out: the
	// decoded struct then keeps the payload's backing store alive.
	viewed bool
}

func (d *decoder) bytes() []byte {
	v := d.Bytes()
	if v != nil {
		d.viewed = true
	}
	return v
}

func (d *decoder) str() string { return string(d.Bytes()) }

// strLike reads a string, returning prev itself when the bytes spell it —
// strings are copies, and a caller that decodes the same name again and
// again (a keyspace) passes the last one to save the allocation.
func (d *decoder) strLike(prev string) string {
	if v := d.Bytes(); string(v) != prev {
		return string(v)
	}
	return prev
}

func (d *decoder) u32() uint32 { return uint32(d.Uint(math.MaxUint32)) }

// int reads an int written as the uvarint of its bits, so every int — a
// negative one too — crosses unchanged.
func (d *decoder) int() int { return int(d.Uvarint()) }

func (d *decoder) done() error {
	if err := d.Done(); err != nil {
		return fmt.Errorf("%w: %v", ErrDecode, err)
	}
	return nil
}

// --- pairs -----------------------------------------------------------------

func appendPairs(b []byte, pairs []nvme.KVPair) []byte {
	b = binary.AppendUvarint(b, uint64(len(pairs)))
	for _, p := range pairs {
		b = codec.AppendBytes(b, p.Key)
		b = codec.AppendBytes(b, p.Value)
		b = codec.AppendBool(b, p.Tombstone)
	}
	return b
}

// decodePairs appends the decoded pairs to scratch[:0] (nil allocates).
func decodePairs(d *decoder, scratch []nvme.KVPair) []nvme.KVPair {
	n := d.Count(3)
	if n == 0 {
		return nil
	}
	pairs := scratch[:0]
	if cap(pairs) < n {
		pairs = make([]nvme.KVPair, 0, n)
	}
	for range n {
		pairs = append(pairs, nvme.KVPair{Key: d.bytes(), Value: d.bytes(), Tombstone: d.Bool()})
	}
	return pairs
}

func appendIndexSpec(b []byte, s nvme.SecondaryIndexSpec) []byte {
	b = codec.AppendBytes(b, s.Name)
	b = binary.AppendUvarint(b, uint64(s.Offset))
	b = binary.AppendUvarint(b, uint64(s.Length))
	return append(b, uint8(s.Type))
}

func decodeIndexSpec(d *decoder) nvme.SecondaryIndexSpec {
	return nvme.SecondaryIndexSpec{
		Name:   d.str(),
		Offset: d.int(),
		Length: d.int(),
		Type:   keyenc.SecondaryType(d.U8()),
	}
}

// --- request ---------------------------------------------------------------

// EncodeRequest serializes a request payload alone (everything but the frame
// header, which carries ID and Op). AppendRequestFrame builds whole frames.
func EncodeRequest(r *Request) []byte { return appendRequest(nil, r) }

// AppendRequestFrame appends r as one complete frame to dst — the payload is
// encoded in place behind the reserved header, carrying the request's trace
// context, session token and lane override — and returns the extended slice.
// A payload over MaxPayload leaves dst as it was.
func AppendRequestFrame(dst []byte, r *Request) ([]byte, error) {
	off := len(dst)
	b := appendRequest(beginFrame(dst), r)
	if len(b)-off-HeaderSize > MaxPayload {
		return dst, ErrFrameTooLarge
	}
	flags := laneFlags(r.Lane)
	if r.Wait {
		flags |= FlagWait
	}
	return finishFrame(b, off, KindRequest, r.Op, flags, r.ID, r.Trace, r.Session), nil
}

func appendRequest(b []byte, r *Request) []byte {
	b = codec.AppendBytes(b, r.Keyspace)
	b = codec.AppendBytes(b, r.Key)
	b = codec.AppendBytes(b, r.Value)
	b = codec.AppendBytes(b, r.Low)
	b = codec.AppendBytes(b, r.High)
	b = appendPairs(b, r.Pairs)
	b = appendIndexSpec(b, r.Index)
	b = binary.AppendUvarint(b, uint64(len(r.Indexes)))
	for _, ix := range r.Indexes {
		b = appendIndexSpec(b, ix)
	}
	b = binary.AppendUvarint(b, uint64(r.Limit))
	b = binary.AppendUvarint(b, uint64(r.Parts))
	b = binary.AppendUvarint(b, uint64(r.Device))
	b = codec.AppendBool(b, r.Replica != nil)
	if r.Replica != nil {
		b = appendReplicaMsg(b, r.Replica)
	}
	b = codec.AppendBool(b, r.Hello != nil)
	if r.Hello != nil {
		b = appendHelloMsg(b, r.Hello)
	}
	b = codec.AppendBool(b, r.Extent != nil)
	if r.Extent != nil {
		b = append(b, r.Extent.Kind)
		b = codec.AppendBytes(b, r.Extent.Index)
		b = binary.AppendVarint(b, r.Extent.Granule)
		b = binary.AppendUvarint(b, uint64(r.Extent.Bits))
	}
	return b
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
	wait := h.Flags&FlagWait != 0
	if wait && h.Op != OpCompactStatus && h.Op != OpIndexStatus {
		return nil, fmt.Errorf("%w: wait flag on %s", ErrDecode, h.Op)
	}
	d := decoder{Decoder: codec.NewDecoder(payload)}
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
		Session: h.Session, Lane: laneFromFlags(h.Flags), Wait: wait, body: fb}
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
	for range d.Count(4) {
		r.Indexes = append(r.Indexes, decodeIndexSpec(&d))
	}
	r.Limit = d.u32()
	r.Parts = d.u32()
	r.Device = d.u32()
	if d.Bool() {
		if sc != nil {
			r.Replica = decodeReplicaMsg(&d, &sc.msg)
		} else {
			r.Replica = decodeReplicaMsg(&d, new(ReplicaMsg))
		}
	}
	if d.Bool() {
		r.Hello = decodeHelloMsg(&d)
	}
	if d.Bool() {
		r.Extent = &nvme.ExtentAddr{
			Kind:    d.U8(),
			Index:   d.str(),
			Granule: d.Varint(),
			Bits:    int(d.u32()),
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

func appendInfo(b []byte, info *nvme.KeyspaceInfo) []byte {
	b = codec.AppendBytes(b, info.Name)
	b = codec.AppendBytes(b, info.State)
	b = binary.AppendVarint(b, info.Pairs)
	b = binary.AppendVarint(b, info.Bytes)
	b = codec.AppendBytes(b, info.MinKey)
	b = codec.AppendBytes(b, info.MaxKey)
	b = binary.AppendUvarint(b, uint64(len(info.Secondary)))
	for _, s := range info.Secondary {
		b = codec.AppendBytes(b, s)
	}
	b = binary.AppendUvarint(b, uint64(info.ZoneCount))
	return binary.AppendVarint(b, int64(info.CompactDur))
}

func decodeInfo(d *decoder) nvme.KeyspaceInfo {
	var info nvme.KeyspaceInfo
	info.Name = d.str()
	info.State = d.str()
	info.Pairs = d.Varint()
	info.Bytes = d.Varint()
	info.MinKey = d.bytes()
	info.MaxKey = d.bytes()
	for range d.Count(1) {
		info.Secondary = append(info.Secondary, d.str())
	}
	info.ZoneCount = d.int()
	info.CompactDur = sim.Time(d.Varint())
	return info
}

func appendStats(b []byte, s *StatsReport) []byte {
	b = binary.AppendUvarint(b, uint64(s.Devices))
	b = binary.AppendVarint(b, s.Commands)
	b = binary.AppendVarint(b, s.MediaRead)
	b = binary.AppendVarint(b, s.MediaWrite)
	b = binary.AppendVarint(b, s.HostToDevice)
	b = binary.AppendVarint(b, s.DeviceToHost)
	b = binary.AppendVarint(b, s.AppWrite)
	b = binary.AppendVarint(b, s.VirtualNanos)
	b = binary.AppendUvarint(b, uint64(len(s.Health)))
	for _, h := range s.Health {
		b = binary.AppendUvarint(b, uint64(h.ID))
		b = codec.AppendBool(b, h.Down)
		b = binary.AppendUvarint(b, uint64(h.Failures))
	}
	b = codec.AppendBool(b, s.RPC != nil)
	if s.RPC != nil {
		b = appendRPC(b, s.RPC)
	}
	b = appendRing(b, s.Ring)
	b = appendTenants(b, s.Tenants)
	return appendCompactions(b, s.Compactions)
}

func appendCompactions(b []byte, cs []compaction.KeyspaceProgress) []byte {
	b = binary.AppendUvarint(b, uint64(len(cs)))
	for _, c := range cs {
		b = codec.AppendBytes(b, c.Keyspace)
		b = codec.AppendBytes(b, compaction.EncodeProgress(c.Progress))
	}
	return b
}

func decodeCompactions(d *decoder) []compaction.KeyspaceProgress {
	var cs []compaction.KeyspaceProgress
	for range d.Count(9) {
		name := d.str()
		cs = append(cs, compaction.KeyspaceProgress{Keyspace: name, Progress: decodeProgress(d)})
	}
	return cs
}

// decodeProgress reads a length-prefixed compaction.Progress.
func decodeProgress(d *decoder) compaction.Progress {
	pr, err := compaction.DecodeProgress(d.bytes())
	if err != nil {
		d.Fail(err)
	}
	return pr
}

func appendRPC(b []byte, r *RPCReport) []byte {
	b = binary.AppendUvarint(b, uint64(len(r.Ops)))
	for _, o := range r.Ops {
		b = append(b, uint8(o.Op))
		b = binary.AppendVarint(b, o.Count)
		b = binary.AppendVarint(b, o.Errs)
		b = binary.AppendVarint(b, o.DecodeNs)
		b = binary.AppendVarint(b, o.QueueNs)
		b = binary.AppendVarint(b, o.ServiceNs)
		b = binary.AppendVarint(b, o.VirtualNs)
		b = binary.AppendVarint(b, o.WriteNs)
	}
	b = binary.AppendVarint(b, r.Accepted)
	b = binary.AppendVarint(b, r.Shed)
	b = binary.AppendVarint(b, r.Refused)
	b = binary.AppendVarint(b, r.BadFrames)
	b = binary.AppendVarint(b, r.Coalesced)
	b = binary.AppendVarint(b, r.Batches)
	return binary.AppendVarint(b, r.SlowOps)
}

func decodeRPC(d *decoder) *RPCReport {
	r := &RPCReport{}
	for range d.Count(8) {
		r.Ops = append(r.Ops, RPCOpStats{
			Op:        Op(d.U8()),
			Count:     d.Varint(),
			Errs:      d.Varint(),
			DecodeNs:  d.Varint(),
			QueueNs:   d.Varint(),
			ServiceNs: d.Varint(),
			VirtualNs: d.Varint(),
			WriteNs:   d.Varint(),
		})
	}
	r.Accepted = d.Varint()
	r.Shed = d.Varint()
	r.Refused = d.Varint()
	r.BadFrames = d.Varint()
	r.Coalesced = d.Varint()
	r.Batches = d.Varint()
	r.SlowOps = d.Varint()
	return r
}

func decodeStats(d *decoder) *StatsReport {
	s := &StatsReport{
		Devices:      d.u32(),
		Commands:     d.Varint(),
		MediaRead:    d.Varint(),
		MediaWrite:   d.Varint(),
		HostToDevice: d.Varint(),
		DeviceToHost: d.Varint(),
		AppWrite:     d.Varint(),
		VirtualNanos: d.Varint(),
	}
	for range d.Count(3) {
		s.Health = append(s.Health, DeviceHealth{
			ID:       d.u32(),
			Down:     d.Bool(),
			Failures: d.u32(),
		})
	}
	if d.Bool() {
		s.RPC = decodeRPC(d)
	}
	s.Ring = decodeRing(d)
	s.Tenants = decodeTenants(d)
	s.Compactions = decodeCompactions(d)
	return s
}

// EncodeResponse serializes a response payload alone; AppendResponseFrames
// builds whole frames.
func EncodeResponse(r *Response) []byte { return appendResponse(nil, r) }

func appendResponse(b []byte, r *Response) []byte {
	b = append(b, uint8(r.Status))
	b = codec.AppendBytes(b, r.Err)
	b = codec.AppendBytes(b, r.Value)
	b = codec.AppendBool(b, r.Exists)
	b = codec.AppendBool(b, r.Done)
	b = appendPairs(b, r.Pairs)
	b = codec.AppendBool(b, r.HasInfo)
	if r.HasInfo {
		b = appendInfo(b, &r.Info)
	}
	b = codec.AppendBool(b, r.Stats != nil)
	if r.Stats != nil {
		b = appendStats(b, r.Stats)
	}
	b = codec.AppendBytes(b, r.Report)
	b = codec.AppendBool(b, r.Replica != nil)
	if r.Replica != nil {
		b = appendReplicaReply(b, r.Replica)
	}
	b = codec.AppendBool(b, r.Hello != nil)
	if r.Hello != nil {
		b = appendHelloReply(b, r.Hello)
	}
	b = codec.AppendBool(b, r.Progress != nil)
	if r.Progress != nil {
		b = codec.AppendBytes(b, compaction.EncodeProgress(*r.Progress))
	}
	return binary.AppendVarint(b, r.Moved)
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
	d := decoder{Decoder: codec.NewDecoder(payload)}
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
	r.Status = Status(d.U8())
	r.Err = d.str()
	r.Value = d.bytes()
	r.Exists = d.Bool()
	r.Done = d.Bool()
	// The pairs slice goes to the caller with the result: never scratch.
	r.Pairs = decodePairs(&d, nil)
	r.HasInfo = d.Bool()
	if r.HasInfo {
		r.Info = decodeInfo(&d)
	}
	if d.Bool() {
		r.Stats = decodeStats(&d)
	}
	r.Report = d.str()
	if d.Bool() {
		if sc != nil {
			r.Replica = decodeReplicaReply(&d, &sc.reply)
		} else {
			r.Replica = decodeReplicaReply(&d, new(ReplicaReply))
		}
	}
	if d.Bool() {
		r.Hello = decodeHelloReply(&d)
	}
	if d.Bool() {
		pr := decodeProgress(&d)
		r.Progress = &pr
	}
	r.Moved = d.Varint()
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
	b := appendResponse(beginFrame(dst), r)
	return finishFrame(b, off, KindResponse, hdr.Op, flags, hdr.ID, hdr.Trace, hdr.Session)
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
