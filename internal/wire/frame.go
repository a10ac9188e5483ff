package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"kvcsd/internal/nvme"
)

// Frame layout (little-endian, version 4):
//
//	offset  size  field
//	0       4     magic
//	4       1     version
//	5       1     kind (request / response)
//	6       1     opcode
//	7       1     flags
//	8       8     request ID
//	16      8     trace ID (0 = untraced)
//	24      8     sender span ID (0 = untraced)
//	32      8     session token (0 = unsessioned)
//	40      4     payload length N
//	44      N     payload
//	44+N    4     CRC32-C over bytes [0, 44+N)
//
// The trace fields live in the fixed header rather than the payload so every
// frame — including malformed-payload rejections — stays attributable to the
// client span that caused it. The session token lives there for the same
// reason: admission control must classify a frame (tenant, lane, session)
// before it decodes the payload, and a rejection must still be chargeable to
// the session that sent it.
//
// The CRC covers header and payload, so a flipped bit anywhere in the frame
// is detected; the length prefix keeps the stream parseable after a frame is
// rejected only if the length itself was intact, so both ends treat any
// framing error as fatal for the connection.
//
// # Who owns a frame buffer
//
// Every frame has one buffer with one owner, from socket to socket.
//
// Writing: AppendRequestFrame and AppendResponseFrames encode the payload in
// place behind a reserved header into a buffer the caller supplies and keeps
// (a connection's write buffer); nothing in this package retains it.
//
// Reading: ReadFrame fills a pooled body. DecodeRequest and DecodeResponse
// take that body over and return a struct pooled with it whose byte fields
// (Key, Value, Low, High, pair keys and values, …) are views into the body,
// not copies. The struct and everything it views are valid until Release:
//
//   - A request body belongs to the server task built from it and is released
//     by the connection's writer after the response is on the socket. Code that
//     keeps request bytes past that point — a log entry, a staged pair, a hint
//     — must copy them. Bytes retained as a frame (a session backlog entry, a
//     replayed duplicate) are copies too, never views of a write buffer.
//   - A response body that carries bytes the caller asked for (a value, pairs,
//     key bounds) is handed to the caller on Release: it becomes the backing
//     store of those slices and the garbage collector's to free. A response
//     with no such bytes goes back to the pool.
//
// A frame parsed in memory with ParseFrame has no pooled body: its views alias
// the caller's bytes and Release does nothing. Not calling Release is always
// safe; it only costs the allocation the pool would have saved.

// Framing errors.
var (
	ErrBadMagic      = errors.New("wire: bad frame magic")
	ErrBadVersion    = errors.New("wire: unsupported protocol version")
	ErrBadKind       = errors.New("wire: unknown frame kind")
	ErrFrameTooLarge = errors.New("wire: frame payload exceeds limit")
	ErrFrameCorrupt  = errors.New("wire: frame CRC mismatch")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Header is a decoded frame header.
type Header struct {
	Kind    Kind
	Op      Op
	Flags   uint8
	ID      uint64
	Trace   TraceContext
	Session uint64
	Len     uint32

	// body is the pooled body ReadFrame filled for this frame; nil for a
	// header parsed from bytes in memory or built by hand.
	body *frameBody
}

// frameBody is the unit the read path pools: the payload buffer of one frame
// and the request or response struct decoded from it.
type frameBody struct {
	hdr  [HeaderSize]byte
	buf  []byte
	req  Request
	resp Response
	// keyspace is the last keyspace name decoded into req: a connection
	// mostly names the same one, and reusing the string saves its allocation.
	keyspace string
	// pairs is req.Pairs' backing store, kept across releases.
	pairs []nvme.KVPair
	// handOff is set when resp views bytes of buf the caller will keep.
	handOff bool
}

// MaxKeptBuffer bounds the buffers the frame path keeps for reuse — a pooled
// body here, a connection's write buffer in server and remote: one unusually
// large frame does not stay pinned once it is done. It fits a bulk message.
const MaxKeptBuffer = 256 << 10

// maxPooledPairs bounds the pair scratch kept with a pooled body the same way.
const maxPooledPairs = 4096

var bodyPool = sync.Pool{New: func() any { return new(frameBody) }}

// poisonByte overwrites released bodies when poisonReleased is set.
const poisonByte = 0xDB

// poisonReleased makes release overwrite every body with poisonByte before it
// re-enters the pool, so a view used after its Release reads garbage instead
// of plausible bytes. It is on in race-detector builds and in this package's
// own tests.
var poisonReleased = raceEnabled

// Poison overwrites a buffer that is about to be reused, in builds that poison
// (see poisonReleased) and nowhere else: whoever still holds a view into it
// then reads garbage, not the bytes of the frame before.
func Poison(b []byte) {
	if poisonReleased {
		b = b[:cap(b)]
		for i := range b {
			b[i] = poisonByte
		}
	}
}

// release returns fb to the pool. With handOff the buffer stays with whoever
// holds views into it.
func (fb *frameBody) release(handOff bool) {
	if handOff || cap(fb.buf) > MaxKeptBuffer {
		fb.buf = nil
	}
	Poison(fb.buf)
	// req.Pairs is backed by fb.pairs: drop the views it holds, keep the array.
	clear(fb.req.Pairs)
	if cap(fb.pairs) > maxPooledPairs {
		fb.pairs = nil
	}
	fb.req, fb.resp, fb.handOff = Request{}, Response{}, false
	bodyPool.Put(fb)
}

// beginFrame reserves a frame header at the end of dst; the payload is
// appended after it and finishFrame closes the frame.
func beginFrame(dst []byte) []byte {
	var hdr [HeaderSize]byte
	return append(dst, hdr[:]...)
}

// finishFrame fills in the header reserved at dst[off:] — the payload is
// everything after it — and appends the CRC trailer.
func finishFrame(dst []byte, off int, kind Kind, op Op, flags uint8, id uint64, tc TraceContext, session uint64) []byte {
	b := dst[off:]
	binary.LittleEndian.PutUint32(b[0:], Magic)
	b[4] = Version
	b[5] = byte(kind)
	b[6] = byte(op)
	b[7] = flags
	binary.LittleEndian.PutUint64(b[8:], id)
	binary.LittleEndian.PutUint64(b[16:], tc.TraceID)
	binary.LittleEndian.PutUint64(b[24:], tc.SpanID)
	binary.LittleEndian.PutUint64(b[32:], session)
	binary.LittleEndian.PutUint32(b[40:], uint32(len(b)-HeaderSize))
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(b, castagnoli))
}

// AppendFrameFull appends a complete frame around an already encoded payload
// to dst and returns the extended slice. Requests and responses are framed by
// AppendRequestFrame and AppendResponseFrames, which encode in place; this is
// for payload bytes that exist already.
func AppendFrameFull(dst []byte, kind Kind, op Op, flags uint8, id uint64, tc TraceContext, session uint64, payload []byte) []byte {
	off := len(dst)
	return finishFrame(append(beginFrame(dst), payload...), off, kind, op, flags, id, tc, session)
}

// parseHeader validates the fixed header in hb.
func parseHeader(hb []byte) (Header, error) {
	if binary.LittleEndian.Uint32(hb[0:]) != Magic {
		return Header{}, ErrBadMagic
	}
	if hb[4] != Version {
		return Header{}, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, hb[4], Version)
	}
	h := Header{
		Kind:  Kind(hb[5]),
		Op:    Op(hb[6]),
		Flags: hb[7],
		ID:    binary.LittleEndian.Uint64(hb[8:]),
		Trace: TraceContext{
			TraceID: binary.LittleEndian.Uint64(hb[16:]),
			SpanID:  binary.LittleEndian.Uint64(hb[24:]),
		},
		Session: binary.LittleEndian.Uint64(hb[32:]),
		Len:     binary.LittleEndian.Uint32(hb[40:]),
	}
	if h.Kind != KindRequest && h.Kind != KindResponse {
		return Header{}, ErrBadKind
	}
	if h.Len > MaxPayload {
		return Header{}, ErrFrameTooLarge
	}
	return h, nil
}

// checkCRC verifies the trailer at the end of body (payload then CRC) against
// the header bytes and the payload.
func checkCRC(hb, body []byte) error {
	n := len(body) - TrailerSize
	crc := crc32.Update(crc32.Checksum(hb, castagnoli), castagnoli, body[:n])
	if crc != binary.LittleEndian.Uint32(body[n:]) {
		return ErrFrameCorrupt
	}
	return nil
}

// ReadFrame reads and validates one frame from r. Truncated input surfaces
// as io.EOF (clean close at a frame boundary) or io.ErrUnexpectedEOF (torn
// mid-frame); corruption surfaces as one of the framing errors. The payload
// returned is a pooled body: pass it with the header to DecodeRequest or
// DecodeResponse, which take it over (see "Who owns a frame buffer").
func ReadFrame(r io.Reader) (Header, []byte, error) {
	fb := bodyPool.Get().(*frameBody)
	h, payload, err := fb.read(r)
	if err != nil {
		fb.release(false)
		return Header{}, nil, err
	}
	h.body = fb
	return h, payload, nil
}

func (fb *frameBody) read(r io.Reader) (Header, []byte, error) {
	if _, err := io.ReadFull(r, fb.hdr[:]); err != nil {
		if errors.Is(err, io.EOF) && err != io.EOF {
			return Header{}, nil, io.ErrUnexpectedEOF
		}
		return Header{}, nil, err
	}
	h, err := parseHeader(fb.hdr[:])
	if err != nil {
		return Header{}, nil, err
	}
	need := int(h.Len) + TrailerSize
	// A response body may end up as the backing store of a value the caller
	// keeps: it must not pin a pooled buffer much larger than the frame.
	if cap(fb.buf) < need || (h.Kind == KindResponse && cap(fb.buf) > 2*need) {
		fb.buf = make([]byte, need)
	}
	body := fb.buf[:need]
	if _, err := io.ReadFull(r, body); err != nil {
		if errors.Is(err, io.EOF) {
			return Header{}, nil, io.ErrUnexpectedEOF
		}
		return Header{}, nil, err
	}
	if err := checkCRC(fb.hdr[:], body); err != nil {
		return Header{}, nil, err
	}
	return h, body[:h.Len:h.Len], nil
}

// ParseFrame validates the frame at the start of b — bytes already in memory,
// such as a consensus frame handed over by the simulated transport — and
// returns its header and its payload as a view into b. Like ReadFrame it
// leaves whatever follows the frame alone; errors are ReadFrame's.
func ParseFrame(b []byte) (Header, []byte, error) {
	if len(b) == 0 {
		return Header{}, nil, io.EOF
	}
	if len(b) < HeaderSize {
		return Header{}, nil, io.ErrUnexpectedEOF
	}
	h, err := parseHeader(b[:HeaderSize])
	if err != nil {
		return Header{}, nil, err
	}
	end := HeaderSize + int(h.Len) + TrailerSize
	if len(b) < end {
		return Header{}, nil, io.ErrUnexpectedEOF
	}
	if err := checkCRC(b[:HeaderSize], b[HeaderSize:end]); err != nil {
		return Header{}, nil, err
	}
	return h, b[HeaderSize : end-TrailerSize : end-TrailerSize], nil
}
