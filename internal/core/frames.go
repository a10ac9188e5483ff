package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"kvcsd/internal/sim"
)

// KLOG durability framing. Every ingest-buffer flush lands in the KLOG as one
// CRC-framed batch:
//
//	magic u32 ("KVFR") | plen u32 | crc32 u32 | payload
//
// A power cut can tear a frame mid-append; the frame's checksum then fails
// and recovery truncates the log at the last whole frame. The keyspace tracks
// which byte ranges of its KLOG hold validated frames (frameExtents); crash
// recovery may leave holes of dead bytes between extents, and all KLOG
// readers iterate extents rather than raw cluster bytes.

const (
	logFrameMagic = 0x4b564652 // "KVFR"
	logFrameHdr   = 12
)

// frameExtent is a half-open byte range [Start, End) of a log cluster known
// to hold contiguous, CRC-valid frames.
type frameExtent struct {
	Start, End int64
}

// appendExtent extends the last extent when the new range abuts it, else
// starts a new extent (a hole — only crash recovery creates those).
func appendExtent(exts []frameExtent, start, end int64) []frameExtent {
	if n := len(exts); n > 0 && exts[n-1].End == start {
		exts[n-1].End = end
		return exts
	}
	return append(exts, frameExtent{Start: start, End: end})
}

// logFrameReserve is the room a flush leaves at the front of its KLOG buffer
// for the frame header appendLogFrame writes there.
var logFrameReserve [logFrameHdr]byte

// appendLogFrame appends one CRC-framed flush batch to the keyspace's KLOG
// and extends its valid-frame extents. frame is the batch's records behind
// logFrameHdr reserved bytes, which become the header in place.
func (ks *Keyspace) appendLogFrame(p *sim.Proc, frame []byte) error {
	payload := frame[logFrameHdr:]
	binary.LittleEndian.PutUint32(frame[0:], logFrameMagic)
	binary.LittleEndian.PutUint32(frame[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[8:], crc32.ChecksumIEEE(payload))
	start := ks.klog.Len()
	if err := ks.klog.Append(p, frame); err != nil {
		return err
	}
	ks.logFrames = appendExtent(ks.logFrames, start, ks.klog.Len())
	return nil
}

// logFrameReader reads log frames into one buffer it reuses, or, with win
// set, out of that window; a payload it returns is valid until its next read.
type logFrameReader struct {
	buf []byte
	win *clusterWindow
}

// read reads and verifies one frame at off; limit bounds how far the frame
// may extend. Returns (payload, frameBytes, nil) on success and (nil, 0, nil)
// when the bytes at off are not a whole valid frame.
func (r *logFrameReader) read(p *sim.Proc, c *Cluster, off, limit int64) ([]byte, int64, error) {
	if off+logFrameHdr > limit {
		return nil, 0, nil
	}
	hdr, err := r.span(p, c, off, logFrameHdr)
	if err != nil {
		return nil, 0, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != logFrameMagic {
		return nil, 0, nil
	}
	plen, sum := int64(binary.LittleEndian.Uint32(hdr[4:])), binary.LittleEndian.Uint32(hdr[8:])
	if off+logFrameHdr+plen > limit {
		return nil, 0, nil
	}
	payload, err := r.span(p, c, off+logFrameHdr, int(plen))
	if err != nil {
		return nil, 0, err
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, nil
	}
	return payload, logFrameHdr + plen, nil
}

// span returns the n bytes of c at off: out of the window, or read into the
// reader's buffer.
func (r *logFrameReader) span(p *sim.Proc, c *Cluster, off int64, n int) ([]byte, error) {
	if r.win != nil {
		return r.win.read(p, off, n)
	}
	r.buf = slices.Grow(r.buf[:0], n)[:n]
	return r.buf, c.ReadAt(p, r.buf, off)
}

// frameSource streams records of type T out of a log cluster's valid frame
// extents, verifying each frame's magic and checksum before decoding. Records
// never span frames (one frame per flush batch), so each payload decodes with
// atEOF semantics. Every frame is read into the same buffer, or, when pf
// reads the extents ahead, parsed out of a window over it, so a record is
// valid until the next call to next (see recordSource).
type frameSource[T any] struct {
	c       *Cluster
	codec   Codec[T]
	extents []frameExtent
	ei      int
	off     int64
	frames  logFrameReader
	pf      *prefetcher // the caller stops it
	payload []byte
	pos     int
	last    int // start of the record handed out last, within payload
}

func newFrameSource[T any](c *Cluster, codec Codec[T], extents []frameExtent, pl pipeline) *frameSource[T] {
	s := &frameSource[T]{c: c, codec: codec, extents: extents}
	if n := len(extents); n > 0 {
		s.off = extents[0].Start
		if pl.on() {
			s.pf = pl.prefetch(span{c, s.off, extents[n-1].End})
			s.frames.win = &clusterWindow{c: c, pf: s.pf, winOff: s.off}
		}
	}
	return s
}

func (s *frameSource[T]) next(p *sim.Proc) (rec T, ok bool, err error) {
	poison(s.payload[s.last:s.pos])
	for {
		if s.pos < len(s.payload) {
			r, n, derr := s.codec.Decode(s.payload[s.pos:], true)
			if derr != nil {
				return rec, false, derr
			}
			if n == 0 {
				return rec, false, fmt.Errorf("%w: trailing %d bytes in frame", ErrRecordCorrupt, len(s.payload)-s.pos)
			}
			s.last = s.pos
			s.pos += n
			return r, true, nil
		}
		if s.ei >= len(s.extents) {
			return rec, false, nil
		}
		ext := s.extents[s.ei]
		if s.off >= ext.End {
			s.ei++
			if s.ei < len(s.extents) {
				s.off = s.extents[s.ei].Start
			}
			continue
		}
		payload, n, err := s.frames.read(p, s.c, s.off, ext.End)
		if err != nil {
			return rec, false, err
		}
		if n == 0 {
			return rec, false, fmt.Errorf("%w: invalid frame at %d inside validated extent", ErrRecordCorrupt, s.off)
		}
		s.payload, s.pos, s.last = payload, 0, 0
		s.off += n
	}
}
