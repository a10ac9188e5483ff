// Package codec is the toolkit every hand-written binary codec in the
// repository shares: two append helpers for the encoding side, and Decoder
// for the other. Integers are appended with encoding/binary's Append
// functions directly.
//
// Decoder's rules make a codec built on it canonical — input it accepts
// re-encodes to exactly itself — and safe on hostile input:
//
//   - varints are minimal: an overlong encoding is refused;
//   - a bool is one byte, 0 or 1;
//   - a list count the remaining bytes cannot hold, at the caller's smallest
//     item size, is refused, so a hostile count never sizes an allocation;
//   - byte fields are views of the input, clipped so appending to one cannot
//     overwrite what follows;
//   - trailing bytes are an error.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// AppendBool appends v as one byte, 1 or 0.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendBytes appends v behind its uvarint length.
func AppendBytes[T string | []byte](b []byte, v T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(v))), v...)
}

var (
	errShort    = errors.New("codec: input ends inside a field")
	errOverlong = errors.New("codec: overlong varint")
	errRange    = errors.New("codec: value out of range")
	errBool     = errors.New("codec: bool is neither 0 nor 1")
	errCount    = errors.New("codec: list count exceeds the input")
)

// Decoder reads the fields of one buffer in order. The first malformed field
// records an error that sticks and empties the buffer, so every later read
// returns a zero value and a codec reads all its fields, then checks once
// with Done.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder returns a Decoder over b.
func NewDecoder(b []byte) Decoder { return Decoder{b: b} }

// Fail records err, unless an earlier error is recorded, and ends the decode.
// A codec uses it for a field that decodes but is not a legal value.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

// Done returns the recorded error, or an error when bytes are left over.
func (d *Decoder) Done() error {
	if d.err == nil && len(d.b) != 0 {
		d.err = fmt.Errorf("codec: %d trailing bytes", len(d.b))
	}
	return d.err
}

// Len returns the number of bytes not yet read.
func (d *Decoder) Len() int { return len(d.b) }

// Take returns the next n bytes as a view.
func (d *Decoder) Take(n int) []byte {
	if n < 0 || n > len(d.b) {
		d.Fail(errShort)
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

// Bytes reads a uvarint-length-prefixed field as a view, nil when empty.
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if n == 0 {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.Fail(errShort)
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

// Uvarint reads a minimally encoded uvarint.
func (d *Decoder) Uvarint() uint64 {
	if b := d.b; len(b) > 0 && b[0] < 0x80 { // one byte, as most fields are
		d.b = b[1:]
		return uint64(b[0])
	}
	return d.longUvarint()
}

func (d *Decoder) longUvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	switch {
	case n == 0:
		d.Fail(errShort)
		return 0
	case n < 0:
		d.Fail(errRange)
		return 0
	case d.b[n-1] == 0:
		d.Fail(errOverlong)
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Varint reads a minimally encoded zig-zag varint.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Uint reads a uvarint and refuses a value above max.
func (d *Decoder) Uint(max uint64) uint64 {
	v := d.Uvarint()
	if v > max {
		d.Fail(errRange)
		return 0
	}
	return v
}

// Count reads a uvarint list length; see Fit.
func (d *Decoder) Count(min int) int { return d.Fit(d.Uvarint(), min) }

// Fit returns n as a list length, refusing one the remaining bytes cannot
// hold at min (at least 1) bytes per item.
func (d *Decoder) Fit(n uint64, min int) int {
	if n > uint64(len(d.b)/min) {
		d.Fail(errCount)
		return 0
	}
	return int(n)
}

// Bool reads one byte that must be 0 or 1.
func (d *Decoder) Bool() bool {
	v := d.U8()
	if v > 1 {
		d.Fail(errBool)
		return false
	}
	return v == 1
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	if len(d.b) == 0 {
		d.Fail(errShort)
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// U16 reads a little-endian uint16.
func (d *Decoder) U16() uint16 {
	if b := d.Take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	if b := d.Take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	if b := d.Take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}
