// Package keyenc provides order-preserving key encodings shared by the
// KV-CSD device engine and the software baseline.
//
// Keys are compared bytewise (bytes.Compare); the encoders here map numeric
// types onto byte strings such that the bytewise order equals the numeric
// order. This matches the paper's secondary-index model, where an application
// declares "bytes [off, off+len) of the value are a 32-bit integer" and the
// device sorts extracted keys to build the SIDX.
package keyenc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// Compare orders two keys bytewise; shorter prefixes sort first.
func Compare(a, b []byte) int { return bytes.Compare(a, b) }

// PutUint32 encodes v big-endian so bytewise order preserves numeric order.
func PutUint32(v uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return b[:]
}

// Uint32 decodes a key written by PutUint32.
func Uint32(b []byte) uint32 { return binary.BigEndian.Uint32(b) }

// PutUint64 encodes v big-endian so bytewise order preserves numeric order.
func PutUint64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// Uint64 decodes a key written by PutUint64.
func Uint64(b []byte) uint64 { return binary.BigEndian.Uint64(b) }

// PutInt32 encodes a signed 32-bit integer order-preservingly by flipping the
// sign bit before big-endian encoding.
func PutInt32(v int32) []byte {
	return PutUint32(uint32(v) ^ 0x80000000)
}

// Int32 decodes a key written by PutInt32.
func Int32(b []byte) int32 {
	return int32(Uint32(b) ^ 0x80000000)
}

// PutInt64 encodes a signed 64-bit integer order-preservingly.
func PutInt64(v int64) []byte {
	return PutUint64(uint64(v) ^ (1 << 63))
}

// Int64 decodes a key written by PutInt64.
func Int64(b []byte) int64 {
	return int64(Uint64(b) ^ (1 << 63))
}

// PutFloat32 encodes an IEEE-754 float32 order-preservingly (total order with
// -0 < +0 treated by bit pattern; NaNs sort above +Inf).
func PutFloat32(v float32) []byte {
	return PutUint32(orderFloat32(math.Float32bits(v)))
}

// orderFloat32 maps float32 bits onto a uint32 whose unsigned order is the
// float order.
func orderFloat32(bits uint32) uint32 {
	if bits&(1<<31) != 0 {
		return ^bits // negative: flip all bits
	}
	return bits | 1<<31 // positive: flip sign bit
}

// Float32 decodes a key written by PutFloat32.
func Float32(b []byte) float32 {
	bits := Uint32(b)
	if bits&(1<<31) != 0 {
		bits &^= 1 << 31
	} else {
		bits = ^bits
	}
	return math.Float32frombits(bits)
}

// PutFloat64 encodes an IEEE-754 float64 order-preservingly.
func PutFloat64(v float64) []byte {
	return PutUint64(orderFloat64(math.Float64bits(v)))
}

// orderFloat64 is orderFloat32 for float64 bits.
func orderFloat64(bits uint64) uint64 {
	if bits&(1<<63) != 0 {
		return ^bits
	}
	return bits | 1<<63
}

// Float64 decodes a key written by PutFloat64.
func Float64(b []byte) float64 {
	bits := Uint64(b)
	if bits&(1<<63) != 0 {
		bits &^= 1 << 63
	} else {
		bits = ^bits
	}
	return math.Float64frombits(bits)
}

// FixedKey16 is the paper's 16-byte particle/record identifier key.
type FixedKey16 [16]byte

// MakeFixedKey16 builds a 16-byte key from a 64-bit id (high 8 bytes zero,
// low 8 bytes big-endian id) so ids sort numerically.
func MakeFixedKey16(id uint64) FixedKey16 {
	var k FixedKey16
	binary.BigEndian.PutUint64(k[8:], id)
	return k
}

// ID extracts the 64-bit id from a key built by MakeFixedKey16.
func (k FixedKey16) ID() uint64 { return binary.BigEndian.Uint64(k[8:]) }

// Bytes returns the key as a slice (a copy is not made; do not mutate).
func (k FixedKey16) Bytes() []byte { return k[:] }

// SecondaryType identifies how secondary-index key bytes inside a value are
// interpreted, matching the paper's "byte range and type" configuration.
type SecondaryType uint8

// Supported secondary key types.
const (
	TypeBytes SecondaryType = iota // raw bytes, compared bytewise
	TypeUint32
	TypeInt32
	TypeUint64
	TypeInt64
	TypeFloat32
	TypeFloat64
)

// String names the type.
func (t SecondaryType) String() string {
	switch t {
	case TypeBytes:
		return "bytes"
	case TypeUint32:
		return "uint32"
	case TypeInt32:
		return "int32"
	case TypeUint64:
		return "uint64"
	case TypeInt64:
		return "int64"
	case TypeFloat32:
		return "float32"
	case TypeFloat64:
		return "float64"
	default:
		return fmt.Sprintf("SecondaryType(%d)", uint8(t))
	}
}

// Width returns the byte width of fixed-size types, or 0 for TypeBytes.
func (t SecondaryType) Width() int {
	switch t {
	case TypeUint32, TypeInt32, TypeFloat32:
		return 4
	case TypeUint64, TypeInt64, TypeFloat64:
		return 8
	default:
		return 0
	}
}

// Normalize converts the raw value bytes of a secondary field into an
// order-preserving key. For TypeBytes it returns a copy of raw; for numeric
// types raw must be a little-endian machine encoding of the declared width
// (how a simulation writes struct fields), and the result compares in numeric
// order.
func (t SecondaryType) Normalize(raw []byte) ([]byte, error) {
	return t.AppendNormalized(nil, raw)
}

// AppendNormalized appends the key Normalize returns for raw to dst and
// returns the extended slice (dst unchanged on error), so a caller that
// normalizes one field after another can reuse one buffer.
func (t SecondaryType) AppendNormalized(dst, raw []byte) ([]byte, error) {
	if w := t.Width(); w != 0 && len(raw) != w {
		return dst, fmt.Errorf("keyenc: %s field requires %d bytes, got %d", t, w, len(raw))
	}
	be := binary.BigEndian
	switch t {
	case TypeBytes:
		return append(dst, raw...), nil
	case TypeUint32:
		return be.AppendUint32(dst, binary.LittleEndian.Uint32(raw)), nil
	case TypeInt32:
		return be.AppendUint32(dst, binary.LittleEndian.Uint32(raw)^0x80000000), nil
	case TypeUint64:
		return be.AppendUint64(dst, binary.LittleEndian.Uint64(raw)), nil
	case TypeInt64:
		return be.AppendUint64(dst, binary.LittleEndian.Uint64(raw)^(1<<63)), nil
	case TypeFloat32:
		return be.AppendUint32(dst, orderFloat32(binary.LittleEndian.Uint32(raw))), nil
	case TypeFloat64:
		return be.AppendUint64(dst, orderFloat64(binary.LittleEndian.Uint64(raw))), nil
	default:
		return dst, fmt.Errorf("keyenc: unknown secondary type %d", uint8(t))
	}
}
