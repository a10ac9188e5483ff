package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var b []byte
	b = binary.AppendUvarint(b, 300)
	b = binary.AppendVarint(b, -7)
	b = binary.AppendUvarint(b, math.MaxUint64)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendBytes(b, "key")
	b = AppendBytes(b, []byte(nil))
	b = append(b, 9)
	b = binary.LittleEndian.AppendUint16(b, 0xbeef)
	b = binary.LittleEndian.AppendUint32(b, 0xdeadbeef)
	b = binary.LittleEndian.AppendUint64(b, 1<<60)
	b = binary.AppendUvarint(b, 2)
	b = append(b, "xyz"...)

	d := NewDecoder(b)
	if v := d.Uvarint(); v != 300 {
		t.Fatalf("Uvarint = %d", v)
	}
	if v := d.Varint(); v != -7 {
		t.Fatalf("Varint = %d", v)
	}
	if v := d.Uint(math.MaxUint64); v != math.MaxUint64 {
		t.Fatalf("Uint = %d", v)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool")
	}
	if v := d.Bytes(); string(v) != "key" || cap(v) != 3 {
		t.Fatalf("Bytes = %q (cap %d), want a clipped view", v, cap(v))
	}
	if v := d.Bytes(); v != nil {
		t.Fatalf("empty Bytes = %#v, want nil", v)
	}
	if d.U8() != 9 || d.U16() != 0xbeef || d.U32() != 0xdeadbeef || d.U64() != 1<<60 {
		t.Fatal("fixed-width fields")
	}
	if n := d.Count(1); n != 2 {
		t.Fatalf("Count = %d", n)
	}
	if v := d.Take(3); string(v) != "xyz" || d.Len() != 0 {
		t.Fatalf("Take = %q, %d left", v, d.Len())
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestRefuses: each rule refuses its malformed input, and the first error
// sticks while later reads return zero values.
func TestRefuses(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
		read func(d *Decoder)
		want error
	}{
		{"overlong uvarint", []byte{0x80, 0x00}, func(d *Decoder) { d.Uvarint() }, errOverlong},
		{"overlong zero", []byte{0x80, 0x80, 0x00}, func(d *Decoder) { d.Uvarint() }, errOverlong},
		{"overlong varint", []byte{0x81, 0x00}, func(d *Decoder) { d.Varint() }, errOverlong},
		{"uvarint overflow", bytes.Repeat([]byte{0xff}, 11), func(d *Decoder) { d.Uvarint() }, errRange},
		{"truncated uvarint", []byte{0x80}, func(d *Decoder) { d.Uvarint() }, errShort},
		{"above max", []byte{0x80, 0x02}, func(d *Decoder) { d.Uint(255) }, errRange},
		{"bool 2", []byte{2}, func(d *Decoder) { d.Bool() }, errBool},
		{"short bytes", []byte{4, 'a', 'b'}, func(d *Decoder) { d.Bytes() }, errShort},
		{"short u32", []byte{1, 2, 3}, func(d *Decoder) { d.U32() }, errShort},
		{"negative take", []byte{1}, func(d *Decoder) { d.Take(-1) }, errShort},
		{"count too long", []byte{3, 0, 0, 0, 0, 0}, func(d *Decoder) { d.Count(3) }, errCount},
		{"fit too long", []byte{0, 0, 0}, func(d *Decoder) { d.Fit(4, 1) }, errCount},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDecoder(tc.in)
			tc.read(&d)
			if d.U8() != 0 || d.Uvarint() != 0 || d.Bytes() != nil || d.Len() != 0 {
				t.Fatal("a read after a failure returned data")
			}
			if err := d.Done(); !errors.Is(err, tc.want) {
				t.Fatalf("Done = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestCountAcceptsWhatFits(t *testing.T) {
	d := NewDecoder([]byte{2, 0, 0, 0, 0, 0, 0})
	if n := d.Count(3); n != 2 {
		t.Fatalf("Count(3) over 6 bytes = %d, want 2", n)
	}
}

func TestDoneRefusesTrailingBytes(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	d.U8()
	if err := d.Done(); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestFailKeepsFirstError(t *testing.T) {
	first, second := errors.New("first"), errors.New("second")
	d := NewDecoder([]byte{1})
	d.Fail(first)
	d.Fail(second)
	if err := d.Done(); err != first {
		t.Fatalf("Done = %v, want %v", err, first)
	}
}
