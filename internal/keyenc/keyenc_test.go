package keyenc

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

func TestUint32RoundTripAndOrder(t *testing.T) {
	rt := func(v uint32) bool { return Uint32(PutUint32(v)) == v }
	if err := quick.Check(rt, nil); err != nil {
		t.Fatal(err)
	}
	ord := func(a, b uint32) bool {
		c := Compare(PutUint32(a), PutUint32(b))
		switch {
		case a < b:
			return c < 0
		case a > b:
			return c > 0
		default:
			return c == 0
		}
	}
	if err := quick.Check(ord, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64RoundTripAndOrder(t *testing.T) {
	rt := func(v uint64) bool { return Uint64(PutUint64(v)) == v }
	if err := quick.Check(rt, nil); err != nil {
		t.Fatal(err)
	}
	ord := func(a, b uint64) bool {
		c := Compare(PutUint64(a), PutUint64(b))
		return (a < b) == (c < 0) && (a == b) == (c == 0)
	}
	if err := quick.Check(ord, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInt32Order(t *testing.T) {
	ord := func(a, b int32) bool {
		c := Compare(PutInt32(a), PutInt32(b))
		return (a < b) == (c < 0) && (a == b) == (c == 0)
	}
	if err := quick.Check(ord, nil); err != nil {
		t.Fatal(err)
	}
	if Int32(PutInt32(-1)) != -1 || Int32(PutInt32(math.MinInt32)) != math.MinInt32 {
		t.Fatal("int32 round trip failed at boundaries")
	}
}

func TestInt64Order(t *testing.T) {
	ord := func(a, b int64) bool {
		c := Compare(PutInt64(a), PutInt64(b))
		return (a < b) == (c < 0) && (a == b) == (c == 0)
	}
	if err := quick.Check(ord, nil); err != nil {
		t.Fatal(err)
	}
	vals := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}
	for _, v := range vals {
		if Int64(PutInt64(v)) != v {
			t.Fatalf("round trip failed for %d", v)
		}
	}
}

func TestFloat32Order(t *testing.T) {
	ord := func(a, b float32) bool {
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
			return true
		}
		c := Compare(PutFloat32(a), PutFloat32(b))
		if a < b {
			return c < 0
		}
		if a > b {
			return c > 0
		}
		return true // -0 and +0 have distinct encodings; either order is fine across runs
	}
	if err := quick.Check(ord, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat32RoundTrip(t *testing.T) {
	vals := []float32{0, 1, -1, 3.14, -3.14, math.MaxFloat32, -math.MaxFloat32, float32(math.Inf(1)), float32(math.Inf(-1))}
	for _, v := range vals {
		if got := Float32(PutFloat32(v)); got != v {
			t.Fatalf("round trip %v -> %v", v, got)
		}
	}
}

func TestFloat64OrderAndRoundTrip(t *testing.T) {
	ord := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		c := Compare(PutFloat64(a), PutFloat64(b))
		if a < b {
			return c < 0
		}
		if a > b {
			return c > 0
		}
		return true
	}
	if err := quick.Check(ord, nil); err != nil {
		t.Fatal(err)
	}
	rt := func(v float64) bool {
		if math.IsNaN(v) {
			return true
		}
		return Float64(PutFloat64(v)) == v
	}
	if err := quick.Check(rt, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFixedKey16(t *testing.T) {
	k := MakeFixedKey16(0xDEADBEEF)
	if k.ID() != 0xDEADBEEF {
		t.Fatalf("id = %x", k.ID())
	}
	if len(k.Bytes()) != 16 {
		t.Fatalf("len %d", len(k.Bytes()))
	}
	ord := func(a, b uint64) bool {
		ka, kb := MakeFixedKey16(a), MakeFixedKey16(b)
		c := Compare(ka.Bytes(), kb.Bytes())
		return (a < b) == (c < 0) && (a == b) == (c == 0)
	}
	if err := quick.Check(ord, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSecondaryTypeString(t *testing.T) {
	names := map[SecondaryType]string{
		TypeBytes: "bytes", TypeUint32: "uint32", TypeInt32: "int32",
		TypeUint64: "uint64", TypeInt64: "int64",
		TypeFloat32: "float32", TypeFloat64: "float64",
	}
	for ty, want := range names {
		if ty.String() != want {
			t.Errorf("%d.String() = %q", ty, ty.String())
		}
	}
	if SecondaryType(99).String() != "SecondaryType(99)" {
		t.Errorf("unknown type string %q", SecondaryType(99).String())
	}
}

func TestSecondaryTypeWidth(t *testing.T) {
	if TypeBytes.Width() != 0 || TypeUint32.Width() != 4 || TypeFloat64.Width() != 8 {
		t.Fatal("widths wrong")
	}
}

func TestNormalizeBytes(t *testing.T) {
	raw := []byte{1, 2, 3}
	out, err := TypeBytes.Normalize(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, raw) {
		t.Fatalf("out %v", out)
	}
	raw[0] = 9 // mutating input must not affect output
	if out[0] != 1 {
		t.Fatal("Normalize did not copy")
	}
}

func TestNormalizeWidthError(t *testing.T) {
	if _, err := TypeUint32.Normalize([]byte{1, 2}); err == nil {
		t.Fatal("expected width error")
	}
	if _, err := TypeFloat64.Normalize(make([]byte, 4)); err == nil {
		t.Fatal("expected width error")
	}
}

func TestNormalizeNumericOrder(t *testing.T) {
	// Little-endian raw floats should normalize to order-preserving keys.
	enc := func(v float32) []byte {
		bits := math.Float32bits(v)
		return []byte{byte(bits), byte(bits >> 8), byte(bits >> 16), byte(bits >> 24)}
	}
	ord := func(a, b float32) bool {
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
			return true
		}
		ka, err1 := TypeFloat32.Normalize(enc(a))
		kb, err2 := TypeFloat32.Normalize(enc(b))
		if err1 != nil || err2 != nil {
			return false
		}
		c := Compare(ka, kb)
		if a < b {
			return c < 0
		}
		if a > b {
			return c > 0
		}
		return true
	}
	if err := quick.Check(ord, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeUnknownType(t *testing.T) {
	if _, err := SecondaryType(42).Normalize(nil); err == nil {
		t.Fatal("expected error for unknown type")
	}
}

// TestAppendNormalizedMatchesNormalize: for every type, appending a field's
// key to a non-empty buffer leaves the buffer's bytes alone and adds exactly
// what Normalize returns, which in turn is what the Put* encoders give for
// the field's little-endian value.
func TestAppendNormalizedMatchesNormalize(t *testing.T) {
	le := binary.LittleEndian
	ref := map[SecondaryType]func(raw []byte) []byte{
		TypeBytes:   func(raw []byte) []byte { return raw },
		TypeUint32:  func(raw []byte) []byte { return PutUint32(le.Uint32(raw)) },
		TypeInt32:   func(raw []byte) []byte { return PutInt32(int32(le.Uint32(raw))) },
		TypeUint64:  func(raw []byte) []byte { return PutUint64(le.Uint64(raw)) },
		TypeInt64:   func(raw []byte) []byte { return PutInt64(int64(le.Uint64(raw))) },
		TypeFloat32: func(raw []byte) []byte { return PutFloat32(math.Float32frombits(le.Uint32(raw))) },
		TypeFloat64: func(raw []byte) []byte { return PutFloat64(math.Float64frombits(le.Uint64(raw))) },
	}
	for typ, want := range ref {
		check := func(prefix, field []byte) bool {
			raw := field
			if w := typ.Width(); w != 0 {
				raw = append(field, make([]byte, w)...)[:w]
			}
			norm, err := typ.Normalize(raw)
			if err != nil || !bytes.Equal(norm, want(raw)) {
				return false
			}
			dst := append([]byte(nil), prefix...)
			got, err := typ.AppendNormalized(dst, raw)
			return err == nil && bytes.Equal(got, append(append([]byte(nil), prefix...), norm...))
		}
		if err := quick.Check(check, nil); err != nil {
			t.Errorf("%s: %v", typ, err)
		}
	}
	dst := []byte{7}
	if got, err := TypeUint32.AppendNormalized(dst, []byte{1}); err == nil || !bytes.Equal(got, dst) {
		t.Fatalf("width error appended %v, err %v", got, err)
	}
}

func TestNormalizeInt64(t *testing.T) {
	raw := make([]byte, 8)
	for i, v := range []int64{-5, 0, 5} {
		u := uint64(v)
		for j := 0; j < 8; j++ {
			raw[j] = byte(u >> (8 * j))
		}
		k, err := TypeInt64.Normalize(raw)
		if err != nil {
			t.Fatal(err)
		}
		if Int64(k) != v {
			t.Fatalf("case %d: got %d want %d", i, Int64(k), v)
		}
	}
}
