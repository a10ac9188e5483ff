package compaction

import (
	"bytes"
	"testing"
)

// codecs lists the package's four codecs, one fuzz target each. reencode
// decodes b and encodes the result again; ok is false when the decoder
// refuses b.
var codecs = []struct {
	name     string
	seeds    [][]byte
	reencode func(t *testing.T, b []byte) (out []byte, ok bool)
}{
	{
		name: "config",
		seeds: [][]byte{
			nil,
			EncodeConfig(Config{}),
			EncodeConfig(Config{PipelineWidth: 4}),
			{0xff, 0xff, 0xff},
			{0x80, 0x00}, // overlong width
		},
		reencode: func(t *testing.T, b []byte) ([]byte, bool) {
			c, err := DecodeConfig(b)
			return EncodeConfig(c), err == nil
		},
	},
	{
		name: "progress",
		seeds: [][]byte{
			nil,
			EncodeProgress(Progress{}),
			EncodeProgress(Progress{Stage: StageValues, GranulesDone: 1, GranulesTotal: 2, BytesMoved: 1 << 40, HostRuns: 9, DeviceRuns: 1, Occupancy: 65535}),
			{0x06, 0x80},
			{0, 0x80, 0x00, 0, 0, 0, 0, 0}, // overlong GranulesDone
		},
		reencode: func(t *testing.T, b []byte) ([]byte, bool) {
			pr, err := DecodeProgress(b)
			return EncodeProgress(pr), err == nil
		},
	},
	{
		name: "heat",
		seeds: [][]byte{
			nil,
			AppendHeat(nil, NewHeatTable(0)),
			func() []byte {
				h := NewHeatTable(5)
				h.Touch(0)
				h.Touch(4)
				h.Touch(4)
				return AppendHeat(nil, h)
			}(),
			{0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
			{0x81, 0x00, 0x00}, // overlong granule count
		},
		reencode: func(t *testing.T, b []byte) ([]byte, bool) {
			h, err := DecodeHeat(b)
			if err != nil {
				return nil, false
			}
			if h.Len() > maxHeatGranules {
				t.Fatalf("oversized table accepted: %d", h.Len())
			}
			return AppendHeat(nil, h), true
		},
	},
	{
		name: "runs",
		seeds: [][]byte{
			nil,
			EncodeRuns(nil),
			EncodeRuns([][]byte{[]byte("a"), []byte("bb")}),
			{0x02, 0xff, 0xff, 0xff, 0xff, 0x07},
			{0x81, 0x00, 0x00}, // overlong run count
		},
		reencode: func(t *testing.T, b []byte) ([]byte, bool) {
			runs, err := DecodeRuns(b)
			return EncodeRuns(runs), err == nil
		},
	},
}

// fuzzCodec drives codecs[i] with arbitrary bytes: no panics, the heat
// table's size bound holds, and every accepted input re-encodes to exactly
// itself (the codecs are canonical).
func fuzzCodec(f *testing.F, i int) {
	c := codecs[i]
	for _, s := range c.seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if out, ok := c.reencode(t, data); ok && !bytes.Equal(out, data) {
			t.Fatalf("%s not canonical: %x re-encodes to %x", c.name, data, out)
		}
	})
}

func FuzzDecodeConfig(f *testing.F)   { fuzzCodec(f, 0) }
func FuzzDecodeProgress(f *testing.F) { fuzzCodec(f, 1) }
func FuzzDecodeHeat(f *testing.F)     { fuzzCodec(f, 2) }
func FuzzDecodeRuns(f *testing.F)     { fuzzCodec(f, 3) }
