package compaction

import (
	"encoding/binary"

	"kvcsd/internal/codec"
)

// EncodeRuns frames a group of encoded sorted runs into one host-merge
// payload: run count, then per-run length-prefixed bytes.
func EncodeRuns(runs [][]byte) []byte {
	total := binary.MaxVarintLen64
	for _, r := range runs {
		total += binary.MaxVarintLen64 + len(r)
	}
	buf := make([]byte, 0, total)
	buf = binary.AppendUvarint(buf, uint64(len(runs)))
	for _, r := range runs {
		buf = binary.AppendUvarint(buf, uint64(len(r)))
		buf = append(buf, r...)
	}
	return buf
}

// DecodeRuns parses a host-merge payload back into its runs, rejecting
// counts the payload cannot hold and trailing bytes. Returned slices alias
// the input.
func DecodeRuns(b []byte) ([][]byte, error) {
	d := codec.NewDecoder(b)
	runs := make([][]byte, d.Count(1))
	for i := range runs {
		runs[i] = d.Bytes()
	}
	if err := decoded(&d, true); err != nil {
		return nil, err
	}
	return runs, nil
}
