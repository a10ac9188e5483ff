// Package compaction holds the compaction subsystem shared by the SoC engine
// (internal/core), the NVMe command layer (internal/nvme), the host client
// (internal/client), and the fleet scheduler (internal/array): the
// runtime-settable pipeline width and its wire codec, the host/device
// merge-split planner and its load signals (an extension beyond the paper,
// whose device compacts alone), per-granule heat tracking for lifetime-aware
// tiered placement, the host-merge assist queue, and the bounded ring
// buffers that stage the parallel device pipeline.
//
// The package depends only on internal/sim and internal/codec so every layer
// of the stack can import it without cycles.
package compaction

import (
	"encoding/binary"
	"errors"
	"fmt"

	"kvcsd/internal/codec"
)

// errCodec reports a malformed compaction payload.
var errCodec = errors.New("compaction: malformed payload")

// Config is the runtime-settable compaction configuration carried by the
// compact-policy RPC. Who merges sorted runs is not part of it: the host
// takes a share exactly when a host assist loop is attached.
type Config struct {
	// PipelineWidth is the number of in-flight 256 KiB chunks each
	// pipeline stage may buffer; 1 degenerates to the sequential path.
	PipelineWidth int
}

// EncodeConfig renders the canonical wire form of a Config: the pipeline
// width as one uvarint.
func EncodeConfig(c Config) []byte {
	return binary.AppendUvarint(nil, uint64(c.PipelineWidth))
}

// DecodeConfig parses a Config, rejecting trailing bytes and out-of-range
// values so the codec stays canonical.
func DecodeConfig(b []byte) (Config, error) {
	d := codec.NewDecoder(b)
	c := Config{PipelineWidth: int(d.Uint(1 << 20))}
	if err := decoded(&d, true); err != nil {
		return Config{}, err
	}
	return c, nil
}

// decoded ends a decode: a malformed field, or a value ok rejects, is
// errCodec.
func decoded(d *codec.Decoder, ok bool) error {
	if err := d.Done(); err != nil {
		return fmt.Errorf("%w: %v", errCodec, err)
	}
	if !ok {
		return errCodec
	}
	return nil
}
