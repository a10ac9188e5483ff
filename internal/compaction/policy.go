// Package compaction holds the collaborative host/device compaction
// subsystem shared by the SoC engine (internal/core), the NVMe command layer
// (internal/nvme), the host client (internal/client), and the fleet scheduler
// (internal/array): the merge-split planner and its load signals, the
// compaction policy knobs and their wire codec, per-granule heat tracking for
// lifetime-aware tiered placement, the host-merge assist queue, and the
// bounded ring buffers that stage the parallel device pipeline.
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

// Policy selects who merges the sorted runs of a compaction.
type Policy uint8

// Compaction policies.
const (
	// PolicyDevice merges everything on the device SoC — the paper's
	// baseline offload path and the default.
	PolicyDevice Policy = iota
	// PolicyHost ships every run to the host, which merges them on its
	// (faster, more numerous) cores and pushes one merged run back.
	PolicyHost
	// PolicyCollaborative splits the runs between host and SoC by live
	// load signals (Co-KV style); both halves merge concurrently.
	PolicyCollaborative
)

// String names the policy for flags and stats output.
func (p Policy) String() string {
	switch p {
	case PolicyDevice:
		return "device"
	case PolicyHost:
		return "host"
	case PolicyCollaborative:
		return "collaborative"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// ParsePolicy maps a flag string to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "device", "":
		return PolicyDevice, nil
	case "host":
		return PolicyHost, nil
	case "collaborative", "collab":
		return PolicyCollaborative, nil
	}
	return PolicyDevice, fmt.Errorf("compaction: unknown policy %q (want device, host, or collaborative)", s)
}

// errCodec reports a malformed compaction payload.
var errCodec = errors.New("compaction: malformed payload")

// Config is the runtime-settable compaction configuration carried by the
// compact-policy RPC.
type Config struct {
	// Policy selects the merge split.
	Policy Policy
	// PipelineWidth is the number of in-flight 256 KiB chunks each
	// pipeline stage may buffer; 1 degenerates to the sequential path.
	PipelineWidth int
}

// EncodeConfig renders the canonical wire form of a Config.
func EncodeConfig(c Config) []byte {
	buf := make([]byte, 0, 1+binary.MaxVarintLen64)
	buf = append(buf, byte(c.Policy))
	buf = binary.AppendUvarint(buf, uint64(c.PipelineWidth))
	return buf
}

// DecodeConfig parses a Config, rejecting trailing bytes and out-of-range
// values so the codec stays canonical.
func DecodeConfig(b []byte) (Config, error) {
	d := codec.NewDecoder(b)
	c := Config{Policy: Policy(d.U8()), PipelineWidth: int(d.Uint(1 << 20))}
	if err := decoded(&d, c.Policy <= PolicyCollaborative); err != nil {
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
