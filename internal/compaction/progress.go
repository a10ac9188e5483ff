package compaction

import (
	"encoding/binary"
	"math"

	"kvcsd/internal/codec"
)

// Stage labels where a compaction (or cold migration) currently is.
type Stage uint8

// Compaction stages, in pipeline order.
const (
	StageIdle Stage = iota
	StageFlush
	StageSort
	StageMerge
	StageValues
	StageWrite
	StageMigrate
	stageMax
)

// String names the stage for stats output.
func (s Stage) String() string {
	switch s {
	case StageIdle:
		return "idle"
	case StageFlush:
		return "flush"
	case StageSort:
		return "sort"
	case StageMerge:
		return "merge"
	case StageValues:
		return "values"
	case StageWrite:
		return "write"
	case StageMigrate:
		return "migrate"
	}
	return "stage?"
}

// Progress is a point-in-time view of one keyspace's compaction, surfaced
// through compact-status completions and wire StatsReports.
type Progress struct {
	// Stage is the pipeline stage the compaction is in.
	Stage Stage
	// GranulesDone / GranulesTotal track the current stage's sweep.
	GranulesDone  uint32
	GranulesTotal uint32
	// BytesMoved accumulates every byte the compaction job has appended to
	// media so far: sort runs and merged output, spilled value-sort buckets,
	// PIDX blocks, a consolidated build's SIDX blocks, and sorted values.
	BytesMoved uint64
	// HostRuns / DeviceRuns record the planner's split for this pass.
	HostRuns   uint16
	DeviceRuns uint16
	// Occupancy is the number of pipeline chunks currently buffered
	// in-flight — nonzero means stages are still draining.
	Occupancy uint16
}

// KeyspaceProgress is one keyspace's compaction progress: a row of the stats
// compaction section, from the engine through the array and the wire.
type KeyspaceProgress struct {
	Keyspace string
	Progress Progress
}

// WireSize is the modeled completion payload cost of shipping a Progress.
func (pr *Progress) WireSize() int64 {
	if pr == nil {
		return 0
	}
	return 24
}

// EncodeProgress renders the canonical byte form of a Progress.
func EncodeProgress(pr Progress) []byte {
	buf := make([]byte, 0, 1+5*binary.MaxVarintLen64)
	buf = append(buf, byte(pr.Stage))
	buf = binary.AppendUvarint(buf, uint64(pr.GranulesDone))
	buf = binary.AppendUvarint(buf, uint64(pr.GranulesTotal))
	buf = binary.AppendUvarint(buf, pr.BytesMoved)
	buf = binary.AppendUvarint(buf, uint64(pr.HostRuns))
	buf = binary.AppendUvarint(buf, uint64(pr.DeviceRuns))
	buf = binary.AppendUvarint(buf, uint64(pr.Occupancy))
	return buf
}

// DecodeProgress parses a Progress, rejecting unknown stages, out-of-range
// fields, and trailing bytes.
func DecodeProgress(b []byte) (Progress, error) {
	d := codec.NewDecoder(b)
	pr := Progress{
		Stage:         Stage(d.U8()),
		GranulesDone:  uint32(d.Uint(math.MaxUint32)),
		GranulesTotal: uint32(d.Uint(math.MaxUint32)),
		BytesMoved:    d.Uvarint(),
		HostRuns:      uint16(d.Uint(math.MaxUint16)),
		DeviceRuns:    uint16(d.Uint(math.MaxUint16)),
		Occupancy:     uint16(d.Uint(math.MaxUint16)),
	}
	if err := decoded(&d, pr.Stage < stageMax); err != nil {
		return Progress{}, err
	}
	return pr, nil
}
