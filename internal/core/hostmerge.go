package core

import (
	"kvcsd/internal/host"
	"kvcsd/internal/sim"
)

// MergeEncodedKlogRuns k-way merges a group of encoded, individually sorted
// KLOG runs into one sorted run, charging the work to the given host's CPU.
// It is the host half of collaborative compaction: the device ships a run
// group over the assist queue (compaction.EncodeRuns), the host assist loop
// merges it here, and the result ships back as a single pre-merged run.
//
// The ordering matches the device's key sorter exactly — key ascending, then
// vlogOff descending (newest duplicate first), then puts before tombstones,
// ties broken by run index — so a host-merged run is byte-for-byte a valid
// input to the device's final merge.
func MergeEncodedKlogRuns(p *sim.Proc, h *host.Host, runs [][]byte) ([]byte, error) {
	// Empty runs neither join the merge nor count towards its fan-in.
	live := make([][]byte, 0, len(runs))
	var total int
	for _, r := range runs {
		total += len(r)
		if len(r) > 0 {
			live = append(live, r)
		}
	}
	codec := klogCodec{}
	out := make([]byte, 0, total)
	err := mergeSorted(p, len(live), func(i int) recordSource[klogEntry] {
		return &memSource[klogEntry]{codec: codec, buf: live[i]}
	}, compareKlog, h.Account(""), make([]int64, 1), func(_ *sim.Proc, rec klogEntry) error {
		out = codec.Encode(out, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	h.Copy(p, int64(total))
	return out, nil
}
