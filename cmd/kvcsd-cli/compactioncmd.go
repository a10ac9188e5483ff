// Rendering of the per-keyspace compaction progress section shared by the
// local and remote `compact` and `stats` verbs.
package main

import (
	"fmt"

	"kvcsd/internal/compaction"
	"kvcsd/internal/stats"
)

// printCompactions renders the compaction progress section (no-op when no
// keyspace has compaction activity).
func printCompactions(rows []compaction.KeyspaceProgress) {
	if len(rows) == 0 {
		return
	}
	fmt.Printf("compactions:\n")
	for _, r := range rows {
		pr := r.Progress
		fmt.Printf("  %-12s stage=%-8s granules=%d/%d moved=%s runs=host:%d/device:%d occupancy=%d\n",
			r.Keyspace, pr.Stage, pr.GranulesDone, pr.GranulesTotal,
			stats.HumanBytes(int64(pr.BytesMoved)), pr.HostRuns, pr.DeviceRuns, pr.Occupancy)
	}
}
