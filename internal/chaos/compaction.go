// Compaction-subsystem crash points: power cuts inside a pipelined
// collaborative compaction (host assist loop live, width-4 device pipeline)
// and inside a cold-tier migration sweep. Both phases stress the subsystem's
// crash-safety invariants — persist-before-release on the log swap and the
// migration snapshot, host-merge jobs failing over to the SoC when the
// assist queue dies, and the recovery sweep reclaiming orphan cold zones —
// with the same verification as every other point: nothing synced is lost,
// nothing torn surfaces, secondary indexes agree with primaries.
package chaos

import (
	"kvcsd/internal/compaction"
	"kvcsd/internal/device"
)

// tunePipeline reshapes the point device so the scripted workload exercises
// the collaborative planner and the parallel device pipeline: a width-4
// pipeline, the collaborative policy, and a sort budget small enough that
// the campaign's ops form several klog runs for the planner to split.
func tunePipeline(d *device.Options) {
	d.Engine.Compaction = compaction.Config{Policy: compaction.PolicyCollaborative, PipelineWidth: 4}
	d.Engine.SortBudgetBytes = 2 << 10
}

// tuneMigrate dedicates part of the zoned namespace to a slower cold tier so
// a MigrateCold sweep has somewhere to move the (never-read, heat-zero)
// sorted value zones, and something to leave orphaned when power dies
// between the copy and the metadata persist.
func tuneMigrate(d *device.Options) {
	d.SSD.ColdZones = 128
	d.SSD.ColdReadFactor = 3
	d.SSD.ColdWriteFactor = 2
}
