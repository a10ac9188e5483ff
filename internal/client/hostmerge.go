// Host side of collaborative compaction, an extension beyond the paper
// (Co-KV style; the paper's device compacts alone): the client long-polls the
// device for merge jobs, k-way merges the shipped sorted runs on host cores,
// and pushes each merged run back over the NVMe extension opcodes.
package client

import (
	"fmt"

	"kvcsd/internal/compaction"
	"kvcsd/internal/core"
	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
)

// ServeHostMerges runs the host half of collaborative compaction on the
// calling proc, and while it runs the device splits its merges: long-poll a
// merge job, k-way merge its runs on the host CPU, push the merged run back,
// repeat. load (optional) reports the host CPU run-queue length with each
// poll — the planner's host-pressure signal. The loop returns nil when the
// device closes its assist queue (shutdown or power cut) and an error on
// transport failure; call again after a device restart to re-attach. Its
// commands are untimed: a poll parks inside the device until work arrives,
// and cutting one short would complete the popped job's payload into an
// abandoned handle, where no host merge loop would see it.
func (c *Client) ServeHostMerges(p *sim.Proc, load func() int) error {
	for {
		poll := &nvme.Command{Op: nvme.OpHostMergePoll}
		if load != nil {
			poll.ResultLimit = load()
		}
		comp, err := c.sendOnce(p, poll, 0)
		if err != nil {
			return err
		}
		if comp.Done {
			return nil
		}
		jobID := comp.Count
		var merged []byte
		if runs, derr := compaction.DecodeRuns(comp.Value); derr == nil {
			merged, _ = core.MergeEncodedKlogRuns(p, c.h, runs)
		}
		// An empty push reports host-side failure; the device falls back to
		// merging that group itself.
		push := &nvme.Command{
			Op:     nvme.OpHostMergePush,
			Extent: nvme.ExtentAddr{Granule: jobID},
			Value:  merged,
		}
		if _, err := c.sendOnce(p, push, 0); err != nil {
			return err
		}
	}
}

// SetCompactionConfig installs the device's compaction pipeline width and
// returns the device's resulting config.
func (c *Client) SetCompactionConfig(p *sim.Proc, cfg compaction.Config) (compaction.Config, error) {
	comp, err := c.roundTrip(p, &nvme.Command{Op: nvme.OpCompactPolicy, Value: compaction.EncodeConfig(cfg)})
	if err != nil {
		return compaction.Config{}, err
	}
	return compaction.DecodeConfig(comp.Value)
}

// CompactionConfig queries the device's active compaction config.
func (c *Client) CompactionConfig(p *sim.Proc) (compaction.Config, error) {
	comp, err := c.roundTrip(p, &nvme.Command{Op: nvme.OpCompactPolicy})
	if err != nil {
		return compaction.Config{}, err
	}
	return compaction.DecodeConfig(comp.Value)
}

// MigrateCold triggers one lifetime-aware placement sweep on the device and
// returns how many sorted-value zones moved to the cold tier. The sweep runs
// to completion inside the command (untimed: a batch can outlive the
// per-command timeout).
func (c *Client) MigrateCold(p *sim.Proc) (int64, error) {
	comp, err := c.sendOnce(p, &nvme.Command{Op: nvme.OpMigrateCold}, 0)
	if err != nil {
		return 0, err
	}
	return comp.Count, nil
}

// CompactionProgress returns the keyspace's live compaction-pipeline progress
// alongside the done flag CompactDone reports.
func (k *Keyspace) CompactionProgress(p *sim.Proc) (compaction.Progress, bool, error) {
	comp, err := k.c.roundTrip(p, &nvme.Command{Op: nvme.OpCompactStatus, Keyspace: k.name})
	if err != nil {
		return compaction.Progress{}, false, err
	}
	if comp.Progress == nil {
		return compaction.Progress{}, comp.Done, fmt.Errorf("client: device reported no compaction progress")
	}
	return *comp.Progress, comp.Done, nil
}
