package compaction

// Signals is the planner's snapshot of live load on both sides of the PCIe
// link, sampled at the instant a compaction reaches its merge step.
type Signals struct {
	// QueueDepth is the device submission-queue backlog (nvme Pending) —
	// foreground commands waiting on the SoC.
	QueueDepth int
	// BgJobs is the number of background engine jobs already running.
	BgJobs int
	// ChannelUtil is the mean utilization of the SSD channels in [0, 1].
	ChannelUtil float64
	// SoCQueue is the SoC compute run-queue (cores in use plus waiters) at
	// the sampling instant.
	SoCQueue int
	// SoCUtil is the SoC's utilization in [0, 1] over the compaction's
	// run-formation phase. Closed-loop foreground readers never pile up in
	// the submission queue — each has one command in flight and the
	// dispatchers drain it immediately — so sustained compute pressure is
	// only visible as busy time. The busy time includes the job's own run
	// formation, whose batch sorts run on every SoC core but one: the same
	// core time over a shorter window, so it reads higher than one core's.
	SoCUtil float64
	// HostQueue is the host CPU run-queue length the assist loop reported
	// on its latest merge poll.
	HostQueue int
	// HostAttached reports whether a host assist loop is polling at all:
	// host merging is on exactly when it is.
	HostAttached bool
}

// Plan is the planner's verdict: how many sorted runs the host pre-merges
// versus how many stay on the SoC. The two groups merge concurrently; the
// device then runs the final merge over the (at most two) pre-merged runs.
type Plan struct {
	HostRuns   int
	DeviceRuns int
}

// DecideSplit assigns nRuns sorted runs between host and device. Without an
// attached host assist loop, or with fewer than two runs, the device merges
// them all. Otherwise the host's share is in [1, nRuns-1]: the decision
// function biases it by the ratio of device pressure (queue depth, SoC
// run-queue, channel utilization, background jobs) to host pressure (CPU
// run-queue), clamped to [1/4, 3/4] so neither side is starved while both
// are alive. It is pure arithmetic on the sampled signals, so identical
// snapshots always produce identical plans.
func DecideSplit(sig Signals, nRuns int) Plan {
	if nRuns < 0 {
		nRuns = 0
	}
	if !sig.HostAttached || nRuns < 2 {
		return Plan{HostRuns: 0, DeviceRuns: nRuns}
	}
	devLoad := 1.0 + sig.ChannelUtil + float64(clampInt(sig.QueueDepth, 0, 32))/8 +
		float64(clampInt(sig.BgJobs, 0, 8))/2 + float64(clampInt(sig.SoCQueue, 0, 32))/8 +
		2.5*clampFloat(sig.SoCUtil, 0, 1)
	hostLoad := 1.0 + float64(clampInt(sig.HostQueue, 0, 32))/8
	frac := clampFloat(devLoad/(devLoad+hostLoad), 0.25, 0.75)
	h := clampInt(int(frac*float64(nRuns)+0.5), 1, nRuns-1)
	return Plan{HostRuns: h, DeviceRuns: nRuns - h}
}

func clampFloat(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
