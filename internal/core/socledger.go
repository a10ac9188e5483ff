package core

import (
	"kvcsd/internal/host"
)

// socPhase names what one SoC charge pays for. Every charge the engine makes
// goes through the meter of its phase (Engine.cpu), an account of the SoC host,
// so the phases sum to the SoC's busy time exactly: the ledger is published as
// engine/soc_ns/<phase> beside engine/soc_busy_ns.
type socPhase uint8

const (
	phaseIngest      socPhase = iota // ingest-buffer flushes: KVOpCost per pair
	phaseQuery                       // reads: sketch searches, index-block decodes, result sorts
	phaseRunKlog                     // run formation of KLOG entries
	phaseRunSidx                     // run formation of secondary-index entries
	phaseRunPair                     // run formation of combined records (DisableKVSeparation)
	phaseMerge                       // k-way merges of every record type
	phaseDestPass                    // gathering each destination bucket's values out of the VLOG
	phaseValuePass                   // ordering each value bucket by destination
	phaseSidxExtract                 // PIDX block decodes of a separate index build's scan
	phaseScrub                       // media-scrub checksums
	phaseAssistLand                  // landing a host-merged run in SoC DRAM
	numSocPhases
)

// socPhaseNames are the phases' counter names, in ledger order.
var socPhaseNames = [numSocPhases]string{
	"ingest", "query", "run_klog", "run_sidx", "run_pair", "merge",
	"dest_pass", "value_pass", "sidx_extract", "scrub", "assist_land",
}

// socMeters returns one meter per phase, each an account of soc.
func socMeters(soc *host.Host) (m [numSocPhases]host.Meter) {
	for ph, name := range socPhaseNames {
		m[ph] = soc.Account(name)
	}
	return m
}

// PhaseTime is one line of the SoC ledger: a phase and the core time charged
// to it so far.
type PhaseTime struct {
	Phase string
	Ns    int64
}

// SoCLedger returns the SoC core time charged so far per phase, in ledger
// order. The lines sum to the SoC's BusyNs.
func (e *Engine) SoCLedger() []PhaseTime {
	out := make([]PhaseTime, numSocPhases)
	for ph, m := range e.cpu {
		out[ph] = PhaseTime{Phase: socPhaseNames[ph], Ns: m.Ns().Value()}
	}
	return out
}
