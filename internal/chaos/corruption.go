package chaos

import (
	"bytes"
	"fmt"
	"strings"

	"kvcsd/internal/array"
	"kvcsd/internal/core"
	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
	"kvcsd/internal/ssd"
)

// Corruption campaign: the silent-corruption counterpart of the power-cut
// campaign. Every scenario builds a fresh 3-device / 2-replica array, loads a
// scripted workload, injects bit-rot with one of four nemeses, and then holds
// the end-to-end integrity invariant:
//
//	every Get returns either the exact bytes that were written or a typed
//	error — never silently wrong data.
//
// After the degraded sweep the scenario drives scrub-and-repair passes and
// checks convergence: repairable rot (a healthy replica copy exists) must
// vanish, unrepairable rot (both copies poisoned) must keep failing typed and
// eventually quarantine its zones.

// Corruption nemeses, applied round-robin by scenario index.
const (
	// rotDuringLoad arms ambient seeded decay on one replica's media for the
	// whole load + compaction + query window; reads surface the rot.
	rotDuringLoad = iota
	// rotThenCompact poisons a VLOG extent on one replica before compaction:
	// the sort's verified value pass must fail typed on that copy — never
	// launder poisoned bytes into checksummed sorted output — while the
	// shard compacts on its peer.
	rotThenCompact
	// rotTwoReplicas poisons the same SORTED granule on both copies: reads
	// of those keys must fail typed forever (never fabricate bytes), and
	// repeated scrub strikes must quarantine the zones.
	rotTwoReplicas
	// rotMidMigration power-cuts one replica, writes hinted keys, poisons
	// the surviving copy, then restarts the cut device and repairs from it.
	rotMidMigration
	numRotNemeses
)

var rotNemesisNames = [numRotNemeses]string{
	"rot-during-load",
	"rot-then-compact",
	"rot-on-two-replicas",
	"rot-mid-migration",
}

// CorruptionOptions parameterizes the corruption campaign.
type CorruptionOptions struct {
	// Seed derives every scenario's array seed and injection randomness.
	Seed int64
	// Scenarios is the campaign size; nemeses rotate by scenario index.
	Scenarios int
	// Keys and ValueSize shape the scripted workload.
	Keys      int
	ValueSize int
	// DisableVerify is the negative control: checksum verification is
	// switched off in every device engine, and the campaign pins the
	// both-replicas nemesis so failover cannot mask the poisoned bytes.
	// With verification disabled the injected rot MUST surface as silently
	// wrong answers — proving the checksums are load-bearing.
	DisableVerify bool
}

// DefaultCorruptionOptions returns the full campaign: 64 scenarios, 16 per
// nemesis.
func DefaultCorruptionOptions() CorruptionOptions {
	return CorruptionOptions{Seed: 1, Scenarios: 64, Keys: 96, ValueSize: 64}
}

// CorruptionScenario is one scenario's outcome.
type CorruptionScenario struct {
	Index   int
	Nemesis string
	Seed    int64

	Reads     int // total Gets issued (degraded sweep + final sweep)
	TypedErrs int // degraded-sweep reads answered with a typed error
	Wrong     int // silently wrong answers (poisoned bytes or lost keys)

	FinalErrs int  // typed errors remaining after repair
	Converged bool // final sweep fully byte-exact
	Residual  int  // corrupt extents still reported by the closing scrub

	Detected    int64 // stats: checksum verification failures
	Repaired    int64 // stats: extents rewritten by repair
	Quarantined int64 // stats: zones retired by scrub strikes

	Err string // harness-level failure ("" = clean)
}

// CorruptionResult is the campaign outcome.
type CorruptionResult struct {
	Options   CorruptionOptions
	Scenarios []CorruptionScenario
	Wrong     int // total silent-wrong-answer violations
	Diverged  int // repairable scenarios that failed to converge
	Harness   int // scenarios with harness-level errors
}

// Summary renders one deterministic line per scenario.
func (r *CorruptionResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "corruption campaign: %d scenarios, %d wrong, %d diverged, %d harness errors\n",
		len(r.Scenarios), r.Wrong, r.Diverged, r.Harness)
	for _, sc := range r.Scenarios {
		fmt.Fprintf(&b, "#%03d %-19s reads=%d typed=%d wrong=%d detected=%d repaired=%d quarantined=%d residual=%d converged=%v",
			sc.Index, sc.Nemesis, sc.Reads, sc.TypedErrs, sc.Wrong,
			sc.Detected, sc.Repaired, sc.Quarantined, sc.Residual, sc.Converged)
		if sc.Err != "" {
			fmt.Fprintf(&b, " ERR=%s", sc.Err)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FirstViolation describes the first silent wrong answer or harness error,
// "" when the campaign is clean.
func (r *CorruptionResult) FirstViolation() string {
	for _, sc := range r.Scenarios {
		if sc.Wrong > 0 {
			return fmt.Sprintf("scenario #%d (%s, seed %d): %d silently wrong answers",
				sc.Index, sc.Nemesis, sc.Seed, sc.Wrong)
		}
		if sc.Err != "" {
			return fmt.Sprintf("scenario #%d (%s, seed %d): harness error: %s",
				sc.Index, sc.Nemesis, sc.Seed, sc.Err)
		}
	}
	return ""
}

// RunCorruption executes the campaign.
func RunCorruption(opts CorruptionOptions) *CorruptionResult {
	def := DefaultCorruptionOptions()
	if opts.Scenarios <= 0 {
		opts.Scenarios = def.Scenarios
	}
	if opts.Keys <= 0 {
		opts.Keys = def.Keys
	}
	if opts.ValueSize <= 0 {
		opts.ValueSize = def.ValueSize
	}
	res := &CorruptionResult{Options: opts}
	for i := 0; i < opts.Scenarios; i++ {
		sc := runCorruptionScenario(opts, i)
		res.Scenarios = append(res.Scenarios, sc)
		res.Wrong += sc.Wrong
		if sc.Err != "" {
			res.Harness++
		}
		// Only rot with a surviving replica copy is expected to converge.
		if sc.Nemesis != rotNemesisNames[rotTwoReplicas] && !sc.Converged {
			res.Diverged++
		}
	}
	return res
}

// rotBits is how many bits each targeted injection flips — enough that a
// poisoned granule virtually always breaks the workload's value bytes.
const rotBits = 16

func runCorruptionScenario(opts CorruptionOptions, idx int) CorruptionScenario {
	nem := idx % numRotNemeses
	if opts.DisableVerify {
		nem = rotTwoReplicas // failover must not mask the poison
	}
	seed := opts.Seed ^ (int64(idx+1) * 0x6C62272E)
	sc := CorruptionScenario{Index: idx, Nemesis: rotNemesisNames[nem], Seed: seed}

	env := sim.NewEnv()
	dopts := smallDevice()
	dopts.Engine.DisableVerify = opts.DisableVerify
	arr := array.New(env, array.Options{
		Devices:                  3,
		Replicas:                 2,
		Seed:                     seed,
		ReadPreference:           array.ReadRoundRobin,
		FailureThreshold:         3,
		MaxConcurrentCompactions: 2,
		Device:                   dopts,
	})
	env.Go("corruption-chaos", func(p *sim.Proc) {
		defer arr.Shutdown()
		if err := corruptionScenarioBody(p, arr, opts, nem, seed, &sc); err != nil {
			sc.Err = err.Error()
		}
	})
	env.Run()

	st := arr.Stats()
	sc.Detected = st.CorruptDetected.Value()
	sc.Repaired = st.RepairedExtents.Value()
	sc.Quarantined = st.QuarantinedZones.Value()
	return sc
}

func corruptionScenarioBody(p *sim.Proc, arr *array.Array, opts CorruptionOptions, nem int, seed int64, sc *CorruptionScenario) error {
	ks, err := arr.CreateKeyspace(p, "rot")
	if err != nil {
		return err
	}
	owners := ks.Replicas(0)
	total := opts.Keys

	load := func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := ks.Put(p, keyFor(i), valueFor(i, opts.ValueSize)); err != nil {
				return err
			}
		}
		return ks.Sync(p)
	}

	// --- inject + load + compact, per nemesis -----------------------------
	switch nem {
	case rotDuringLoad:
		// Ambient decay on one replica's media across the whole window.
		// Compaction and queries on that copy may fail typed; the shard
		// survives on the peer either way.
		arr.Member(owners[0]).Dev.SSD().SetFaultProfile(&ssd.FaultProfile{
			Seed:    seed,
			RotRate: map[string]float64{"zone-read": 0.05},
			RotBits: 3,
		})
		if err := load(0, total); err != nil {
			return err
		}
		if err := ks.Compact(p); err != nil {
			return err
		}

	case rotThenCompact:
		// Poison a VLOG granule on one replica before compaction: its
		// verified value pass fails typed (the status poll surfaces the
		// error) and the peer carries the shard. The rotted log is
		// unrecoverable once the peer compacts and releases its own log —
		// the replica stays degraded, but reads keep failing over correctly.
		if err := load(0, total); err != nil {
			return err
		}
		if err := corruptOn(p, arr, owners[0], core.ExtentVLOG, 0); err != nil {
			return err
		}
		if err := ks.Compact(p); err != nil {
			return err
		}

	case rotTwoReplicas:
		// Poison the same SORTED granule on both copies after a clean
		// compaction: no healthy source remains, so affected reads must
		// fail typed forever.
		if err := load(0, total); err != nil {
			return err
		}
		if err := ks.Compact(p); err != nil {
			return err
		}
		for _, dev := range owners {
			if err := corruptOn(p, arr, dev, core.ExtentSorted, 0); err != nil {
				return err
			}
		}

	case rotMidMigration:
		// Power-cut one replica, write hinted keys, compact the survivor,
		// poison it, then restart the cut device, let the hints replay and
		// its own compaction catch up, and repair the survivor from it.
		if err := load(0, total); err != nil {
			return err
		}
		arr.PowerCut(p, owners[0])
		extra := 16
		if err := load(total, total+extra); err != nil {
			return err
		}
		total += extra
		if err := ks.Compact(p); err != nil {
			return err
		}
		if err := corruptOn(p, arr, owners[1], core.ExtentSorted, 0); err != nil {
			return err
		}
	}

	// --- degraded sweep: the invariant must hold mid-fault ----------------
	wrong, typed := corruptionSweep(p, ks, opts, total)
	sc.Reads += total
	sc.Wrong += wrong
	sc.TypedErrs = typed

	// --- heal the fleet and drive repair to convergence -------------------
	if nem == rotDuringLoad {
		arr.Member(owners[0]).Dev.SSD().SetFaultProfile(nil)
	}
	if nem == rotMidMigration {
		if _, err := arr.RestartDevice(p, owners[0]); err != nil {
			return err
		}
		// The restarted replica recovered WRITABLE (it was cut before its
		// compaction); compact it so its sorted extents can seed repairs.
		if err := ks.Compact(p); err != nil {
			return err
		}
	}
	arr.WaitRepairsIdle(p)
	// Three passes: enough for repairable rot to heal and for unrepairable
	// zones to accumulate quarantine strikes (three per zone).
	for pass := 0; pass < 3; pass++ {
		for _, dev := range owners {
			if _, err := arr.RepairDevice(p, dev); err != nil {
				return fmt.Errorf("repair pass %d device %d: %w", pass, dev, err)
			}
		}
	}
	arr.WaitRepairsIdle(p)

	// --- final sweep + residual scrub -------------------------------------
	wrong, typed = corruptionSweep(p, ks, opts, total)
	sc.Reads += total
	sc.Wrong += wrong
	sc.FinalErrs = typed
	sc.Converged = typed == 0 && wrong == 0
	for _, dev := range owners {
		rep, err := arr.ScrubDevice(p, dev)
		if err != nil {
			return fmt.Errorf("closing scrub device %d: %w", dev, err)
		}
		sc.Residual += len(rep.Corrupt)
	}
	return nil
}

// corruptOn poisons granule g of one extent kind of the scenario keyspace on
// one device, through the full host->device command path.
func corruptOn(p *sim.Proc, arr *array.Array, dev int, kind core.ExtentKind, granule int64) error {
	_, err := arr.CorruptExtent(p, dev, "rot", nvme.ExtentAddr{
		Kind:    uint8(kind),
		Granule: granule,
		Bits:    rotBits,
	})
	return err
}

// corruptionSweep reads every key back and classifies each answer: byte-exact,
// typed error, or silently wrong (poisoned bytes or a synced key vanishing).
func corruptionSweep(p *sim.Proc, ks *array.Keyspace, opts CorruptionOptions, total int) (wrong, typed int) {
	for i := 0; i < total; i++ {
		v, ok, err := ks.Get(p, keyFor(i))
		switch {
		case err != nil:
			typed++
		case !ok:
			wrong++ // a synced key vanished: silent data loss
		case !bytes.Equal(v, valueFor(i, opts.ValueSize)):
			wrong++ // poisoned bytes served as a successful read
		}
	}
	return wrong, typed
}
