// Package chaos runs deterministic power-loss campaigns against the simulated
// KV-CSD. A campaign replays one scripted workload many times; each replay
// cuts power at a different crash point — after every k-th acknowledged op
// during load, and at seeded virtual-time offsets inside compaction — then
// restarts the device and checks the recovery invariants:
//
//   - no write that was acknowledged and then synced is lost;
//   - no torn or fabricated record ever surfaces to a query (every visible
//     value is byte-identical to what the workload wrote for that key);
//   - secondary indexes agree exactly with the primary index.
//
// Everything is driven by virtual time and seeded RNGs, so a campaign's
// Summary is byte-identical across reruns with the same Options.
package chaos

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"kvcsd/internal/client"
	"kvcsd/internal/device"
	"kvcsd/internal/host"
	"kvcsd/internal/keyenc"
	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
	"kvcsd/internal/stats"
)

// Options configures a campaign.
type Options struct {
	// Seed drives per-point device seeds and the compaction cut offsets.
	Seed int64
	// Ops is the scripted workload length (stores of distinct keys).
	Ops int
	// SyncEvery issues an explicit Sync after every SyncEvery-th store; pairs
	// up to the last successful Sync are the "acked-then-flushed" set that
	// must survive any crash.
	SyncEvery int
	// CutEvery places a load-phase crash point after every CutEvery-th op.
	CutEvery int
	// CompactionCuts is the number of crash points placed at seeded
	// virtual-time offsets inside a compaction run.
	CompactionCuts int
	// PipelineCuts is the number of crash points placed inside a
	// collaborative, width-4 pipelined compaction with a live host assist
	// loop — cuts land mid-pipeline and mid-host-merge.
	PipelineCuts int
	// MigrationCuts is the number of crash points placed inside a cold-tier
	// migration sweep following compaction.
	MigrationCuts int
	// ValueSize pads every value to this many bytes (>= 24).
	ValueSize int
	// Device is the device template; the zero value selects a small
	// fast-to-crash configuration.
	Device device.Options
}

// DefaultOptions returns a campaign with 180 load-phase, 24
// compaction-phase, 12 pipelined-compaction and 8 cold-migration crash
// points.
func DefaultOptions() Options {
	return Options{
		Seed:           1,
		Ops:            360,
		SyncEvery:      16,
		CutEvery:       2,
		CompactionCuts: 24,
		PipelineCuts:   12,
		MigrationCuts:  8,
		ValueSize:      64,
	}
}

// Point is the outcome of one crash point.
type Point struct {
	// Phase is "load", "compact", "pipeline" or "migrate".
	Phase string
	// Cut is the op index (load) or the virtual-ns offset into the phase.
	Cut int64
	// HostJobs counts the runs the host merged at a pipeline point, as the
	// device's compaction progress reports them (HostRuns): the pass the cut
	// interrupted plus the re-compaction.
	HostJobs int
	// Synced is how many pairs were acked and synced before the cut.
	Synced int
	// Present is how many pairs a full primary scan returned after recovery.
	Present int
	// Recovery scrub counters for this point.
	TornRecords, RecoveredFrames, RepairedZones, OrphanZones int
	LostBytes                                                int64
	// Err is the first invariant violation, empty when the point passed.
	Err string
}

// Result is the campaign outcome.
type Result struct {
	Seed     int64
	Points   []Point
	Failures int
}

// Summary renders the campaign deterministically, one line per crash point.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos campaign seed=%d points=%d failures=%d\n",
		r.Seed, len(r.Points), r.Failures)
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "%s cut=%d synced=%d present=%d torn=%d frames=%d zones=%d orphans=%d lost=%d",
			pt.Phase, pt.Cut, pt.Synced, pt.Present, pt.TornRecords,
			pt.RecoveredFrames, pt.RepairedZones, pt.OrphanZones, pt.LostBytes)
		if pt.Err != "" {
			fmt.Fprintf(&b, " FAIL(%s)", pt.Err)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// secSpec is the secondary index every campaign keyspace carries: the first 8
// value bytes, compared bytewise.
func secSpec() nvme.SecondaryIndexSpec {
	return nvme.SecondaryIndexSpec{Name: "sec", Offset: 0, Length: 8, Type: keyenc.TypeBytes}
}

// keyFor, valueFor and keyIndex define the scripted workload. Values embed
// the secondary field first so torn bytes anywhere corrupt the comparison.
func keyFor(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }

func valueFor(i, size int) []byte {
	v := fmt.Sprintf("%08d|val-%06d|", i%97, i)
	for len(v) < size {
		v += "x"
	}
	return []byte(v[:size])
}

func keyIndex(key []byte) (int, bool) {
	s := string(key)
	if !strings.HasPrefix(s, "key-") {
		return 0, false
	}
	n, err := strconv.Atoi(s[4:])
	return n, err == nil
}

// Run executes the campaign: every load-phase crash point, then, for each of
// the compaction, pipelined-compaction and cold-migration phases, a probe
// replay and the phase's crash points.
func Run(opts Options) *Result {
	if opts.Ops <= 0 {
		opts.Ops = DefaultOptions().Ops
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = DefaultOptions().SyncEvery
	}
	if opts.CutEvery <= 0 {
		opts.CutEvery = DefaultOptions().CutEvery
	}
	if opts.ValueSize < 24 {
		opts.ValueSize = DefaultOptions().ValueSize
	}
	res := &Result{Seed: opts.Seed}
	for cut := opts.CutEvery - 1; cut < opts.Ops; cut += opts.CutEvery {
		pt, _ := runPoint(opts, pointSpec{phase: "load", salt: int64(cut), upto: cut})
		res.Points = append(res.Points, pt)
	}
	// The other phases cut at seeded offsets into something the fully loaded
	// and synced workload has running; a probe replay with no cut measures
	// how long that runs, and the offsets are drawn from its window.
	for n, ph := range []struct {
		cuts    int
		cutSeed int64 // forks the offset RNG
		spec    pointSpec
	}{
		{opts.CompactionCuts, 0x43484153, // "CHAS"
			pointSpec{phase: "compact", start: startCompact}},
		{opts.PipelineCuts, 0x50495045, // "PIPE"
			pointSpec{phase: "pipeline", start: startCompact, tune: tunePipeline, assist: true}},
		{opts.MigrationCuts, 0x4D494752, // "MIGR"
			pointSpec{phase: "migrate", start: startMigrate, tune: tuneMigrate}},
	} {
		if ph.cuts <= 0 {
			continue
		}
		phase := int64(n + 1)
		spec := ph.spec
		spec.upto = opts.Ops - 1
		spec.salt, spec.probe = -phase, true
		_, window := runPoint(opts, spec)
		if window <= 0 {
			window = time.Millisecond
		}
		spec.probe = false
		rng := sim.NewRNG(opts.Seed).Fork(ph.cutSeed)
		for j := 0; j < ph.cuts; j++ {
			spec.salt = phase<<20 + int64(j)
			spec.off = sim.Duration(rng.Float64() * float64(window))
			pt, _ := runPoint(opts, spec)
			res.Points = append(res.Points, pt)
		}
	}
	for _, pt := range res.Points {
		if pt.Err != "" {
			res.Failures++
		}
	}
	return res
}

// smallDevice is the campaigns' device template: zones, buffers and sort
// budget small enough that a few hundred pairs cross flush, stripe and run
// boundaries, so faults land on interesting media states quickly.
func smallDevice() device.Options {
	dopts := device.DefaultOptions()
	dopts.SSD.ZoneSize = 256 << 10
	dopts.SSD.NumZones = 1024
	dopts.Engine.IngestBufferBytes = 16 << 10
	dopts.Engine.SortBudgetBytes = 64 << 10
	dopts.Engine.StripeWidth = 2
	return dopts
}

// newPointDevice builds a fresh simulation and device for one crash point;
// tune (optional) reshapes the device template for phase-specific points.
func newPointDevice(opts Options, salt int64, tune func(*device.Options)) (*sim.Env, *device.Device) {
	env := sim.NewEnv()
	dopts := opts.Device
	if dopts.QueueDepth == 0 && dopts.SSD.Channels == 0 {
		dopts = smallDevice()
	}
	if tune != nil {
		tune(&dopts)
	}
	dopts.Seed = opts.Seed ^ (salt+1)*0x9E3779B9
	return env, device.New(env, dopts, stats.NewIOStats())
}

func submit(p *sim.Proc, d *device.Device, cmd *nvme.Command) *nvme.Completion {
	return d.Queue().Submit(p, cmd).Wait(p)
}

// prologue creates and syncs the campaign keyspace so its existence itself is
// durable before any crash point.
func prologue(p *sim.Proc, d *device.Device) error {
	if c := submit(p, d, &nvme.Command{Op: nvme.OpCreateKeyspace, Keyspace: "chaos"}); c.Status != nvme.StatusOK {
		return fmt.Errorf("create: %v", c.Status)
	}
	if c := submit(p, d, &nvme.Command{Op: nvme.OpSync, Keyspace: "chaos"}); c.Status != nvme.StatusOK {
		return fmt.Errorf("create-sync: %v", c.Status)
	}
	return nil
}

// load stores ops [0, upto] with the scripted sync cadence and returns how
// many pairs were acked and synced.
func load(p *sim.Proc, d *device.Device, opts Options, upto int) (int, error) {
	synced := 0
	for i := 0; i <= upto; i++ {
		c := submit(p, d, &nvme.Command{
			Op: nvme.OpStore, Keyspace: "chaos",
			Key: keyFor(i), Value: valueFor(i, opts.ValueSize),
		})
		if c.Status != nvme.StatusOK {
			return synced, fmt.Errorf("store %d: %v", i, c.Status)
		}
		if (i+1)%opts.SyncEvery == 0 {
			if c := submit(p, d, &nvme.Command{Op: nvme.OpSync, Keyspace: "chaos"}); c.Status != nvme.StatusOK {
				return synced, fmt.Errorf("sync at %d: %v", i, c.Status)
			}
			synced = i + 1
		}
	}
	return synced, nil
}

// compactAndIndex brings the recovered keyspace to a queryable state with the
// campaign's secondary index built, whatever state recovery left it in.
func compactAndIndex(p *sim.Proc, d *device.Device) error {
	c := submit(p, d, &nvme.Command{
		Op: nvme.OpCompactWithIndexes, Keyspace: "chaos",
		Indexes: []nvme.SecondaryIndexSpec{secSpec()},
	})
	if c.Status != nvme.StatusOK {
		// Already compacted (the cut landed after compaction finished):
		// build the index on its own.
		if c := submit(p, d, &nvme.Command{Op: nvme.OpBuildSecondaryIndex, Keyspace: "chaos", Index: secSpec()}); c.Status != nvme.StatusOK {
			return fmt.Errorf("build index: %v", c.Status)
		}
	}
	if err := waitDone(p, d, nvme.Command{Op: nvme.OpCompactStatus, Keyspace: "chaos"}); err != nil {
		return err
	}
	return waitDone(p, d, nvme.Command{Op: nvme.OpIndexStatus, Keyspace: "chaos", Index: secSpec()})
}

// waitDone sends the status command with the wait bit: the device answers it
// when the job it asks about has ended.
func waitDone(p *sim.Proc, d *device.Device, cmd nvme.Command) error {
	cmd.Wait = true
	if c := submit(p, d, &cmd); c.Status != nvme.StatusOK || !c.Done {
		return fmt.Errorf("%v: %v (done=%v)", cmd.Op, c.Status, c.Done)
	}
	return nil
}

// verify checks the three recovery invariants after the keyspace is
// compacted: synced pairs all present, every visible value exact, secondary
// index in exact agreement with the primary.
func verify(p *sim.Proc, d *device.Device, opts Options, pt *Point, lastStored int) {
	c := submit(p, d, &nvme.Command{Op: nvme.OpQueryPrimaryRange, Keyspace: "chaos"})
	if c.Status != nvme.StatusOK {
		pt.Err = fmt.Sprintf("primary scan: %v", c.Status)
		return
	}
	pt.Present = len(c.Pairs)
	seen := make(map[int]bool, len(c.Pairs))
	bySec := make(map[string][]string)
	for _, pr := range c.Pairs {
		i, ok := keyIndex(pr.Key)
		if !ok || i > lastStored {
			pt.Err = fmt.Sprintf("alien key %q surfaced", pr.Key)
			return
		}
		if !bytes.Equal(pr.Value, valueFor(i, opts.ValueSize)) {
			pt.Err = fmt.Sprintf("torn value surfaced for %q", pr.Key)
			return
		}
		seen[i] = true
		sec := string(pr.Value[:8])
		bySec[sec] = append(bySec[sec], string(pr.Key))
	}
	for i := 0; i < pt.Synced; i++ {
		if !seen[i] {
			pt.Err = fmt.Sprintf("lost acked+synced pair %q", keyFor(i))
			return
		}
	}
	// Secondary index: the full secondary scan must enumerate exactly the
	// primary pairs, and every point query must return exactly the primaries
	// carrying that secondary value.
	cs := submit(p, d, &nvme.Command{Op: nvme.OpQuerySecondaryRange, Keyspace: "chaos", Index: secSpec()})
	if cs.Status != nvme.StatusOK {
		pt.Err = fmt.Sprintf("secondary scan: %v", cs.Status)
		return
	}
	if len(cs.Pairs) != len(c.Pairs) {
		pt.Err = fmt.Sprintf("secondary scan %d pairs, primary %d", len(cs.Pairs), len(c.Pairs))
		return
	}
	secs := make([]string, 0, len(bySec))
	for s := range bySec {
		secs = append(secs, s)
	}
	sort.Strings(secs)
	for _, s := range secs {
		cq := submit(p, d, &nvme.Command{Op: nvme.OpQuerySecondaryPoint, Keyspace: "chaos", Index: secSpec(), Key: []byte(s)})
		if cq.Status != nvme.StatusOK {
			pt.Err = fmt.Sprintf("secondary point %q: %v", s, cq.Status)
			return
		}
		got := make([]string, 0, len(cq.Pairs))
		for _, pr := range cq.Pairs {
			got = append(got, string(pr.Key))
		}
		sort.Strings(got)
		want := append([]string(nil), bySec[s]...)
		sort.Strings(want)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			pt.Err = fmt.Sprintf("secondary point %q: got %d keys, want %d", s, len(got), len(want))
			return
		}
	}
}

// What a crash point has running when the power goes.
const (
	startNothing = iota // the cut follows the ack of the last loaded op
	startCompact        // a compaction of the fully loaded, synced workload
	startMigrate        // a cold-tier migration sweep, after that compaction finished
)

// pointSpec is how one replay of the scripted workload differs from the
// others: how far it loads, what it starts, where it cuts and whether a host
// assist loop runs.
type pointSpec struct {
	phase  string                // Point.Phase
	salt   int64                 // derives the replay's device seed
	tune   func(*device.Options) // reshapes the device template (nil: as it is)
	upto   int                   // stores ops [0, upto]
	start  int                   // startNothing, startCompact or startMigrate
	assist bool                  // a host assist loop serves merge jobs, before the cut and after restart
	off    sim.Duration          // the cut lands this far into what was started
	probe  bool                  // no cut: report how long what was started ran
}

// runPoint replays the scripted workload once: prologue, load, and — for the
// phases that load everything — a final sync, then whatever the spec starts;
// power is cut spec.off into that, the device restarts, and the recovered
// keyspace is compacted, indexed and verified. With everything synced, every
// single pair must survive. A probe replay stops where the cut would come and
// returns the virtual time the started work took instead.
//
// A pipeline cut can land with a merge job in flight on the host (the
// submitter falls back via ErrAssistClosed), between pipeline stages, or
// inside the value distribution; after restart a fresh assist loop
// re-attaches, so the re-compaction that builds the verification index is
// itself collaborative. A migration sweep persists the metadata snapshot
// referencing fresh cold zones before releasing the hot originals, so a cut at
// any offset leaves either tier fully readable — at worst orphan cold zones
// for the recovery sweep to reclaim — and never a value that moved but is
// referenced nowhere.
func runPoint(opts Options, spec pointSpec) (pt Point, window sim.Duration) {
	pt = Point{Phase: spec.phase, Cut: int64(spec.off)}
	if spec.start == startNothing {
		pt.Cut = int64(spec.upto)
	}
	env, d := newPointDevice(opts, spec.salt, spec.tune)
	h := host.New(env, host.DefaultHostConfig())
	var assists []*sim.Proc
	spawnAssist := func() {
		if !spec.assist {
			return
		}
		assists = append(assists, env.Go("assist", func(ap *sim.Proc) {
			client.New(h, d).ServeHostMerges(ap, nil)
		}))
	}
	hostRuns := func() int {
		pr, _ := d.Engine().Progress("chaos")
		return int(pr.HostRuns)
	}
	// script is the replay; an error is a harness failure or a refused step.
	script := func(p *sim.Proc) error {
		step := func(what string, op nvme.Opcode) error {
			if c := submit(p, d, &nvme.Command{Op: op, Keyspace: "chaos"}); c.Status != nvme.StatusOK {
				return fmt.Errorf("%s: %v", what, c.Status)
			}
			return nil
		}
		if err := prologue(p, d); err != nil {
			return err
		}
		synced, err := load(p, d, opts, spec.upto)
		if err != nil {
			return err
		}
		pt.Synced = synced
		// The sweep runs inside one command; in a cut replay it is on a proc
		// of its own, so the cut lands mid-sweep and the command completes
		// with StatusPoweredOff.
		migrate := func(mp *sim.Proc) { submit(mp, d, &nvme.Command{Op: nvme.OpMigrateCold}) }
		var migrator *sim.Proc
		if spec.start != startNothing {
			if err := step("final sync", nvme.OpSync); err != nil {
				return err
			}
			pt.Synced = spec.upto + 1
			spawnAssist()
			started := p.Now()
			if err := step("compact", nvme.OpCompact); err != nil {
				return err
			}
			if spec.start == startMigrate || spec.probe {
				if err := waitDone(p, d, nvme.Command{Op: nvme.OpCompactStatus, Keyspace: "chaos"}); err != nil {
					return err
				}
			}
			if spec.start == startMigrate {
				started = p.Now()
				if spec.probe {
					migrate(p)
				} else {
					migrator = env.Go("migrate", migrate)
				}
			}
			if spec.probe {
				window = sim.Duration(p.Now() - started)
				return nil
			}
			p.Sleep(spec.off)
		}
		pt.HostJobs = hostRuns()
		d.PowerCut(p)
		if migrator != nil {
			p.Join(migrator)
		}
		rep, err := d.Restart(p)
		if err != nil {
			return fmt.Errorf("restart: %v", err)
		}
		pt.TornRecords, pt.RecoveredFrames = rep.TornRecords, rep.RecoveredFrames
		pt.RepairedZones, pt.OrphanZones, pt.LostBytes = rep.RepairedZones, rep.OrphanZones, rep.LostBytes
		spawnAssist()
		if err := compactAndIndex(p, d); err != nil {
			return err
		}
		pt.HostJobs += hostRuns()
		verify(p, d, opts, &pt, spec.upto)
		return nil
	}
	env.Go("chaos", func(p *sim.Proc) {
		defer d.Shutdown()
		if spec.assist {
			// Quiesce before the queue closes: closing the assist queue
			// unparks any polling loop, which then observes Done and exits
			// without submitting to a closed queue.
			defer func() {
				d.Engine().CloseAssist()
				p.Join(assists...)
			}()
		}
		if err := script(p); err != nil {
			pt.Err = err.Error()
		}
	})
	env.Run()
	return pt, window
}
