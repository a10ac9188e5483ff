// Package bench regenerates every table and figure of the paper's evaluation
// (§VI): the micro benchmarks (Figures 7a/7b, 8, 9, 10a/10b), the VPIC macro
// benchmarks (Figures 11, 12), the hardware table (Table I), and ablations of
// KV-CSD design choices. The same experiment functions back the cmd/ tools,
// the root testing.B benchmarks, and the calibration tests that assert the
// paper's comparative shapes.
//
// Absolute numbers are virtual-time results from the simulator and are not
// expected to match the paper's testbed; the comparative shapes (who wins,
// by roughly what factor, where crossovers fall) are the reproduction target.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"kvcsd/internal/device"
	"kvcsd/internal/host"
	"kvcsd/internal/rocks"
	"kvcsd/internal/sim"
	"kvcsd/internal/ssd"
	"kvcsd/internal/stats"
	"kvcsd/internal/vfs"
	"kvcsd/internal/workload"
)

// Scale sizes the experiments. The default keeps `go test -bench` fast;
// cmd tools scale it up toward paper sizes with -scale.
type Scale struct {
	// Fig 7: total pairs inserted per run into one shared keyspace.
	Fig7TotalKeys int
	// Fig 7/9 thread sweep.
	Threads []int
	// Fig 8: pairs per run and the value sizes swept.
	Fig8TotalKeys  int
	Fig8ValueSizes []int
	// Fig 9: pairs inserted per keyspace (paper: 32M each).
	Fig9KeysPerKeyspace int
	// Fig 10: query-count sweep (paper: 32K..320K) and keyspace count.
	Fig10Queries   []int
	Fig10Keyspaces int
	Fig10KeysPerKS int
	// Fig 11/12: VPIC files and particles per file (paper: 16 x 16M).
	VPICFiles            int
	VPICParticlesPerFile int
	// Fig 12 selectivities, as fractions.
	Selectivities []float64
	// Array scaling: fixed total pairs spread over the device sweep, and the
	// random GETs issued after the fleet compaction.
	ArrayTotalKeys int
	ArrayQueries   int
	// Overload fairness: point gets per reader tenant per phase (the other
	// profiles are sized relative to this).
	FairnessOps int
	Seed        int64
}

// DefaultScale keeps every figure under a few seconds of real time.
func DefaultScale() Scale {
	return Scale{
		Fig7TotalKeys:        16384,
		Threads:              []int{1, 2, 4, 8, 16, 32},
		Fig8TotalKeys:        8192,
		Fig8ValueSizes:       []int{32, 128, 512, 4096},
		Fig9KeysPerKeyspace:  8192,
		Fig10Queries:         []int{256, 512, 1024, 2048},
		Fig10Keyspaces:       8,
		Fig10KeysPerKS:       16384,
		VPICFiles:            16,
		VPICParticlesPerFile: 16384,
		Selectivities:        []float64{0.001, 0.005, 0.01, 0.05, 0.20},
		ArrayTotalKeys:       16384,
		ArrayQueries:         2048,
		FairnessOps:          512,
		Seed:                 1,
	}
}

// Multiply scales the data sizes by f (thread lists unchanged).
func (s Scale) Multiply(f int) Scale {
	if f <= 1 {
		return s
	}
	s.Fig7TotalKeys *= f
	s.Fig8TotalKeys *= f
	s.Fig9KeysPerKeyspace *= f
	s.Fig10KeysPerKS *= f
	s.VPICParticlesPerFile *= f
	s.ArrayTotalKeys *= f
	s.FairnessOps *= f
	for i := range s.Fig10Queries {
		s.Fig10Queries[i] *= f
	}
	return s
}

// Table is one rendered experiment result.
type Table struct {
	// Fig is the figure id ("7a", "ablation-striping", ...), which names the
	// figure's trajectory file, and Keys the header columns that identify a
	// row in it; neither is printed.
	Fig    string
	Keys   []string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// VirtualEndNs is the virtual clock at which each simulation the figure
	// ran stopped, in run order. Cells are rounded for reading; these are
	// exact, so a model change too small to move a cell still moves them.
	VirtualEndNs []int64
}

// Add appends a row of stringified cells.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Print renders the table with aligned columns.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// Cell lookups for calibration tests.
func (t *Table) col(name string) int {
	for i, h := range t.Header {
		if h == name {
			return i
		}
	}
	return -1
}

// Float returns a numeric cell by row index and column name.
func (t *Table) Float(row int, colName string) float64 {
	c := t.col(colName)
	if c < 0 || row >= len(t.Rows) {
		return 0
	}
	var v float64
	fmt.Sscanf(strings.TrimSuffix(t.Rows[row][c], "x"), "%g", &v)
	return v
}

func secs(d time.Duration) string { return fmt.Sprintf("%.4f", d.Seconds()) }

func ratio(a, b time.Duration) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(a)/float64(b))
}

// chanSkew renders a row's chan_skew cell: the busiest NAND channel's busy
// time over the mean busy time, counting only what each channel accrued since
// the before snapshot of ssd.ChannelBusyTimes (nil: since the device started).
// 1.00 is an even spread; a striped read waits on its busiest channel.
func chanSkew(dev *ssd.Device, before []time.Duration) string {
	var sum, peak time.Duration
	busy := dev.ChannelBusyTimes(nil)
	for i, b := range busy {
		if before != nil {
			b -= before[i]
		}
		sum += b
		peak = max(peak, b)
	}
	if sum == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(peak)*float64(len(busy))/float64(sum))
}

// --- Rig assembly ----------------------------------------------------------

// kvcsdRig is one host + KV-CSD device environment.
type kvcsdRig struct {
	env *sim.Env
	h   *host.Host
	dev *device.Device
	st  *stats.IOStats
	tgt *workload.KVCSDTarget
}

// kvcsdSSDConfig sizes the simulated drive generously relative to the data.
func kvcsdSSDConfig(dataBytes int64) ssd.Config {
	cfg := ssd.DefaultConfig()
	cfg.ZoneSize = 4 << 20
	need := int(dataBytes*8/cfg.ZoneSize) + 512
	if need < 2048 {
		need = 2048
	}
	cfg.NumZones = need
	return cfg
}

func newKVCSDRig(hostCores int, dataBytes int64, seed int64) *kvcsdRig {
	return newKVCSDRigWith(hostCores, dataBytes, seed, nil)
}

// rocksRig is one host + ext4 + RocksDB-baseline environment.
type rocksRig struct {
	env *sim.Env
	h   *host.Host
	dev *ssd.Device
	fs  *vfs.FS
	st  *stats.IOStats
	tgt *workload.RocksTarget
}

// rocksOptions scales LSM knobs to the experiment size so flushes and
// compactions actually happen at bench scale.
func rocksOptions(mode rocks.CompactionMode, dataBytes int64) rocks.Options {
	o := rocks.DefaultOptions()
	o.CompactionMode = mode
	mem := dataBytes / 12
	if mem < 24<<10 {
		mem = 24 << 10
	}
	if mem > 64<<20 {
		mem = 64 << 20
	}
	o.MemtableBytes = mem
	o.L0CompactionTrigger = 8
	o.L0SlowdownTrigger = 24
	o.L0StopTrigger = 40
	o.BaseLevelBytes = mem * 8
	o.TargetFileBytes = mem * 2
	// Paper regime: data-size-to-memory-size ratio is high, so caches hold
	// a small fraction of the store.
	o.BlockCacheBytes = dataBytes / 8
	if o.BlockCacheBytes < 128<<10 {
		o.BlockCacheBytes = 128 << 10
	}
	return o
}

func newRocksRig(hostCores int, mode rocks.CompactionMode, dataBytes int64, seed int64) *rocksRig {
	return newRocksRigPer(hostCores, mode, dataBytes, dataBytes, seed)
}

// newRocksRigPer sizes LSM knobs by per-instance bytes while sizing the
// drive and page cache by total bytes.
func newRocksRigPer(hostCores int, mode rocks.CompactionMode, dataBytes, perInstanceBytes, seed int64) *rocksRig {
	env := sim.NewEnv()
	st := stats.NewIOStats()
	hcfg := host.DefaultHostConfig()
	if hostCores > 0 {
		hcfg.Cores = hostCores
	}
	h := host.New(env, hcfg)
	scfg := ssd.DefaultConfig()
	blocks := dataBytes * 10 / int64(scfg.BlockSize)
	if blocks < 1<<18 {
		blocks = 1 << 18
	}
	scfg.ConvBlocks = blocks
	dev := ssd.New(env, scfg, st)
	vcfg := vfs.DefaultConfig()
	vcfg.PageCacheBytes = dataBytes / 8 // paper: high data-size-to-memory-size ratios
	if vcfg.PageCacheBytes < 256<<10 {
		vcfg.PageCacheBytes = 256 << 10
	}
	fsys := vfs.New(dev, h, vcfg, st)
	return &rocksRig{
		env: env, h: h, dev: dev, fs: fsys, st: st,
		tgt: workload.NewRocksTarget(h, fsys, sim.NewRNG(seed), rocksOptions(mode, perInstanceBytes)),
	}
}

// run drives env until no events remain and lists the clock it stopped at.
func (t *Table) run(env *sim.Env) {
	t.VirtualEndNs = append(t.VirtualEndNs, int64(env.Run()))
}

// runSim executes fn as the master process of a fresh simulation run on
// behalf of t and returns any error it reports.
func (t *Table) runSim(env *sim.Env, fn func(p *sim.Proc) error) error {
	var err error
	env.Go("experiment", func(p *sim.Proc) { err = fn(p) })
	t.run(env)
	return err
}
