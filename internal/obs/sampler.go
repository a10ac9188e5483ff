package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"time"

	"kvcsd/internal/sim"
)

// Sampler is a simulation process that records a row of metrics every
// interval of virtual time — the data behind throughput-over-time plots
// (Figure 9 style: watch foreground throughput dip while a background
// compaction runs).
//
// The probe is called once at creation (dt = 0, the baseline row) and then
// once per interval with the actual virtual time elapsed since the previous
// sample, so implementations can derive per-interval rates from cumulative
// counters via IOStats.Delta without resetting anything.
type Sampler struct {
	env      *sim.Env
	interval time.Duration
	header   []string
	units    []string
	probe    func(now sim.Time, dt time.Duration) []float64

	times   []sim.Time
	rows    [][]float64
	stopped bool
	proc    *sim.Proc
}

// StartSampler spawns the sampling process. Interval must be positive.
// Callers must Stop the sampler before the simulation can drain (a periodic
// process otherwise keeps the event queue alive forever).
func StartSampler(env *sim.Env, interval time.Duration, header []string, probe func(now sim.Time, dt time.Duration) []float64) *Sampler {
	if interval <= 0 {
		panic("obs: sampler interval must be positive")
	}
	s := &Sampler{env: env, interval: interval, header: header, probe: probe}
	s.record(env.Now(), 0)
	s.proc = env.Go("obs-sampler", func(p *sim.Proc) {
		for {
			p.Sleep(s.interval)
			if s.stopped {
				return
			}
			s.record(p.Now(), time.Duration(p.Now()-s.times[len(s.times)-1]))
		}
	})
	return s
}

func (s *Sampler) record(now sim.Time, dt time.Duration) {
	s.times = append(s.times, now)
	s.rows = append(s.rows, s.probe(now, dt))
}

// Stop takes a final sample covering the partial last interval and
// terminates the sampling process. Safe to call more than once.
func (s *Sampler) Stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	if last := s.times[len(s.times)-1]; s.env.Now() > last {
		s.record(s.env.Now(), time.Duration(s.env.Now()-last))
	}
	// The process is parked in Sleep; wake it so it observes stopped and
	// exits (its stale sleep event is skipped once the process is done).
	s.env.Wake(s.proc)
}

// Header returns the column names (without the leading time column).
func (s *Sampler) Header() []string { return s.header }

// SetUnits attaches one unit string per header column (e.g. "1/s", "B/s").
// When set, WriteCSV emits them as a "# units:" comment line under the
// header; the leading time_s column is always in seconds and is added
// automatically. A mismatched length panics: silently misaligned units are
// worse than no units.
func (s *Sampler) SetUnits(units []string) {
	if len(units) != len(s.header) {
		panic("obs: sampler units must match header length")
	}
	s.units = units
}

// Times returns the sample timestamps.
func (s *Sampler) Times() []sim.Time { return s.times }

// Rows returns the sampled values, one row per timestamp.
func (s *Sampler) Rows() [][]float64 { return s.rows }

// WriteCSV renders the series as CSV.
//
// Output layout:
//
//	time_s,<col1>,<col2>,...        header row: column names
//	# units: s,<u1>,<u2>,...        only when SetUnits was called
//	0,0,...                         one row per sample
//
// Column meanings:
//
//   - time_s: virtual timestamp of the sample, in seconds since the
//     simulation epoch. Row 0 is the baseline sample taken at sampler
//     creation (dt = 0, so every rate column reads 0); the final row covers
//     the partial interval between the last tick and Stop.
//   - *_per_s / *_Bps rate columns: per-interval averages — the delta of a
//     cumulative counter over the interval divided by the interval's length
//     in seconds, NOT instantaneous rates at the sample instant.
//   - level columns (no rate suffix): gauges read at the sample instant,
//     e.g. outstanding commands or running background jobs.
//
// The "# units:" line is a comment under RFC 4180 readers that tolerate
// them; strict parsers should skip lines starting with '#'.
func (s *Sampler) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("time_s"); err != nil {
		return err
	}
	for _, h := range s.header {
		if _, err := fmt.Fprintf(bw, ",%s", h); err != nil {
			return err
		}
	}
	if err := bw.WriteByte('\n'); err != nil {
		return err
	}
	if s.units != nil {
		if _, err := bw.WriteString("# units: s"); err != nil {
			return err
		}
		for _, u := range s.units {
			if _, err := fmt.Fprintf(bw, ",%s", u); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	for i, t := range s.times {
		if _, err := bw.WriteString(strconv.FormatFloat(t.Seconds(), 'g', -1, 64)); err != nil {
			return err
		}
		for _, v := range s.rows[i] {
			if _, err := fmt.Fprintf(bw, ",%s", strconv.FormatFloat(v, 'g', 6, 64)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
