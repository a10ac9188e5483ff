package stats

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestCounterAdd(t *testing.T) {
	s := NewIOStats()
	s.MediaRead.Add(100)
	s.MediaRead.Add(50)
	if s.MediaRead.Value() != 150 {
		t.Fatalf("value = %d", s.MediaRead.Value())
	}
	if s.MediaRead.Name() != "media_read_bytes" {
		t.Fatalf("name = %q", s.MediaRead.Name())
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := NewIOStats()
	s.Puts.Add(-1)
}

func TestWriteAmplification(t *testing.T) {
	s := NewIOStats()
	if s.WriteAmplification() != 0 {
		t.Fatal("empty WA should be 0")
	}
	s.AppWrite.Add(100)
	s.MediaWrite.Add(450)
	if wa := s.WriteAmplification(); wa != 4.5 {
		t.Fatalf("WA = %v", wa)
	}
}

func TestReadInflation(t *testing.T) {
	s := NewIOStats()
	if s.ReadInflation() != 0 {
		t.Fatal("empty inflation should be 0")
	}
	s.AppRead.Add(48)
	s.MediaRead.Add(4096)
	want := 4096.0 / 48.0
	if got := s.ReadInflation(); got != want {
		t.Fatalf("inflation = %v, want %v", got, want)
	}
}

func TestSnapshotContainsAllCounters(t *testing.T) {
	s := NewIOStats()
	s.Gets.Add(7)
	m := s.Snapshot()
	if len(m) != 23 {
		t.Fatalf("snapshot has %d entries", len(m))
	}
	if m["gets"] != 7 {
		t.Fatalf("gets = %d", m["gets"])
	}
}

func TestStringOnlyNonZeroSorted(t *testing.T) {
	s := NewIOStats()
	s.Puts.Add(2)
	s.Gets.Add(1)
	got := s.String()
	if got != "gets=1 puts=2" {
		t.Fatalf("String() = %q", got)
	}
}

func TestHumanBytes(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{1024, "1.0KiB"},
		{1536, "1.5KiB"},
		{1 << 20, "1.0MiB"},
		{1 << 30, "1.0GiB"},
		{3 << 40, "3.0TiB"},
	}
	for _, c := range cases {
		if got := HumanBytes(c.n); got != c.want {
			t.Errorf("HumanBytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram("lat")
	if h.Mean() != 0 || h.Min() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count %d", h.Count())
	}
	if h.Min() != time.Millisecond || h.Max() != 100*time.Millisecond {
		t.Fatalf("min/max %v/%v", h.Min(), h.Max())
	}
	if h.Mean() != 50500*time.Microsecond {
		t.Fatalf("mean %v", h.Mean())
	}
	if q := h.Quantile(0.5); q != 50*time.Millisecond {
		t.Fatalf("p50 %v", q)
	}
	if q := h.Quantile(0.99); q != 99*time.Millisecond {
		t.Fatalf("p99 %v", q)
	}
	if q := h.Quantile(0); q != time.Millisecond {
		t.Fatalf("p0 %v", q)
	}
	if q := h.Quantile(1); q != 100*time.Millisecond {
		t.Fatalf("p100 %v", q)
	}
}

func TestHistogramRecordAfterQuantile(t *testing.T) {
	h := NewHistogram("x")
	h.Record(5 * time.Millisecond)
	_ = h.Quantile(0.5)
	h.Record(time.Millisecond) // must re-sort
	if q := h.Quantile(0); q != time.Millisecond {
		t.Fatalf("p0 after re-record = %v", q)
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	h := NewHistogram("q")
	for i := 0; i < 37; i++ {
		h.Record(time.Duration((i*7919)%1000) * time.Microsecond)
	}
	f := func(a, b float64) bool {
		qa, qb := a-float64(int(a)), b-float64(int(b)) // into [0,1)
		if qa < 0 {
			qa = -qa
		}
		if qb < 0 {
			qb = -qb
		}
		if qa > qb {
			qa, qb = qb, qa
		}
		return h.Quantile(qa) <= h.Quantile(qb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramSamplesReturnsCopy(t *testing.T) {
	h := NewHistogram("s")
	h.Record(5 * time.Millisecond)
	h.Record(time.Millisecond)
	h.Record(3 * time.Millisecond)

	got := h.Samples()
	if len(got) != 3 {
		t.Fatalf("samples len = %d", len(got))
	}
	// Quantile sorts the backing slice in place; a previously returned copy
	// must not be affected (the regression this test pins down).
	before := append([]time.Duration(nil), got...)
	_ = h.Quantile(0.5)
	for i := range got {
		if got[i] != before[i] {
			t.Fatalf("Samples() result mutated by Quantile: %v -> %v", before, got)
		}
	}
	// Mutating the returned copy must not corrupt the histogram.
	got[0] = time.Hour
	if h.Max() != 5*time.Millisecond || h.Quantile(1) != 5*time.Millisecond {
		t.Fatal("mutating Samples() copy affected the histogram")
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram("a")
	b := NewHistogram("b")
	for i := 1; i <= 3; i++ {
		a.Record(time.Duration(i) * time.Millisecond)
	}
	for i := 4; i <= 6; i++ {
		b.Record(time.Duration(i) * time.Millisecond)
	}
	_ = a.Quantile(0.5) // leave a in sorted state; Merge must invalidate it

	a.Merge(b)
	if a.Count() != 6 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Min() != time.Millisecond || a.Max() != 6*time.Millisecond {
		t.Fatalf("merged min/max = %v/%v", a.Min(), a.Max())
	}
	if a.Sum() != 21*time.Millisecond {
		t.Fatalf("merged sum = %v", a.Sum())
	}
	if q := a.Quantile(1); q != 6*time.Millisecond {
		t.Fatalf("merged p100 = %v", q)
	}
	// b unchanged.
	if b.Count() != 3 || b.Min() != 4*time.Millisecond {
		t.Fatal("Merge mutated its argument")
	}
	a.Merge(nil)
	a.Merge(NewHistogram("empty"))
	if a.Count() != 6 {
		t.Fatalf("merge of nil/empty changed count to %d", a.Count())
	}
	// Empty receiver adopts min/max from the merged histogram.
	c := NewHistogram("c")
	c.Merge(b)
	if c.Min() != 4*time.Millisecond || c.Max() != 6*time.Millisecond {
		t.Fatalf("empty-receiver merge min/max = %v/%v", c.Min(), c.Max())
	}
}

func TestIOStatsCloneAndDelta(t *testing.T) {
	s := NewIOStats()
	s.Puts.Add(10)
	s.MediaWrite.Add(4096)

	prev := s.Clone()
	if prev.Puts.Value() != 10 || prev.MediaWrite.Value() != 4096 {
		t.Fatalf("clone values: %s", prev)
	}
	prev.Puts.Add(1)
	if s.Puts.Value() != 10 {
		t.Fatal("clone shares state with original")
	}

	prev = s.Clone()
	s.Puts.Add(5)
	s.MediaWrite.Add(100)
	s.Gets.Add(2)
	d := s.Delta(prev)
	if d.Puts.Value() != 5 || d.MediaWrite.Value() != 100 || d.Gets.Value() != 2 {
		t.Fatalf("delta = %s", d)
	}
	if d.AppWrite.Value() != 0 {
		t.Fatalf("untouched counter delta = %d", d.AppWrite.Value())
	}
	// Nil prev means "delta from zero".
	z := s.Delta(nil)
	if z.Puts.Value() != 15 {
		t.Fatalf("delta from nil = %d", z.Puts.Value())
	}
	// Delta result keeps counter names for reporting.
	if d.Puts.Name() != "puts" {
		t.Fatalf("delta counter name = %q", d.Puts.Name())
	}
}

func TestIOStatsMerge(t *testing.T) {
	a := NewIOStats()
	a.Puts.Add(10)
	a.MediaWrite.Add(4096)
	b := NewIOStats()
	b.Puts.Add(3)
	b.Gets.Add(7)
	b.MediaWrite.Add(1000)

	a.Merge(b)
	if a.Puts.Value() != 13 || a.Gets.Value() != 7 || a.MediaWrite.Value() != 5096 {
		t.Fatalf("merged = %s", a)
	}
	// Merge reads but does not mutate the operand.
	if b.Puts.Value() != 3 || b.MediaWrite.Value() != 1000 {
		t.Fatalf("operand mutated: %s", b)
	}
	// Nil operand is a no-op.
	a.Merge(nil)
	if a.Puts.Value() != 13 {
		t.Fatalf("merge(nil) changed counters: %s", a)
	}
	// Summing per-device blocks one by one equals merging all at once.
	total := NewIOStats()
	for _, st := range []*IOStats{a, b, b} {
		total.Merge(st)
	}
	if total.Puts.Value() != 13+3+3 || total.MediaWrite.Value() != 5096+2000 {
		t.Fatalf("aggregate = %s", total)
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram("lat")
	if !strings.Contains(h.String(), "empty") {
		t.Fatalf("empty string %q", h.String())
	}
	h.Record(time.Second)
	if !strings.Contains(h.String(), "n=1") {
		t.Fatalf("string %q", h.String())
	}
}
