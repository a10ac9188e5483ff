package core

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"kvcsd/internal/sim"
	"kvcsd/internal/ssd"
)

// appendLog is a chunkSink that records the size of every Append before
// handing it to the cluster.
type appendLog struct {
	*Cluster
	sizes []int
}

func (l *appendLog) Append(p *sim.Proc, data []byte) error {
	l.sizes = append(l.sizes, len(data))
	return l.Cluster.Append(p, data)
}

// stagedPipeline returns a pipeline of width width on env whose writers
// share one set of write procs, as an engine's do.
func stagedPipeline(env *sim.Env, width int) pipeline {
	return pipeline{env: env, width: width, writes: new(writeProcs)}
}

// writerInput is the test input of one flush rule: the pieces to add and the
// Append sizes the rule makes of them.
type writerInput struct {
	name   string
	pieces [][]byte
	add    func(w *chunkWriter, p *sim.Proc, b []byte) error
	want   []int
}

// writerInputs returns a record stream for the first flush rule — records of
// 1 byte to 9 KiB, some longer than the buffer's slack — and a raw stream for
// the second, in pieces of 1 byte to 300 KiB.
func writerInputs() []writerInput {
	var recs, raw [][]byte
	var recWant, rawWant []int
	acc, total := 0, 0
	for i := 0; total < 3<<20; i++ {
		b := bytes.Repeat([]byte{byte(i)}, 1+(i*7919)%9000)
		recs = append(recs, b)
		total += len(b)
		if acc += len(b); acc >= writeChunk {
			recWant, acc = append(recWant, acc), 0
		}
	}
	if acc > 0 {
		recWant = append(recWant, acc)
	}
	total = 0
	for i := 0; total < 3<<20; i++ {
		b := bytes.Repeat([]byte{byte(i)}, 1+(i*104729)%(300<<10))
		raw = append(raw, b)
		total += len(b)
	}
	for ; total > 0; total -= writeChunk {
		rawWant = append(rawWant, min(total, writeChunk))
	}
	return []writerInput{
		{"records", recs, (*chunkWriter).put, recWant},
		{"raw", raw, (*chunkWriter).write, rawWant},
	}
}

// TestChunkWriterFlushRules pins the Append sizes of both flush rules, inline
// and through the write stage: records are appended once the buffer holds
// writeChunk bytes or more and never split, raw bytes are cut at exactly
// writeChunk. The output bytes are the input in order, and the inline writer
// issues the media writes plain Appends of those sizes issue.
func TestChunkWriterFlushRules(t *testing.T) {
	const width = 3
	for _, in := range writerInputs() {
		for _, staged := range []bool{false, true} {
			fx := newSortFixture(0)
			fx.run(t, func(p *sim.Proc) {
				pl := pipeline{}
				if staged {
					pl = stagedPipeline(fx.env, width)
				}
				log := &appendLog{Cluster: fx.zm.NewCluster(ZoneTemp)}
				var moved uint64
				var w chunkWriter
				writes := mediaOps(p, fx.zm, "write", func() {
					w.open(log, pl, &moved)
					for _, b := range in.pieces {
						if err := in.add(&w, p, b); err != nil {
							t.Fatal(err)
						}
					}
					if err := w.finish(p); err != nil {
						t.Fatal(err)
					}
				})
				if !slices.Equal(log.sizes, in.want) {
					t.Fatalf("%s, staged %v: Append sizes %v, want %v", in.name, staged, log.sizes, in.want)
				}
				want := bytes.Join(in.pieces, nil)
				got := make([]byte, log.Len())
				if err := log.ReadAt(p, got, 0); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) || moved != uint64(len(want)) {
					t.Fatalf("%s, staged %v: %d bytes out of %d in, %d counted moved", in.name, staged, len(got), len(want), moved)
				}
				if staged {
					return // the appends ran on the stage proc, which mediaOps does not trace
				}
				plain := fx.zm.NewCluster(ZoneTemp)
				direct := mediaOps(p, fx.zm, "write", func() {
					off := 0
					for _, n := range in.want {
						if err := plain.Append(p, want[off:off+n]); err != nil {
							t.Fatal(err)
						}
						off += n
					}
					if err := plain.Seal(p); err != nil {
						t.Fatal(err)
					}
				})
				if writes != direct {
					t.Fatalf("%s: the writer issued %d media writes, plain Appends of its sizes %d", in.name, writes, direct)
				}
			})
		}
	}
}

// TestChunkWriterStagedAppendError: an Append failing in the middle of a
// staged write reaches the producer, and stopping the writer waits for every
// write proc's burst and lets the procs go, leaving no burst counted in the
// pipeline.
func TestChunkWriterStagedAppendError(t *testing.T) {
	fx := newSortFixture(0)
	fx.run(t, func(p *sim.Proc) {
		occupancy := 0
		var w chunkWriter
		procs := new(writeProcs)
		w.open(fx.zm.NewCluster(ZoneTemp), pipeline{env: fx.env, width: 3, onDelta: func(d, _ int) { occupancy += d }, writes: procs}, nil)
		fx.zm.dev.InjectFault("zone-write", -1, 9) // a few Appends land first
		raw := make([]byte, writeChunk)
		var err error
		var landings []*landing // each write proc's burst in hand
		appended := 0
		for ; appended < 64 && err == nil; appended++ {
			err = w.write(p, raw)
			for _, b := range w.app.live {
				if !slices.Contains(landings, b) {
					landings = append(landings, b)
				}
			}
		}
		if err == nil {
			err = w.finish(p)
		}
		if serr := w.stop(p); serr != nil && err == nil {
			err = serr
		}
		if !errors.Is(err, ssd.ErrInjectedFault) || appended < 2 {
			t.Fatalf("after %d chunks: %v, want the injected fault mid-stream", appended, err)
		}
		for i, l := range landings {
			if !l.done.Fired() {
				t.Fatalf("write proc %d's burst was not waited for", i)
			}
		}
		if len(landings) < 2 || len(w.app.live) != 0 || procs.rp != nil || procs.users != 0 {
			t.Fatalf("%d write procs seen, %d bursts still live, procs let go: %v (%d users)", len(landings), len(w.app.live), procs.rp == nil, procs.users)
		}
		if occupancy != 0 || w.app.held != 0 {
			t.Fatalf("%d bursts still counted in the pipeline, %d bytes held", occupancy, w.app.held)
		}
	})
}

// TestWriteProcsSharedAcrossWriters: two writers on one pipeline land their
// bursts on one set of write procs — a proc that landed one writer's burst
// lands the other's — and each output still gets its bytes in order. The set
// stays up while either writer is on it: the first writer's stop leaves it to
// the second, whose bursts keep landing, and the second's lets it go.
func TestWriteProcsSharedAcrossWriters(t *testing.T) {
	const width, chunks = 2, 24
	fx := newSortFixture(0)
	fx.run(t, func(p *sim.Proc) {
		pl := stagedPipeline(fx.env, width)
		var ws [2]chunkWriter
		var outs [2]*Cluster
		var want [2][]byte
		for i := range ws {
			outs[i] = fx.zm.NewCluster(ZoneTemp)
			ws[i].open(outs[i], pl, nil)
		}
		lands := [2]map[*landing]bool{{}, {}} // the landings, so the procs, each writer's bursts took
		write := func(i, k int) {
			b := bytes.Repeat([]byte{byte(16*i + k%16)}, writeChunk)
			want[i] = append(want[i], b...)
			if err := ws[i].write(p, b); err != nil {
				t.Fatal(err)
			}
			for _, l := range ws[i].app.live {
				lands[i][l] = true
			}
		}
		for k := 0; k < chunks; k++ {
			write(0, k)
			write(1, k)
		}
		if err := ws[0].finish(p); err != nil { // stops the writer and seals its output
			t.Fatal(err)
		}
		if pl.writes.rp == nil || pl.writes.users != 1 {
			t.Fatalf("after the first writer stopped: procs let go %v, %d users; want them kept for the second", pl.writes.rp == nil, pl.writes.users)
		}
		for k := chunks; k < 2*chunks; k++ {
			write(1, k)
		}
		if err := ws[1].finish(p); err != nil {
			t.Fatal(err)
		}
		if pl.writes.rp != nil || pl.writes.users != 0 {
			t.Fatalf("after both writers stopped: procs let go %v, %d users", pl.writes.rp == nil, pl.writes.users)
		}
		shared := 0
		for l := range lands[0] {
			if lands[1][l] {
				shared++
			}
		}
		if shared == 0 {
			t.Errorf("no write proc landed bursts of both writers (%d and %d procs seen)", len(lands[0]), len(lands[1]))
		}
		for i, c := range outs {
			if got := readCluster(t, p, c); !bytes.Equal(got, want[i]) {
				t.Errorf("writer %d: its output holds %d bytes, not the %d it wrote in order", i, len(got), len(want[i]))
			}
		}
	})
}

// TestSpilledValueSortOverlapsAppends: the buckets of a spilled value sort
// append at once through the write stage — more than one append is in flight
// at some instant — while the bursts handed off and not yet appended never
// hold more than width × writeChunk bytes, and every bucket gets the bytes
// the same writer appends inline, in the same order.
func TestSpilledValueSortOverlapsAppends(t *testing.T) {
	const width, n, vsize = 4, 6000, 200
	cfg := DefaultConfig()
	cfg.SortBudgetBytes = 128 << 10 // 1.2 MB of values: ten buckets
	recs := shuffledValues(n, vsize, 5)
	run := func(staged bool) (buckets [][]byte, inflight int) {
		fx := newEngineFixture(cfg)
		fx.run(t, func(p *sim.Proc) {
			var moved uint64
			w := fx.eng.newBucketWriter(uint64(n*vsize)+1, &moved)
			if staged {
				queued := 0 // bursts handed off whose Append has not begun
				w.app.pl = pipeline{env: fx.env, width: width, writes: new(writeProcs), onDelta: func(d, _ int) {
					queued += d
					inflight = max(inflight, len(w.app.live)-queued)
					if w.app.held > width*writeChunk {
						t.Errorf("the write stage holds %d bytes, more than %d", w.app.held, width*writeChunk)
					}
				}}
			}
			for _, r := range recs {
				if err := w.add(p, r.destOff, valueCodec{}.Encode(nil, r)); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.finish(p); err != nil {
				t.Fatal(err)
			}
			for _, bk := range w.buckets() {
				buckets = append(buckets, readCluster(t, p, bk.c))
			}
			if err := w.release(p); err != nil {
				t.Fatal(err)
			}
		})
		return buckets, inflight
	}
	inline, _ := run(false)
	staged, inflight := run(true)
	if len(inline) < 8 || !slices.EqualFunc(inline, staged, bytes.Equal) {
		t.Fatalf("%d buckets inline, %d staged, or their bytes differ", len(inline), len(staged))
	}
	if inflight < 2 {
		t.Fatalf("at most %d append in flight at once, want the buckets' appends to overlap", inflight)
	}
}

// nopSink is a chunkSink that keeps nothing.
type nopSink struct{}

func (nopSink) Append(*sim.Proc, []byte) error { return nil }
func (nopSink) Seal(*sim.Proc) error           { return nil }

// allocBytes returns the bytes f allocates on its second run.
func allocBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestChunkWriterAllocs: a reopened inline writer reuses its one buffer, so
// a pass allocates nothing; a staged pass cycles at most ring width + 2
// chunks, however many it writes — the stage's rings and wake lists are what
// else it allocates. Its write procs are resident: a burst lands on a parked
// proc, so 48 bursts more cost fewer than 48 allocations more (a proc per
// burst cost about five each: 87 allocations for 16 chunks, 327 for 64).
func TestChunkWriterAllocs(t *testing.T) {
	const width = 4
	fx := newSortFixture(0)
	fx.run(t, func(p *sim.Proc) {
		raw := make([]byte, writeChunk)
		var w chunkWriter
		pass := func(pl pipeline, chunks int) func() {
			return func() {
				w.open(nopSink{}, pl, nil)
				for i := 0; i < chunks; i++ {
					if err := w.write(p, raw); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.finish(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		if n := testing.AllocsPerRun(10, pass(pipeline{}, 64)); n != 0 {
			t.Errorf("an inline pass of 64 chunks allocated %v times, want 0", n)
		}
		staged := stagedPipeline(fx.env, width)
		chunk := uint64(writeChunk + scanSlack)
		if got := allocBytes(pass(staged, 64)); got > (width+2)*chunk {
			t.Errorf("a staged pass of 64 chunks allocated %d bytes, more than %d chunks", got, width+2)
		}
		few, many := testing.AllocsPerRun(10, pass(staged, 16)), testing.AllocsPerRun(10, pass(staged, 64))
		if many-few >= 64-16 {
			t.Errorf("a staged pass allocated %v times for 16 chunks and %v for 64: a write proc per burst", few, many)
		}
	})
}

// TestPrefetchAllocs: a prefetcher takes back the chunk it handed out last
// and reads a later one into it, so streaming a cluster of 64 chunks
// allocates one chunk inline and at most ring width + 2 staged, past what the
// same 64 ReadAt calls into one buffer allocate — the stage's ring and wake
// lists are what else it allocates.
func TestPrefetchAllocs(t *testing.T) {
	const width, chunks = 4, 64
	fx := newSortFixture(0)
	fx.run(t, func(p *sim.Proc) {
		c := fx.zm.NewCluster(ZoneTemp)
		raw := make([]byte, scanChunk)
		for i := 0; i < chunks; i++ {
			if err := c.Append(p, raw); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Seal(p); err != nil {
			t.Fatal(err)
		}
		pass := func(pl pipeline) func() {
			return func() {
				pf := pl.prefetch(whole(c))
				defer pf.stop(p)
				for n := 0; n < chunks; n++ {
					if _, err := pf.next(p); err != nil {
						t.Fatal(err)
					}
				}
				if pf.left != 0 {
					t.Fatalf("%d bytes left after %d chunks", pf.left, chunks)
				}
			}
		}
		buf := make([]byte, scanChunk)
		reads := allocBytes(func() {
			for off := int64(0); off < c.Len(); off += scanChunk {
				if err := c.ReadAt(p, buf, off); err != nil {
					t.Fatal(err)
				}
			}
		})
		chunk := uint64(scanChunk + scanSlack)
		if got := allocBytes(pass(pipeline{})) - reads; got > chunk {
			t.Errorf("an inline stream of %d chunks allocated %d bytes, more than one chunk", chunks, got)
		}
		if got := allocBytes(pass(pipeline{env: fx.env, width: width})) - reads; got > (width+2)*chunk {
			t.Errorf("a staged stream of %d chunks allocated %d bytes, more than %d chunks", chunks, got, width+2)
		}
	})
}

// TestEngineWriteProcsLastWhileJobsRun: the engine's write procs stay one set
// for a whole compaction — its writers come and go, the job keeps the set —
// and are let go when the job ends; a writer on an engine pipeline outside
// any job lets them go itself when it stops, so nothing is left parked.
func TestEngineWriteProcsLastWhileJobsRun(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		ingestN(t, p, fx, "ks", 20000, func(i int) float32 { return float32(i) })
		if err := fx.eng.Compact(p, "ks"); err != nil {
			t.Fatal(err)
		}
		sets := map[*sim.ResidentProcs[landing]]bool{}
		for fx.eng.bgJobs > 0 {
			if rp := fx.eng.writes.rp; rp != nil {
				sets[rp] = true
			}
			p.Sleep(sim.Duration(5 * time.Microsecond))
		}
		if err := fx.eng.WaitCompacted(p, "ks"); err != nil {
			t.Fatal(err)
		}
		if len(sets) != 1 {
			t.Errorf("the compaction's writers landed on %d sets of write procs, want 1", len(sets))
		}
		if fx.eng.writes.rp != nil || fx.eng.writes.users != 0 {
			t.Fatalf("after the last job: procs let go %v, %d users", fx.eng.writes.rp == nil, fx.eng.writes.users)
		}
		ks, err := fx.eng.Keyspace("ks")
		if err != nil {
			t.Fatal(err)
		}
		var w chunkWriter
		w.open(fx.eng.zm.NewCluster(ZoneTemp), fx.eng.pipeline(ks), nil)
		for i := 0; i < 8; i++ {
			if err := w.write(p, make([]byte, writeChunk)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.finish(p); err != nil {
			t.Fatal(err)
		}
		if fx.eng.writes.rp != nil || fx.eng.writes.users != 0 {
			t.Fatalf("after a writer outside any job: procs let go %v, %d users", fx.eng.writes.rp == nil, fx.eng.writes.users)
		}
	})
}
