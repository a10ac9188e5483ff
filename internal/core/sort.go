package core

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"kvcsd/internal/compaction"
	"kvcsd/internal/host"
	"kvcsd/internal/sim"
)

// ErrRecordCorrupt reports an undecodable record in a cluster stream.
var ErrRecordCorrupt = errors.New("core: corrupt record stream")

// Codec serializes records of type T into cluster byte streams.
type Codec[T any] interface {
	// Encode appends the record to dst and returns the extended slice.
	Encode(dst []byte, rec T) []byte
	// Decode parses one record from data. It returns the record and the
	// bytes consumed, or n == 0 when data holds an incomplete record (only
	// possible when atEOF is false).
	Decode(data []byte, atEOF bool) (rec T, n int, err error)
	// SizeHint estimates the in-memory bytes of one record (DRAM budget). It
	// is never less than the record's encoded size.
	SizeHint(rec T) int
}

// recordSource streams records of type T; implemented by cluster scanners
// and by in-flight generators (the value-sorting pass).
//
// A record from next views bytes the source owns and is valid until the
// source's next call to next: a scanner refills its window in place, a frame
// source reads the next frame into the same buffer. A consumer that needs a
// record longer copies it once, into a buffer it owns — run formation into its
// batch arena, the compaction passes into the encoding they write — and the
// k-way merge, which holds one record per source and asks a source for its
// next record only after emitting the current one, copies nothing. With
// poisonReleased set, every source that owns its buffer overwrites the bytes
// of the record it handed out last at the next call, so a view kept too long
// reads poisonByte instead of a plausible record.
type recordSource[T any] interface {
	next(p *sim.Proc) (rec T, ok bool, err error)
}

// poisonByte overwrites the bytes of records a source has taken back.
const poisonByte = 0xDB

// poisonReleased turns poisoning on. It is set in every race-detector build.
var poisonReleased = raceEnabled

// poison overwrites b with poisonByte when poisonReleased is set.
func poison(b []byte) {
	if poisonReleased {
		for i := range b {
			b[i] = poisonByte
		}
	}
}

// scanner streams records of type T from the next left bytes of pf, or,
// when pf is nil, from the whole cluster c read inline.
type scanner[T any] struct {
	c     *Cluster
	codec Codec[T]
	buf   []byte
	pos   int // parse position within buf
	last  int // start of the record handed out last, within buf
	pf    *prefetcher
	left  int64
}

// scanChunk is the size of a prefetcher's reads: a cluster is read as ReadAt
// calls of scanChunk bytes in order, the last one short.
const scanChunk = 256 << 10

// scanSlack is the room a scanner's window keeps past one chunk for the
// partial record a refill carries over, so refills reuse the window in place.
const scanSlack = 4 << 10

// next returns the next record, or ok=false at end of stream. The record
// views the scanner's window (see recordSource).
func (s *scanner[T]) next(p *sim.Proc) (rec T, ok bool, err error) {
	poison(s.buf[s.last:s.pos])
	if s.pf == nil {
		s.pf, s.left = pipeline{}.prefetch(whole(s.c)), s.c.Len()
	}
	for {
		atEOF := s.left == 0
		if s.pos < len(s.buf) {
			r, n, derr := s.codec.Decode(s.buf[s.pos:], atEOF)
			if derr != nil {
				return rec, false, derr
			}
			if n > 0 {
				s.last = s.pos
				s.pos += n
				return r, true, nil
			}
			if atEOF {
				return rec, false, fmt.Errorf("%w: trailing %d bytes", ErrRecordCorrupt, len(s.buf)-s.pos)
			}
		} else if atEOF {
			return rec, false, nil
		}
		// Refill: keep the unparsed remainder, copy the next chunk behind it.
		rem := len(s.buf) - s.pos
		copy(s.buf, s.buf[s.pos:])
		s.buf, s.pos, s.last = s.buf[:rem], 0, 0
		data, err := s.pf.next(p)
		if err != nil {
			return rec, false, err
		}
		s.left -= int64(len(data))
		if need := rem + len(data); cap(s.buf) < need {
			s.buf = append(make([]byte, 0, need+scanSlack), s.buf...)
		}
		s.buf = append(s.buf, data...)
	}
}

// memSource streams records straight out of SoC DRAM — a host-merged run,
// which arrives over PCIe and feeds the final merge without ever touching the
// media, or a held bucket. Its records view a buffer it does not own, so it
// never poisons them.
type memSource[T any] struct {
	codec Codec[T]
	buf   []byte
	pos   int
}

func (m *memSource[T]) next(p *sim.Proc) (rec T, ok bool, err error) {
	if m.pos >= len(m.buf) {
		return rec, false, nil
	}
	r, n, derr := m.codec.Decode(m.buf[m.pos:], true)
	if derr != nil {
		return rec, false, derr
	}
	if n == 0 {
		return rec, false, fmt.Errorf("%w: trailing %d bytes", ErrRecordCorrupt, len(m.buf)-m.pos)
	}
	m.pos += n
	return r, true, nil
}

// Sorter performs a bounded-DRAM external merge sort of record streams —
// the mechanism behind KV-CSD's deferred compaction ("multiple rounds of
// merge sorts, depending on available SoC DRAM space", paper §V). A sort
// that fits one batch of SoC DRAM takes zero rounds and never touches the
// media (see Stream).
type Sorter[T any] struct {
	zm    *ZoneManager
	cfg   Config
	codec Codec[T]
	key   func(T) []byte
	cmp   func(a, b T) int
	// radix, when set, orders run-formation batches by a stable LSD radix
	// sort on this key instead of msdSort. It must order records as
	// bytes.Compare orders their keys, and the source must deliver records
	// with equal radix keys in cmp order, so that the stable sort leaves the
	// batch in cmp order without comparing a tie.
	radix func(T) uint64

	// batch, arena and out are this sorter's working buffers: the record
	// batch with its merge scratch, the bytes of the batch's records, and the
	// writer every run and merge output goes through. They belong to the
	// sort job and die with it.
	batch sortBuf[T]
	arena batchArena
	out   chunkWriter
	// batchBytes is the batch's size against SortBudgetBytes: the SizeHint
	// of its records. dram, when set, counts it while the batch holds it
	// (the engine's SoC DRAM gauge).
	batchBytes int
	dram       *sim.Gauge
	// formed holds the runs the records added so far were cut into, until
	// reduce takes them; a sort that fails before then releases them.
	formed []*Cluster

	// runs and merges record what the last sort did: runs formed and k-way
	// merges made (zero and zero for a sort that fit one batch).
	runs, merges int
	// runCPU and mergeCPU are where run formation and merges charge the SoC:
	// the engine's run-formation phase of the record type and its merge phase
	// (newEngineSorter); NewSorter points both at the SoC's empty account.
	runCPU, mergeCPU host.Meter
	// shares is a batch sort's charge per core (sortBatch), one for each SoC
	// core but one — at least one — so a batch sort leaves a core free.
	// splitMerges spreads each merge slice's charge over them too (merge).
	shares      []int64
	splitMerges bool
	// written counts bytes this sorter appended to its scratch clusters, runs
	// and merges (compaction progress accounting).
	written uint64
	// fed counts the encoded bytes of the records added.
	fed int64
	// hostRuns and deviceRuns record how the last sort's final merge split its
	// reduced runs between the host assist loop and the device: zero and all
	// of them when the device merged alone, zero and zero when there was one
	// run to stream.
	hostRuns, deviceRuns int

	// pipe stages the sort: with it on, every run is read ahead by a
	// prefetch proc and every output lands through a zone-write stage proc.
	pipe pipeline

	// Host-assist hooks (collaborative compaction). planSplit decides how
	// many of the reduced runs ship to the host (the engine's planner: none
	// unless a host loop is attached); submitAssist enqueues them and
	// collectAssist waits for the merged run. A collect error falls back to
	// device-side merging. All three must be set for splitting to happen.
	planSplit     func(nRuns int) int
	submitAssist  func(p *sim.Proc, runs []*Cluster) (*compaction.Job, error)
	collectAssist func(p *sim.Proc, job *compaction.Job) ([]byte, error)
}

// NewSorter builds a sorter using the engine's zone manager for scratch
// space and the SoC host for CPU accounting. key returns a record's sort-key
// bytes and cmp is a three-way comparison (negative, zero, positive) that
// orders by bytes.Compare of key first and then by the record type's tie
// rule; records it calls equal keep their input order.
func NewSorter[T any](zm *ZoneManager, soc *host.Host, cfg Config, codec Codec[T], key func(T) []byte, cmp func(a, b T) int) *Sorter[T] {
	cpu := soc.Account("")
	return &Sorter[T]{zm: zm, runCPU: cpu, mergeCPU: cpu, shares: make([]int64, max(1, soc.Config().Cores-1)),
		cfg: cfg, codec: codec, key: key, cmp: cmp}
}

// newEngineSorter is NewSorter for the engine's own jobs: run formation
// charges the run phase, merges charge phaseMerge, and the batch counts in
// the engine's DRAM gauge.
func newEngineSorter[T any](e *Engine, run socPhase, codec Codec[T], key func(T) []byte, cmp func(a, b T) int) *Sorter[T] {
	s := NewSorter(e.zm, e.soc, e.cfg, codec, key, cmp)
	s.runCPU, s.mergeCPU = e.cpu[run], e.cpu[phaseMerge]
	s.dram = e.dram
	return s
}

// Stream sorts the records added so far and then those of src (nil: none)
// and hands them to emit in order, each valid until emit returns. Records
// that end before the first batch fills SortBudgetBytes are ordered in SoC
// DRAM, charged as run formation, and emitted straight from it: no scratch
// cluster, no media. More are cut into runs and merged down to MergeFanin;
// the final merge, split with the host when the assist hooks are set and the
// planner ships some runs but not all, streams into emit, and its runs are
// released once it ends.
func (s *Sorter[T]) Stream(p *sim.Proc, src recordSource[T], emit func(p *sim.Proc, rec T) error) error {
	defer s.drop(p)
	if err := s.feed(p, src); err != nil {
		return err
	}
	if len(s.formed) == 0 {
		return s.emitBatch(p, emit)
	}
	runs, err := s.reduce(p)
	if err != nil {
		return err
	}
	var mem [][]byte
	s.hostRuns, s.deviceRuns = 0, 0
	if len(runs) > 1 {
		s.deviceRuns = len(runs)
		if s.planSplit != nil && s.submitAssist != nil && s.collectAssist != nil {
			if h := s.planSplit(len(runs)); h > 0 && h < len(runs) {
				if runs, mem, err = s.sortSplit(p, runs, h); err != nil {
					return err
				}
			}
		}
	}
	s.merges++
	if err := s.merge(p, runs, mem, emit); err != nil {
		abandon(p, runs...)
		return err
	}
	return releaseAll(p, runs)
}

// sortSplit ships the first h runs to the host assist loop and pre-merges the
// rest on the device while the host works. It returns what the final merge
// reads: the device's run and the host's merged run in SoC DRAM, or — when
// the assist queue refused the job or the host went away — the runs the
// device merges itself. On error it has released every run.
func (s *Sorter[T]) sortSplit(p *sim.Proc, runs []*Cluster, h int) ([]*Cluster, [][]byte, error) {
	hostGroup, devGroup := runs[:h], runs[h:]
	// Ship the host group from a stage proc so its media reads overlap the
	// device group's merge instead of running as a serial prefix — under
	// foreground load those reads queue behind hot-data traffic, and the
	// device share has nothing else to wait on.
	var (
		job     *compaction.Job
		subErr  error
		subDone bool
		waiter  *sim.Proc
	)
	if env := s.pipe.env; env != nil && len(devGroup) > 1 {
		env.Go("assist-submit", func(sp *sim.Proc) {
			job, subErr = s.submitAssist(sp, hostGroup)
			subDone = true
			if waiter != nil {
				env.Wake(waiter)
			}
		})
	} else {
		job, subErr = s.submitAssist(p, hostGroup)
		subDone = true
	}
	// Device share merges while the host chews on its group: the submit is
	// non-blocking past its reads and the assist loop runs as its own procs.
	var err error
	if len(devGroup) > 1 {
		var devRun *Cluster
		if devRun, err = s.mergeRuns(p, devGroup); err == nil {
			devGroup = []*Cluster{devRun}
		}
	}
	for !subDone {
		waiter = p
		p.Block()
	}
	waiter = nil
	if err != nil {
		if subErr == nil {
			_, _ = s.collectAssist(p, job) // settle the job; nothing reads its run
		}
		abandon(p, runs...)
		return nil, nil, err
	}
	var hostRun []byte
	if subErr == nil {
		hostRun, subErr = s.collectAssist(p, job)
	}
	if subErr != nil {
		// The host group never shipped, or the host went away mid-merge
		// (halt, power cut): the device merges it, behind its own share.
		return slices.Concat(devGroup, hostGroup), nil, nil
	}
	s.hostRuns, s.deviceRuns = h, len(runs)-h
	if err := releaseAll(p, hostGroup); err != nil {
		abandon(p, devGroup...)
		return nil, nil, err
	}
	// The host's run is merged straight from SoC DRAM: it arrived over PCIe
	// and is never landed in a scratch cluster — that extra media pass is what
	// made naive pre-merge splits lose to a monolithic device merge.
	return devGroup, [][]byte{hostRun}, nil
}

// reduce writes the last batch as a run and merges the runs formed down to
// at most MergeFanin. On failure it releases every run it holds, merged or
// not.
func (s *Sorter[T]) reduce(p *sim.Proc) ([]*Cluster, error) {
	runs, err := s.makeRuns(p, nil)
	if err != nil {
		return nil, err
	}
	s.runs = len(runs)
	s.merges = 0
	for len(runs) > s.cfg.MergeFanin {
		var next []*Cluster
		for i := 0; i < len(runs); i += s.cfg.MergeFanin {
			merged, err := s.mergeRuns(p, runs[i:min(i+s.cfg.MergeFanin, len(runs))])
			if err != nil {
				abandon(p, next...)
				abandon(p, runs[i:]...)
				return nil, err
			}
			next = append(next, merged)
		}
		runs = next
	}
	return runs, nil
}

func releaseAll(p *sim.Proc, cs []*Cluster) error {
	for _, c := range cs {
		if err := c.Release(p); err != nil {
			return err
		}
	}
	return nil
}

// abandon releases the scratch clusters of a sort that failed. A release
// that fails too — the device lost power — leaves the rest to the restart
// sweep.
func abandon(p *sim.Proc, cs ...*Cluster) { _ = releaseAll(p, cs) }

// arenaChunk is the size of one batchArena chunk.
const arenaChunk = 256 << 10

// batchArena holds the bytes of one run-formation batch. Records are copied
// into fixed-size chunks that are never regrown — a record that does not fit
// the chunk being filled starts the next one — so a view into a chunk stays
// valid until reset, and reset keeps every chunk for the next batch: the
// arena grows to one batch's bytes once per sort and never copies itself.
type batchArena struct {
	chunks [][]byte
	cur    int // index of the chunk being filled
}

// room returns an empty slice with capacity for n bytes at the end of the
// chunk being filled, moving to the next chunk when this one is too full.
func (a *batchArena) room(n int) []byte {
	for ; a.cur < len(a.chunks); a.cur++ {
		if c := a.chunks[a.cur]; cap(c)-len(c) >= n {
			return c[len(c):]
		}
	}
	a.chunks = append(a.chunks, make([]byte, 0, max(arenaChunk, n)))
	return a.chunks[a.cur]
}

// commit records that the n bytes after the current chunk's end were used.
func (a *batchArena) commit(n int) {
	c := a.chunks[a.cur]
	a.chunks[a.cur] = c[:len(c)+n]
}

// reset empties every chunk for the next batch.
func (a *batchArena) reset() {
	for i := range a.chunks {
		a.chunks[i] = a.chunks[i][:0]
	}
	a.cur = 0
}

// add puts rec into the run-formation batch, which holds at most a DRAM
// budget's worth: a record that would take it past the budget first writes
// the batch out as a run, and a batch the record fills exactly is written out
// at once. The record is copied once, into the batch arena — encoded there
// and decoded back — because its source may reuse the bytes at its next call.
func (s *Sorter[T]) add(p *sim.Proc, rec T) error {
	hint := s.codec.SizeHint(rec)
	if s.batchBytes > 0 && s.batchBytes+hint > s.cfg.SortBudgetBytes {
		if err := s.flushRun(p); err != nil {
			return err
		}
	}
	enc := s.codec.Encode(s.arena.room(hint), rec)
	s.arena.commit(len(enc))
	rec, _, err := s.codec.Decode(enc, true)
	if err != nil {
		return err
	}
	s.fed += int64(len(enc))
	if n := len(s.batch.recs); n == cap(s.batch.recs) {
		// Double: append grows a large slice by a quarter at a time, which
		// copies a big batch several times over.
		s.batch.recs = slices.Grow(s.batch.recs, max(n, 256))
	}
	s.batch.recs = append(s.batch.recs, rec)
	s.hold(hint)
	if s.batchBytes >= s.cfg.SortBudgetBytes {
		return s.flushRun(p)
	}
	return nil
}

// hold grows the batch's size by n bytes, in the DRAM gauge too.
func (s *Sorter[T]) hold(n int) {
	s.batchBytes += n
	if s.dram != nil && n != 0 {
		s.dram.Add(float64(n))
	}
}

// feed adds every record of src (nil: none).
func (s *Sorter[T]) feed(p *sim.Proc, src recordSource[T]) error {
	for src != nil {
		rec, ok, err := src.next(p)
		if err != nil || !ok {
			return err
		}
		if err := s.add(p, rec); err != nil {
			return err
		}
	}
	return nil
}

// flushRun orders the batch by sortBatch, charged the shares it reports on as
// many cores, writes it to a new scratch run, and empties it for the next
// records. The batch, its scratch and the arena keep their capacity for every
// flush of the sort. The run lands while the next batch is fed and sorted;
// the next flush finishes it.
func (s *Sorter[T]) flushRun(p *sim.Proc) error {
	batch := s.batch.recs
	if len(batch) == 0 {
		return nil
	}
	s.runCPU.ComparesSplit(p, s.sortBatch())
	if err := s.out.finish(p); err != nil { // the run before this one
		return err
	}
	run := s.zm.NewCluster(ZoneTemp)
	s.formed = append(s.formed, run) // a failed write leaves it to drop
	s.out.open(run, s.pipe, &s.written)
	for _, rec := range batch {
		if err := putRecord(p, &s.out, s.codec, rec); err != nil {
			return err
		}
	}
	s.batch.recs = batch[:0]
	s.arena.reset()
	s.hold(-s.batchBytes)
	return nil
}

// emitBatch orders the batch as flushRun does, with the same charge, and
// hands its records to emit straight from SoC DRAM.
func (s *Sorter[T]) emitBatch(p *sim.Proc, emit func(p *sim.Proc, rec T) error) error {
	s.runCPU.ComparesSplit(p, s.sortBatch())
	for _, rec := range s.batch.recs {
		if err := emit(p, rec); err != nil {
			return err
		}
	}
	return nil
}

// makeRuns adds the records of src (nil: none), writes the last batch as a
// run and returns every run formed. The batch, its scratch and the arena are
// dropped on return so the merge passes that follow do not pin a DRAM
// budget's worth of records.
func (s *Sorter[T]) makeRuns(p *sim.Proc, src recordSource[T]) ([]*Cluster, error) {
	defer s.drop(p)
	if err := s.feed(p, src); err != nil {
		return nil, err
	}
	if err := cmp.Or(s.flushRun(p), s.out.finish(p)); err != nil {
		return nil, err
	}
	runs := s.formed
	s.formed = nil
	return runs, nil
}

// drop lets go of the batch and its arena, and releases the runs formed that
// no merge took: the sort that formed them failed.
func (s *Sorter[T]) drop(p *sim.Proc) {
	_ = s.out.stop(p) // the sort failed already, or every run has landed
	s.hold(-s.batchBytes)
	abandon(p, s.formed...)
	s.batch, s.arena, s.formed = sortBuf[T]{}, batchArena{}, nil
}

// sortBatch orders the batch and returns the compares it is charged as, in
// per-core shares: msdSort's, or with a radix key one per record per digit
// pass, each pass cut into contiguous slices as msdSort cuts its passes. In
// race-detector builds a radix-sorted batch is checked, uncharged, to be in
// cmp order: with a stable sort that holds exactly when the source kept its
// side of the radix contract.
func (s *Sorter[T]) sortBatch() []int64 {
	clear(s.shares)
	if s.radix == nil {
		s.batch.msd(s.key, s.cmp, s.shares)
		return s.shares
	}
	passes := s.batch.radix(s.radix)
	if raceEnabled {
		recs := s.batch.recs
		for i := 1; i < len(recs); i++ {
			if s.cmp(recs[i-1], recs[i]) > 0 {
				panic(fmt.Sprintf("core: radix run formation out of order at %d of %d: the source broke ties out of cmp order", i, len(recs)))
			}
		}
	}
	for range passes {
		spread(s.shares, len(s.batch.recs))
	}
	return s.shares
}

// mergeRuns merges runs into a new sealed scratch cluster through the
// sorter's writer and releases runs — one k-way merge, counted.
func (s *Sorter[T]) mergeRuns(p *sim.Proc, runs []*Cluster) (*Cluster, error) {
	s.merges++
	out := s.zm.NewCluster(ZoneTemp)
	s.out.open(out, s.pipe, &s.written)
	err := s.merge(p, runs, nil, func(mp *sim.Proc, rec T) error {
		return putRecord(mp, &s.out, s.codec, rec)
	})
	if err == nil {
		err = s.out.finish(p)
	}
	if err != nil {
		s.out.stop(p)
		abandon(p, out)
		return nil, err
	}
	if err := releaseAll(p, runs); err != nil {
		return nil, err
	}
	return out, nil
}

// merge is the sorter's k-way merge: it streams the records of the
// cluster-backed runs, then of the in-memory runs in mem (host-merged results
// that arrive over PCIe and never touch the media), to emit in order. With
// the pipeline on, each run gets a read-stage prefetcher proc streaming
// chunks ahead of the merge through a bounded ring; all of them are joined
// before merge returns, on every path, so no proc outlives its compaction.
func (s *Sorter[T]) merge(p *sim.Proc, runs []*Cluster, mem [][]byte, emit func(p *sim.Proc, rec T) error) error {
	var pfs []*prefetcher
	defer func() {
		for _, pf := range pfs {
			pf.stop(p)
		}
	}()
	open := func(i int) recordSource[T] {
		if i >= len(runs) {
			return &memSource[T]{codec: s.codec, buf: mem[i-len(runs)]}
		}
		sc := &scanner[T]{codec: s.codec, pf: s.pipe.prefetch(whole(runs[i])), left: runs[i].Len()}
		pfs = append(pfs, sc.pf)
		return sc
	}
	shares := s.shares[:1]
	if s.splitMerges {
		shares = s.shares
	}
	return mergeSorted(p, len(runs)+len(mem), open, s.cmp, s.mergeCPU, shares, emit)
}

// mergeSorted is the k-way merge loop: it streams the records of k sorted
// sources to emit in ascending cmp order, records that compare equal leaving
// in source-index order (which is what keeps a multi-run sort stable). Source
// i is opened just before its first record is read — opening a pipelined run
// starts its read-ahead proc, and the model's event order depends on when.
// The sources meet in a loser tree: each record out replays one leaf-to-root
// path of at most ⌈log2 k⌉ matches, and the merge compute is charged to cpu
// at that many compares per record, in 4096-record slices, each spread evenly
// over len(shares) cores (host.Meter.ComparesSplit): together the shares cost
// what one core merging the slice would, and take one share's time.
func mergeSorted[T any](p *sim.Proc, k int, open func(i int) recordSource[T], cmp func(a, b T) int,
	cpu host.Meter, shares []int64, emit func(p *sim.Proc, rec T) error) error {
	if k == 0 {
		return nil
	}
	t := loserTree[T]{leaves: make([]mergeLeaf[T], k), tree: make([]int, k), cmp: cmp}
	for i := range t.leaves {
		lf := &t.leaves[i]
		lf.src = open(i)
		rec, ok, err := lf.src.next(p)
		if err != nil {
			return err
		}
		lf.rec, lf.done = rec, !ok
	}
	t.tree[0] = t.play(1)
	logK := bits.Len(uint(k - 1))
	pending := 0 // records merged since last CPU charge
	charge := func() {
		clear(shares)
		spread(shares, pending*logK)
		cpu.ComparesSplit(p, shares)
		pending = 0
	}
	for {
		w := t.tree[0]
		lf := &t.leaves[w]
		if lf.done {
			break
		}
		if err := emit(p, lf.rec); err != nil {
			return err
		}
		if pending++; pending >= 4096 {
			charge()
		}
		rec, ok, err := lf.src.next(p)
		if err != nil {
			return err
		}
		lf.rec, lf.done = rec, !ok
		t.replay(w)
	}
	if pending > 0 {
		charge()
	}
	return nil
}

// mergeLeaf is one source of a merge and its current record; done once the
// source has run dry.
type mergeLeaf[T any] struct {
	src  recordSource[T]
	rec  T
	done bool
}

// loserTree is a tournament over k merge sources in heap layout: source i is
// the leaf at node k+i, internal node n (1 ≤ n < k) holds the source that
// lost the match played there, and tree[0] holds the overall winner. Records
// are ordered by cmp, then by source index; a source that has run dry loses
// to every other. It is played by hand on typed leaves: container/heap would
// box every record and dispatch each comparison through an interface.
type loserTree[T any] struct {
	leaves []mergeLeaf[T]
	tree   []int
	cmp    func(a, b T) int
}

// less reports whether source a's current record goes out before source b's.
func (t *loserTree[T]) less(a, b int) bool {
	la, lb := &t.leaves[a], &t.leaves[b]
	if la.done != lb.done {
		return lb.done
	}
	if !la.done {
		if c := t.cmp(la.rec, lb.rec); c != 0 {
			return c < 0
		}
	}
	return a < b
}

// play fills in the matches of the subtree at node n and returns its winner.
func (t *loserTree[T]) play(n int) int {
	k := len(t.leaves)
	if n >= k {
		return n - k
	}
	w, l := t.play(2*n), t.play(2*n+1)
	if t.less(l, w) {
		w, l = l, w
	}
	t.tree[n] = l
	return w
}

// replay moves source s's new record up from its leaf, playing each match on
// the way against the loser stored there, and records the new winner.
func (t *loserTree[T]) replay(s int) {
	w := s
	for n := (s + len(t.leaves)) / 2; n >= 1; n /= 2 {
		if t.less(t.tree[n], w) {
			t.tree[n], w = w, t.tree[n]
		}
	}
	t.tree[0] = w
}

// pipeline configures the stage procs of a compaction or an index build.
// When it is on — env set and width over 1 — a prefetch proc reads ahead
// every cluster the job streams, and every writer of the job hands its
// appends to write procs (appender). Each stage meets the job at a ring
// bounded at width × writeChunk bytes, so media reads, SoC work and zone
// writes overlap across SoC cores. onDelta (optional) observes every chunk
// entering (+1, +bytes) and leaving (-1, -bytes) a ring. writes is the
// write procs the pipeline's writers share, required when it is on. The zero
// pipeline is off: the job reads and appends inline, in the same chunks.
type pipeline struct {
	env     *sim.Env
	width   int
	onDelta func(chunks, bytes int)
	writes  *writeProcs
}

func (pl pipeline) on() bool { return pl.env != nil && pl.width > 1 }

// prefetcher is the pipeline's read stage: it streams the bytes of a list
// of cluster spans in order, in chunks of scanChunk bytes, each span's last
// one short. With the pipeline on, a proc of its own reads the chunks ahead
// into a ring; otherwise next reads each one inline. A chunk from next is
// valid until the next call, which takes it back for a later read, so a
// stream cycles through at most width + 2 chunks.
type prefetcher struct {
	spans []span // still to read, from spans[0].from on
	left  int64  // bytes next has still to hand out
	ring  *compaction.Ring[[]byte]
	proc  *sim.Proc
	err   error
	free  [][]byte // chunks taken back, for the next reads
	last  []byte   // the chunk next handed out last
}

// span is the bytes [from, to) of cluster c.
type span struct {
	c        *Cluster
	from, to int64
}

// whole is the span of all of c.
func whole(c *Cluster) span { return span{c, 0, c.Len()} }

// prefetch starts streaming spans, the slice its own from then on.
func (pl pipeline) prefetch(spans ...span) *prefetcher {
	pf := &prefetcher{spans: spans[:0]}
	for _, sp := range spans {
		if sp.to > sp.from {
			pf.spans = append(pf.spans, sp)
			pf.left += sp.to - sp.from
		}
	}
	if pl.on() && pf.left > 0 {
		pf.ring = compaction.NewRing(pl.env, pl.width*writeChunk, func(b []byte) int { return len(b) }, pl.onDelta)
		pf.proc = pl.env.Go("compact:read", func(p *sim.Proc) {
			defer pf.ring.Close()
			for len(pf.spans) > 0 {
				buf, err := pf.read(p)
				if err != nil {
					pf.err = err
					return
				}
				if !pf.ring.Push(p, buf) {
					return // consumer stopped early
				}
			}
		})
	}
	return pf
}

// read reads the chunk at the read position and moves past it.
func (pf *prefetcher) read(p *sim.Proc) ([]byte, error) {
	sp := &pf.spans[0]
	n := min(scanChunk, int(sp.to-sp.from))
	var buf []byte
	if k := len(pf.free); k > 0 && cap(pf.free[k-1]) >= n {
		buf, pf.free = pf.free[k-1][:n], pf.free[:k-1]
	} else {
		buf = make([]byte, n)
	}
	if err := sp.c.ReadAt(p, buf, sp.from); err != nil {
		return nil, err
	}
	if sp.from += int64(len(buf)); sp.from == sp.to {
		pf.spans = pf.spans[1:]
	}
	return buf, nil
}

// next takes back the chunk it returned last and returns the next one.
func (pf *prefetcher) next(p *sim.Proc) (data []byte, err error) {
	if pf.last != nil {
		poison(pf.last)
		pf.free, pf.last = append(pf.free, pf.last), nil
	}
	ok := pf.left > 0
	if ok && pf.ring == nil {
		data, err = pf.read(p)
	} else if ok {
		data, ok = pf.ring.Pop(p)
	}
	if !ok {
		err = cmp.Or(pf.err, fmt.Errorf("%w: stream read past its end", ErrRecordCorrupt))
	}
	if err != nil {
		return nil, err
	}
	pf.left -= int64(len(data))
	if pf.last = data; pf.left == 0 {
		pf.free, pf.last = nil, nil // the stream is spent: let its chunks go
	}
	return data, nil
}

// stop shuts the read stage down on any exit path: close the ring (unblocks
// a producer mid-Push), join the stage proc, and drop unconsumed chunks so
// the gauges settle. It does nothing for a nil, inline or stopped
// prefetcher.
func (pf *prefetcher) stop(p *sim.Proc) {
	if pf == nil || pf.proc == nil {
		return
	}
	pf.ring.Close()
	p.Join(pf.proc)
	pf.ring.Discard()
	pf.proc = nil
}

// writeChunk is the size of a chunkWriter's appends.
const writeChunk = 256 << 10

// chunkSink is where a writer lands its output: a *Cluster.
type chunkSink interface {
	Append(p *sim.Proc, data []byte) error
	Seal(p *sim.Proc) error
}

// appender lands a writer's bursts: inline on the writer's proc, or, when pl
// is on, each on a write proc that waits behind the previous burst to the
// same output, so every output gets its bytes in order while bursts to
// different outputs land at once. The write procs are resident, shared by
// the pipeline's writers (writeProcs), so a burst starts no proc. The bursts
// handed off and not yet appended hold at most width × writeChunk bytes, and
// each counts in the pipeline (onDelta) from hand-off until its Append
// begins. This is the one place that choice is made; every writer of a
// compaction or an index build appends through one.
type appender struct {
	pl     pipeline
	procs  *writeProcs // the set its bursts land on, from the first to stop
	held   int         // bytes of the bursts handed off and not yet appended
	live   []*landing  // those bursts, in hand-off order
	waiter *sim.Proc   // the writer, while it waits for room
	err    error       // the first failed Append's
	free   [][]byte    // bursts appended, for the writer to refill
}

// writeProcs holds resident write procs (sim.ResidentProcs): each lands one
// burst at a time and parks for the next, so bursts cost no proc of their
// own. The set starts on the first dispatch and is let go when its last
// user leaves. A writer is a user from its first burst to its stop; an
// engine job is one for its whole run (Engine.spawnJob), so the procs serve
// every writer of every job in turn while the engine has work, and none
// outlives it.
type writeProcs struct {
	rp    *sim.ResidentProcs[landing]
	seq   uint64 // bursts dispatched, numbering their landings
	users int
}

// join counts a user in.
func (w *writeProcs) join() { w.users++ }

// leave counts a user out and lets the procs go when it was the last: the
// parked ones now, a busy one when its burst has landed.
func (w *writeProcs) leave() {
	if w.users--; w.users == 0 && w.rp != nil {
		w.rp.Release()
		w.rp = nil
	}
}

// dispatch schedules a write proc for a burst and returns its landing,
// numbered and with done unfired, to fill before the caller next yields.
func (w *writeProcs) dispatch(env *sim.Env) *landing {
	if w.rp == nil {
		w.rp = sim.NewResidentProcs(env, "compact:write", land)
	}
	w.seq++
	l := w.rp.Dispatch()
	*l = landing{seq: w.seq}
	l.done.Init(env)
	return l
}

// landing is the burst a write proc has in hand: buf, owed to out once prev —
// the burst before it to out, numbered prevSeq — has landed. done fires when
// it has landed itself. A parked proc's landing is reused for its next burst,
// which may be another writer's, so a burst that finds prev numbered
// otherwise knows that one landed already.
type landing struct {
	a       *appender
	out     chunkSink
	buf     []byte
	seq     uint64
	prev    *landing
	prevSeq uint64
	done    sim.Event
}

// put appends buf to out, or hands it to a write proc, and returns an empty
// buffer of buf's capacity to fill next: buf itself once an inline Append
// copied it, else one a write proc is done with when there is one, so a
// writer cycles through the stage's worth of buffers and one more.
func (a *appender) put(p *sim.Proc, out chunkSink, buf []byte) ([]byte, error) {
	if !a.pl.on() {
		return buf[:0], out.Append(p, buf)
	}
	for a.err == nil && a.held > 0 && a.held+len(buf) > a.pl.width*writeChunk {
		a.waiter = p
		p.Block()
	}
	if a.err != nil {
		return buf[:0], a.err
	}
	if a.procs == nil {
		a.procs = a.pl.writes
		a.procs.join()
	}
	l := a.procs.dispatch(a.pl.env)
	l.a, l.out, l.buf = a, out, buf
	for i := len(a.live) - 1; i >= 0; i-- {
		if prev := a.live[i]; prev.out == out {
			l.prev, l.prevSeq = prev, prev.seq
			break
		}
	}
	a.held += len(buf)
	if a.pl.onDelta != nil {
		a.pl.onDelta(1, len(buf))
	}
	a.live = append(a.live, l)
	if n := len(a.free); n > 0 {
		buf, a.free = a.free[n-1], a.free[:n-1]
		return buf, nil
	}
	return make([]byte, 0, cap(buf)), nil
}

// land is a write proc's body: it appends l's burst once the burst before it
// to the same output has landed. The proc owns l.buf until the Append
// returns.
func land(p *sim.Proc, l *landing) {
	a := l.a
	if prev := l.prev; prev != nil && prev.seq == l.prevSeq {
		p.Wait(&prev.done)
	}
	if a.pl.onDelta != nil {
		a.pl.onDelta(-1, -len(l.buf))
	}
	if a.err == nil { // after a failed append, the rest drain
		a.err = l.out.Append(p, l.buf)
	}
	a.held -= len(l.buf)
	a.live = slices.DeleteFunc(a.live, func(b *landing) bool { return b == l })
	a.free = append(a.free, l.buf[:0]) // Append copied it
	if w := a.waiter; w != nil {
		a.waiter = nil
		a.pl.env.Wake(w)
	}
	l.buf, l.prev = nil, nil
	l.done.Signal()
}

// stop waits for every burst to land, leaves the write procs — letting them
// go if it was their last user — and reports the first append error. It does
// nothing without a burst handed off, so error paths may always call it.
func (a *appender) stop(p *sim.Proc) error {
	for len(a.live) > 0 {
		p.Wait(&a.live[0].done)
	}
	if a.procs != nil {
		a.procs.leave()
		a.procs = nil
	}
	err := a.err
	a.err, a.free = nil, nil
	return err
}

// chunkWriter carries the compaction passes that write a cluster as one
// stream — run formation, the merges before the final one, the value pass
// into SORTED_VALUES — in appends of writeChunk bytes.
// Append sizes decide media bursts and zone order, so it keeps two flush
// rules:
//
//   - records (putRecord, put) are added whole, and the buffer is appended
//     once it holds writeChunk bytes or more, so a record never splits;
//   - raw bytes (write) are cut at exactly writeChunk.
//
// A writer is reopened for each output and keeps its buffers across them.
type chunkWriter struct {
	out   chunkSink
	buf   []byte // the chunk being filled
	app   appender
	moved *uint64 // when set, advanced by the bytes of every append
}

// open points the writer at out, staging its appends when pl is on, and
// counts the bytes of each append into moved when it is set.
func (w *chunkWriter) open(out chunkSink, pl pipeline, moved *uint64) {
	if cap(w.buf) < writeChunk {
		w.buf = make([]byte, 0, writeChunk+scanSlack)
	}
	w.out, w.buf, w.moved, w.app.pl = out, w.buf[:0], moved, pl
}

// putRecord encodes rec onto the writer: the first flush rule.
func putRecord[T any](p *sim.Proc, w *chunkWriter, codec Codec[T], rec T) error {
	w.buf = codec.Encode(w.buf, rec)
	return w.spill(p)
}

// put adds rec's bytes as one record: the first flush rule.
func (w *chunkWriter) put(p *sim.Proc, rec []byte) error {
	w.buf = append(w.buf, rec...)
	return w.spill(p)
}

// spill appends the buffer once it holds writeChunk bytes or more.
func (w *chunkWriter) spill(p *sim.Proc) error {
	if len(w.buf) < writeChunk {
		return nil
	}
	return w.flush(p)
}

// write adds raw bytes, appending every time the buffer reaches exactly
// writeChunk: the second flush rule.
func (w *chunkWriter) write(p *sim.Proc, b []byte) error {
	for len(b) > 0 {
		k := min(len(b), writeChunk-len(w.buf))
		w.buf, b = append(w.buf, b[:k]...), b[k:]
		if len(w.buf) == writeChunk {
			if err := w.flush(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// flush appends the buffer and takes an empty one back.
func (w *chunkWriter) flush(p *sim.Proc) (err error) {
	if w.moved != nil {
		*w.moved += uint64(len(w.buf))
	}
	w.buf, err = w.app.put(p, w.out, w.buf)
	return err
}

// finish appends what is buffered, stops the write stage and seals the
// output, which the writer then lets go of; without an output it does
// nothing.
func (w *chunkWriter) finish(p *sim.Proc) error {
	if w.out == nil {
		return nil
	}
	var err error
	if len(w.buf) > 0 {
		err = w.flush(p)
	}
	if err = cmp.Or(err, w.stop(p)); err == nil {
		err = w.out.Seal(p)
	}
	w.out = nil
	return err
}

// stop drains the write stage, joins its proc and reports its append error;
// error paths may always call it.
func (w *chunkWriter) stop(p *sim.Proc) error { return w.app.stop(p) }
