package core

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"kvcsd/internal/obs"
	"kvcsd/internal/sim"
)

// mediaOps counts the media commands of kind ("read" or "write") that fn
// issues from p: one per ReadZoneSpans or WriteZoneSpans burst, however many
// zones it spans.
func mediaOps(p *sim.Proc, zm *ZoneManager, kind string, fn func()) int {
	tr := obs.NewTracer(p.Env())
	zm.dev.SetObs(tr, nil)
	defer zm.dev.SetObs(nil, nil)
	root := tr.StartRoot(p, "count", "")
	tr.Push(p, root)
	fn()
	tr.Pop(p)
	root.End()
	n := 0
	for _, s := range tr.Finished() {
		if s.Name() == "media:"+kind {
			n++
		}
	}
	return n
}

// pidxTestEntry is entry i of the PIDX clusters these tests write.
func pidxTestEntry(i int) pidxEntry {
	return pidxEntry{key: tkey(i), vlen: uint32(i % 50), vlogOff: uint64(i) * 64}
}

// pidxWalkEntries is enough entries for 150 PIDX blocks of 4 KiB (26-byte
// entries, 157 to a block): two full windows and a short third.
const pidxWalkEntries = 150*157 - 20

// newPidxCluster packs n entries into a sealed PIDX cluster.
func newPidxCluster(tb testing.TB, p *sim.Proc, fx *sortFixture, n int) *Cluster {
	tb.Helper()
	c := fx.zm.NewCluster(ZonePIDX)
	w := newBlockWriter(c, fx.cfg.BlockBytes)
	var enc []byte
	for i := 0; i < n; i++ {
		e := pidxTestEntry(i)
		enc = klogCodec{}.Encode(enc[:0], e)
		if err := w.add(p, enc, e.key); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.finish(p); err != nil {
		tb.Fatal(err)
	}
	return c
}

// walk drains cur, checking every entry against pidxTestEntry, and returns
// how many it yielded and the error that stopped it.
func walk(t *testing.T, p *sim.Proc, cur *pidxCursor) (int, error) {
	t.Helper()
	n := 0
	for {
		ent, ok, err := cur.next(p)
		if err != nil || !ok {
			return n, err
		}
		if want := pidxTestEntry(n); !bytes.Equal(ent.key, want.key) || ent.vlen != want.vlen || ent.vlogOff != want.vlogOff {
			t.Fatalf("entry %d: got %q/%d/%d, want %q/%d/%d", n, ent.key, ent.vlen, ent.vlogOff, want.key, want.vlen, want.vlogOff)
		}
		n++
	}
}

// TestPidxCursorWindows: the windowed walk yields exactly the entries a walk
// reading and parsing one block at a time does, with one media read per
// window of 64 blocks.
func TestPidxCursorWindows(t *testing.T) {
	fx := newSortFixture(0)
	fx.run(t, func(p *sim.Proc) {
		c := newPidxCluster(t, p, fx, pidxWalkEntries)
		bs := fx.cfg.BlockBytes
		blocks := int(c.Len()) / bs
		if blocks != 150 {
			t.Fatalf("%d blocks, want 150", blocks)
		}
		var perBlock []pidxEntry
		perBlockReads := mediaOps(p, fx.zm, "read", func() {
			for b := 0; b < blocks; b++ {
				buf := make([]byte, bs)
				if err := c.ReadAt(p, buf, int64(b*bs)); err != nil {
					t.Fatal(err)
				}
				v, err := parseIndexBlock(nil, buf, true, pidxFormat)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < v.len(); i++ {
					e := pidxBlock{v}.entry(i)
					perBlock = append(perBlock, pidxEntry{key: bytes.Clone(e.key), vlen: e.vlen, vlogOff: e.vlogOff})
				}
			}
		})
		var n int
		var err error
		windowReads := mediaOps(p, fx.zm, "read", func() {
			n, err = walk(t, p, &pidxCursor{win: clusterWindow{c: c}, cfg: fx.cfg})
		})
		if err != nil || n != len(perBlock) || n != pidxWalkEntries {
			t.Fatalf("windowed walk: %d entries, err %v; per-block walk %d", n, err, len(perBlock))
		}
		for i, e := range perBlock {
			if want := pidxTestEntry(i); !bytes.Equal(e.key, want.key) || e.vlogOff != want.vlogOff {
				t.Fatalf("per-block walk entry %d: %q", i, e.key)
			}
		}
		if want := (blocks + 63) / 64; windowReads != want || perBlockReads != blocks {
			t.Fatalf("media reads: windowed %d (want %d), per block %d (want %d)", windowReads, want, perBlockReads, blocks)
		}
	})
}

// TestPidxCursorCorruptMidWindow: a block in the middle of a window fails the
// walk with ErrCorrupted. Rotted media fails the window's read, before any of
// its entries; a block written with a wrong header checksum fails when the
// walk reaches it, after the blocks before it. DisableVerify skips the header
// check.
func TestPidxCursorCorruptMidWindow(t *testing.T) {
	const bad = 96 // the middle of the second window
	for _, tc := range []struct {
		name   string
		rot    bool
		verify bool
		before int // entries the walk yields before the error
	}{
		{"rotted granule", true, true, 64 * 157},
		{"block checksum", false, true, bad * 157},
		{"block checksum unverified", false, false, pidxWalkEntries},
	} {
		fx := newSortFixture(0)
		fx.run(t, func(p *sim.Proc) {
			bs := fx.cfg.BlockBytes
			c := newPidxCluster(t, p, fx, pidxWalkEntries)
			if tc.rot {
				zone, off := c.locate(bad)
				if _, err := fx.zm.dev.CorruptBlock(zone, off+100, 8, 3); err != nil {
					t.Fatal(err)
				}
			} else {
				// The same blocks with one payload byte of block bad
				// flipped, appended as they are: the granule checksums
				// cover the flipped byte, the block header does not.
				raw := make([]byte, c.Len())
				if err := c.ReadAt(p, raw, 0); err != nil {
					t.Fatal(err)
				}
				raw[bad*bs+bs-1] ^= 0x40 // zero padding: the entries still parse
				c = fx.zm.NewCluster(ZonePIDX)
				if err := c.Append(p, raw); err != nil {
					t.Fatal(err)
				}
				if err := c.Seal(p); err != nil {
					t.Fatal(err)
				}
			}
			cfg := fx.cfg
			cfg.DisableVerify = !tc.verify
			n, err := walk(t, p, &pidxCursor{win: clusterWindow{c: c}, cfg: cfg})
			if n != tc.before || errors.Is(err, ErrCorrupted) != tc.verify || (err != nil) != tc.verify {
				t.Fatalf("%s: %d entries, err %v; want %d entries, then ErrCorrupted: %v", tc.name, n, err, tc.before, tc.verify)
			}
		})
	}
}

// TestPidxCursorAllocs: a walk through a reused cursor allocates nothing
// beyond what the ReadAt of each window does — no block buffer and no record
// offsets per block. A separate index build's scan walks PIDX with this
// cursor.
func TestPidxCursorAllocs(t *testing.T) {
	fx := newSortFixture(0)
	fx.run(t, func(p *sim.Proc) {
		c := newPidxCluster(t, p, fx, pidxWalkEntries)
		bs := fx.cfg.BlockBytes
		var cur pidxCursor
		walkAll := func() {
			cur = pidxCursor{win: clusterWindow{c: c, win: cur.win.win[:0]}, cfg: fx.cfg, blk: pidxBlock{blockView{offs: cur.blk.offs[:0]}}}
			n := 0
			for {
				_, ok, err := cur.next(p)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				n++
			}
			if n != pidxWalkEntries {
				t.Fatalf("%d entries, want %d", n, pidxWalkEntries)
			}
		}
		walkAll() // warm-up: sizes the window and the offsets
		win := make([]byte, scanChunk)
		readWindows := func() {
			for off := int64(0); off < c.Len(); off += int64(len(win)) {
				if err := c.ReadAt(p, win[:min(int64(len(win)), c.Len()-off)], off); err != nil {
					t.Fatal(err)
				}
			}
		}
		read := testing.AllocsPerRun(10, readWindows)
		walked := testing.AllocsPerRun(10, walkAll)
		if walked > read {
			t.Fatalf("a walk of %d blocks allocated %v times, reading its windows %v", c.Len()/int64(bs), walked, read)
		}
	})
}

// TestBlockWriterBursts: staged blocks land as the same bytes, sketch and
// zones as one Append per block — with another cluster taking zones from the
// pool between the blocks — in ⌈blocks/16⌉ media writes instead of one per
// block.
func TestBlockWriterBursts(t *testing.T) {
	type result struct {
		raw         []byte
		sketch      []sketchEntry
		zones, temp []int
		writes      int
	}
	write := func(staged bool) (r result) {
		fx := newClusterFixture(DefaultConfig()) // 64 KiB zones: a stripe holds 64 blocks
		fx.run(t, func(p *sim.Proc) {
			pidx, temp := fx.zm.NewCluster(ZonePIDX), fx.zm.NewCluster(ZoneTemp)
			w := newBlockWriter(pidx, 4096)
			if !staged {
				w.buf = make([]byte, 0, 4096) // a stage of one block: an Append per block
			}
			chunk := make([]byte, 64<<10) // the other cluster takes a stripe every 4 chunks
			var enc []byte
			r.writes = mediaOps(p, fx.zm, "write", func() {
				for i := 0; i < 300*157; i++ {
					e := pidxTestEntry(i)
					enc = klogCodec{}.Encode(enc[:0], e)
					if err := w.add(p, enc, e.key); err != nil {
						t.Fatal(err)
					}
					if i%1000 == 0 {
						// Counted with the index writes; both runs issue
						// the same ones.
						if err := temp.Append(p, chunk); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := w.finish(p); err != nil {
					t.Fatal(err)
				}
			})
			r.raw = make([]byte, pidx.Len())
			if err := pidx.ReadAt(p, r.raw, 0); err != nil {
				t.Fatal(err)
			}
			r.sketch, r.zones, r.temp = w.sketch, pidx.Zones(), temp.Zones()
		})
		return r
	}
	staged, unbatched := write(true), write(false)
	blocks := len(unbatched.raw) / 4096
	if blocks != 300 || !bytes.Equal(staged.raw, unbatched.raw) {
		t.Fatalf("staged %d bytes, unbatched %d (%d blocks): the bytes differ", len(staged.raw), len(unbatched.raw), blocks)
	}
	if len(staged.sketch) != blocks || len(unbatched.sketch) != blocks {
		t.Fatalf("sketch: staged %d pivots, unbatched %d", len(staged.sketch), len(unbatched.sketch))
	}
	for i := range staged.sketch {
		if !bytes.Equal(staged.sketch[i].pivot, unbatched.sketch[i].pivot) || staged.sketch[i].block != unbatched.sketch[i].block {
			t.Fatalf("sketch entry %d differs", i)
		}
	}
	if !slices.Equal(staged.zones, unbatched.zones) || !slices.Equal(staged.temp, unbatched.temp) {
		t.Fatalf("zone order moved: index %v vs %v, other cluster %v vs %v", staged.zones, unbatched.zones, staged.temp, unbatched.temp)
	}
	other := unbatched.writes - blocks
	if got, want := staged.writes-other, (blocks+15)/16; got != want {
		t.Fatalf("%d index-block writes, want %d (unbatched %d)", got, want, blocks)
	}
}
