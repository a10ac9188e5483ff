package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// refDecodeBlock is the decoder the block view replaced, kept as the
// reference the view is fuzzed against: it materialises every record through
// the record codec, copying each key. One deliberate difference: the old loop
// accepted a count that ran past the end of the buffer (the codec reports "no
// bytes" as n == 0 without an error) and returned phantom zero records; the
// reference rejects that as the corruption it is, and so must the view.
func refDecodeBlock[T any](buf []byte, verify bool, codec Codec[T]) ([]T, error) {
	if err := checkIndexBlock(buf, verify); err != nil {
		return nil, err
	}
	count := int(binary.LittleEndian.Uint16(buf))
	out := make([]T, 0, count)
	pos := indexBlockHdr
	for i := 0; i < count; i++ {
		rec, n, err := codec.Decode(buf[pos:], true)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, ErrRecordCorrupt
		}
		pos += n
		out = append(out, rec)
	}
	return out, nil
}

// packIndexBlock frames encoded records the way blockWriter.flush does.
func packIndexBlock(size int, recs ...[]byte) []byte {
	buf := make([]byte, size)
	pos := indexBlockHdr
	for _, r := range recs {
		pos += copy(buf[pos:], r)
	}
	binary.LittleEndian.PutUint16(buf, uint16(len(recs)))
	binary.LittleEndian.PutUint32(buf[2:], indexBlockSum(buf))
	return buf
}

func testPidxBlock(n int) []byte {
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = klogCodec{}.Encode(nil, klogEntry{
			key: []byte(fmt.Sprintf("key-%06d", i)), vlen: uint32(100 + i), vlogOff: uint64(i) * 128,
		})
	}
	return packIndexBlock(4096, recs...)
}

func testSidxBlock(n int) []byte {
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = sidxCodec{}.Encode(nil, sidxEntry{
			skey: []byte(fmt.Sprintf("e%04d", i/3)), pkey: []byte(fmt.Sprintf("key-%06d", i)),
			vlen: uint32(64 + i), svOff: uint64(i) * 64,
		})
	}
	return packIndexBlock(4096, recs...)
}

// FuzzIndexBlockView: for any buffer, under either record format and with the
// header checksum demanded or not, the view yields exactly the records the
// reference decoder does, or both reject.
func FuzzIndexBlockView(f *testing.F) {
	pidx, sidx := testPidxBlock(136), testSidxBlock(90)
	f.Add(pidx)
	f.Add(sidx)
	f.Add(packIndexBlock(4096))                                    // empty block
	f.Add(pidx[:2048])                                             // truncated mid-record
	f.Add(append(bytes.Clone(pidx[:1024]), make([]byte, 3072)...)) // torn write: zeroed tail
	flipped := bytes.Clone(pidx)
	flipped[700] ^= 0x10
	f.Add(flipped) // checksum-corrupt payload
	overcount := bytes.Clone(sidx)
	binary.LittleEndian.PutUint16(overcount, 4000)
	f.Add(overcount) // count past the records present
	full := packIndexBlock(indexBlockHdr+2*20, klogCodec{}.Encode(nil, klogEntry{key: []byte("aaaaaa")}),
		klogCodec{}.Encode(nil, klogEntry{key: []byte("bbbbbb")}))
	binary.LittleEndian.PutUint16(full, 3)
	f.Add(full) // records fill the buffer exactly, count one too many
	f.Add([]byte{1, 0, 0})

	f.Fuzz(func(t *testing.T, buf []byte) {
		if len(buf) > 1<<16 {
			return
		}
		for _, verify := range []bool{true, false} {
			want, werr := refDecodeBlock[pidxEntry](buf, verify, klogCodec{})
			v, err := parseIndexBlock(nil, buf, verify, pidxFormat)
			if (err == nil) != (werr == nil) {
				t.Fatalf("pidx verify=%v: view err %v, reference err %v", verify, err, werr)
			}
			if err == nil {
				blk := pidxBlock{v}
				if blk.len() != len(want) {
					t.Fatalf("pidx: %d records, reference %d", blk.len(), len(want))
				}
				for i, w := range want {
					g := blk.entry(i)
					if !bytes.Equal(g.key, w.key) || g.vlen != w.vlen || g.vlogOff != w.vlogOff ||
						!bytes.Equal(blk.key(i), w.key) {
						t.Fatalf("pidx record %d: got %+v, reference %+v", i, g, w)
					}
				}
			}

			swant, swerr := refDecodeBlock[sidxEntry](buf, verify, sidxCodec{})
			v, err = parseIndexBlock(nil, buf, verify, sidxFormat)
			if (err == nil) != (swerr == nil) {
				t.Fatalf("sidx verify=%v: view err %v, reference err %v", verify, err, swerr)
			}
			if err == nil {
				blk := sidxBlock{v}
				if blk.len() != len(swant) {
					t.Fatalf("sidx: %d records, reference %d", blk.len(), len(swant))
				}
				for i, w := range swant {
					g := blk.entry(i)
					if !bytes.Equal(g.skey, w.skey) || !bytes.Equal(g.pkey, w.pkey) ||
						g.vlen != w.vlen || g.svOff != w.svOff {
						t.Fatalf("sidx record %d: got %+v, reference %+v", i, g, w)
					}
				}
			}
		}
	})
}

func TestPidxBlockSearch(t *testing.T) {
	v, err := parseIndexBlock(nil, testPidxBlock(136), true, pidxFormat)
	if err != nil {
		t.Fatal(err)
	}
	blk := pidxBlock{v}
	for _, c := range []struct {
		key  string
		want int
	}{
		{"", 0}, {"key-000000", 0}, {"key-000000x", 1}, {"key-000077", 77},
		{"key-000135", 135}, {"key-000136", 136}, {"zzz", 136},
	} {
		if got := blk.search([]byte(c.key)); got != c.want {
			t.Errorf("search(%q) = %d, want %d", c.key, got, c.want)
		}
	}
	// ~2 bytes of offset table per record is what keeps a full cache within a
	// few percent of its raw-block budget.
	if got := len(blk.offs) * 2; got > len(blk.buf)/12 {
		t.Fatalf("offset table %d B for a %d B block", got, len(blk.buf))
	}
}
