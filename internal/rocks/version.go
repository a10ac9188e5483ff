package rocks

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"kvcsd/internal/codec"
	"kvcsd/internal/sim"
)

// tableHandle couples a table's metadata with its (lazily opened) reader.
type tableHandle struct {
	meta   tableMeta
	reader *tableReader
}

// open returns the table's reader, opening it on first use.
func (t *tableHandle) open(p *sim.Proc, db *DB) (*tableReader, error) {
	if t.reader != nil {
		return t.reader, nil
	}
	f, err := db.fs.Open(p, db.fileName(t.meta.fileNum))
	if err != nil {
		return nil, err
	}
	r, err := openTable(p, f, db.h, db.cache, t.meta)
	if err != nil {
		return nil, err
	}
	t.reader = r
	return r, nil
}

// levels is the LSM shape: levels[0] holds overlapping L0 tables newest
// first; deeper levels hold disjoint tables sorted by smallest key.
type levels struct {
	files [][]*tableHandle
}

func newLevels(n int) *levels {
	return &levels{files: make([][]*tableHandle, n)}
}

// addL0 prepends a fresh flush output (newest first).
func (l *levels) addL0(t *tableHandle) {
	l.files[0] = append([]*tableHandle{t}, l.files[0]...)
}

// addSorted inserts a table into a deeper level, keeping smallest-key order.
func (l *levels) addSorted(level int, t *tableHandle) {
	fs := l.files[level]
	i := sort.Search(len(fs), func(i int) bool {
		return bytes.Compare(fs[i].meta.smallest, t.meta.smallest) >= 0
	})
	fs = append(fs, nil)
	copy(fs[i+1:], fs[i:])
	fs[i] = t
	l.files[level] = fs
}

// remove deletes a table from a level by file number.
func (l *levels) remove(level int, fileNum uint64) {
	fs := l.files[level]
	for i, t := range fs {
		if t.meta.fileNum == fileNum {
			l.files[level] = append(fs[:i:i], fs[i+1:]...)
			return
		}
	}
}

// levelBytes returns a level's total size.
func (l *levels) levelBytes(level int) int64 {
	var n int64
	for _, t := range l.files[level] {
		n += t.meta.size
	}
	return n
}

// totalTables returns the number of live tables.
func (l *levels) totalTables() int {
	n := 0
	for _, fs := range l.files {
		n += len(fs)
	}
	return n
}

// overlapping returns tables in level whose key range intersects [lo, hi].
func (l *levels) overlapping(level int, lo, hi []byte) []*tableHandle {
	var out []*tableHandle
	for _, t := range l.files[level] {
		if bytes.Compare(t.meta.largest, lo) < 0 || bytes.Compare(t.meta.smallest, hi) > 0 {
			continue
		}
		out = append(out, t)
	}
	return out
}

// candidateForKey returns the single table in a sorted level that could hold
// key, or nil.
func (l *levels) candidateForKey(level int, key []byte) *tableHandle {
	fs := l.files[level]
	i := sort.Search(len(fs), func(i int) bool {
		return bytes.Compare(fs[i].meta.largest, key) >= 0
	})
	if i < len(fs) && bytes.Compare(fs[i].meta.smallest, key) <= 0 {
		return fs[i]
	}
	return nil
}

// The manifest is one snapshot of the version state, rewritten whole on
// every change:
//
//	magic u32 | version u8 | nextFileNum | lastSeq | levels
//
// where levels is a count of levels, each a count of tables, each table
// fileNum | size | entries | smallest | largest. Integers are uvarints and
// keys are length-prefixed, read by internal/codec's rules.
const (
	manifestMagic   = 0x464d564b // "KVMF"
	manifestVersion = 1
)

// appendManifest appends the encoded version state.
func (db *DB) appendManifest(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, manifestMagic)
	b = append(b, manifestVersion)
	b = binary.AppendUvarint(b, db.nextFileNum)
	b = binary.AppendUvarint(b, db.seq)
	b = binary.AppendUvarint(b, uint64(len(db.levels.files)))
	for _, fs := range db.levels.files {
		b = binary.AppendUvarint(b, uint64(len(fs)))
		for _, t := range fs {
			b = binary.AppendUvarint(b, t.meta.fileNum)
			b = binary.AppendUvarint(b, uint64(t.meta.size))
			b = binary.AppendUvarint(b, uint64(t.meta.entries))
			b = codec.AppendBytes(b, t.meta.smallest)
			b = codec.AppendBytes(b, t.meta.largest)
		}
	}
	return b
}

// saveManifest rewrites the manifest atomically (write temp + rename).
// Concurrent callers serialize on the manifest lock; each write uses a unique
// temp name so an interrupted writer cannot clobber another's file.
func (db *DB) saveManifest(p *sim.Proc) error {
	p.Acquire(db.manifestLock)
	defer p.Release(db.manifestLock)
	buf := db.appendManifest(nil)
	db.manifestSeq++
	tmp := fmt.Sprintf("%s/MANIFEST.%06d.tmp", db.name, db.manifestSeq)
	f, err := db.fs.Create(p, tmp)
	if err != nil {
		return err
	}
	if err := f.Append(p, buf); err != nil {
		return err
	}
	if err := f.Sync(p); err != nil {
		return err
	}
	return db.fs.Rename(p, tmp, db.name+"/MANIFEST")
}
