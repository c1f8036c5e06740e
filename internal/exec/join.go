package exec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"sync"

	"pmv/internal/btree"
	"pmv/internal/catalog"
	"pmv/internal/keycodec"
	"pmv/internal/storage"
	"pmv/internal/value"
)

// concat returns a fresh row holding a followed by b.
func concat(a, b value.Tuple) value.Tuple {
	row := make(value.Tuple, 0, len(a)+len(b))
	row = append(row, a...)
	return append(row, b...)
}

// IndexJoin is an index nested-loop join: for each outer row it probes
// the inner relation's index on the join column and concatenates
// matches — the access path the paper's Eqt plan uses ("the index on
// S.d is used to search S for matching tuples").
type IndexJoin struct {
	Outer    Iterator
	OuterCol int // position of the join attribute in outer rows
	Inner    *catalog.Relation
	InnerIdx *catalog.Index // single-column index on the inner join attribute
	Residual Pred           // optional filter on the concatenated row

	cur     value.Tuple
	matches []value.Tuple
	mpos    int
}

// Open opens the outer input.
func (j *IndexJoin) Open() error {
	j.cur = nil
	j.matches = nil
	j.mpos = 0
	return j.Outer.Open()
}

// Next produces the next concatenated (outer ++ inner) row.
func (j *IndexJoin) Next() (value.Tuple, bool, error) {
	for {
		for j.mpos < len(j.matches) {
			inner := j.matches[j.mpos]
			j.mpos++
			row := concat(j.cur, inner)
			if j.Residual == nil || j.Residual(row) {
				return row, true, nil
			}
		}
		outer, ok, err := j.Outer.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		j.cur = outer
		j.matches = j.matches[:0]
		j.mpos = 0
		key := keycodec.AppendValue(nil, outer[j.OuterCol])
		err = j.InnerIdx.LookupEq(key, func(rid storage.RID) error {
			t, err := j.Inner.Heap.Get(rid)
			if err != nil {
				return err
			}
			j.matches = append(j.matches, t)
			return nil
		})
		if err != nil {
			return nil, false, err
		}
	}
}

// Close closes the outer input.
func (j *IndexJoin) Close() error { return j.Outer.Close() }

// KeySide is one input of a KeyJoin: a relation read through a
// composite index (condition column, join column), restricted to key
// ranges over the condition column.
type KeySide struct {
	Rel    *catalog.Relation
	Index  *catalog.Index
	Ranges []KeyRange
	// Cols, when non-nil, marks the columns of Rel the plan reads; the
	// others come out of the join NULL (see value.AppendDecoded).
	// Plan.Narrow sets it; nil decodes whole rows.
	Cols []bool
}

// KeyJoin joins two relations that each carry a selection condition
// without reading a heap row that cannot be in the answer: it scans a
// (condition column, join column) index on each side for the bound
// ranges, intersects the two entry streams on the join-key bytes, and
// fetches only the matched RID pairs. Where an IndexJoin would fetch
// every inner row of every driving row and discard most of them on the
// inner condition, this reads about two heap rows per result row.
//
// Join keys are compared as encoded bytes, so the planner uses it only
// when both join columns have the same type.
type KeyJoin struct {
	Left, Right KeySide // output rows are Left ++ Right
	// BuildRight hashes Right's entries and streams Left's through the
	// table instead of the reverse; the planner sets it when it expects
	// Right to be the smaller side.
	BuildRight bool
	Residual   Pred // optional filter on the concatenated row

	pairs [][2]storage.RID // matched (left, right) RIDs
	pos   int
}

// keyTable is the build side of a KeyJoin: every entry's join key
// copied into one arena, and a power-of-two slot array whose chains
// link the entries through int32 indexes. It holds no map and no
// per-entry allocation, and tables are pooled, so a warm Open
// allocates nothing for it however many entries it holds.
type keyTable struct {
	arena []byte
	ents  []keyEntry
	slots []int32 // 1 + the last entry hashed to the slot; 0 = empty
}

type keyEntry struct {
	off, end int // the join key is arena[off:end]
	next     int32
	rid      storage.RID
}

var (
	keyTables = sync.Pool{New: func() any { return new(keyTable) }}
	keySeed   = maphash.MakeSeed()
)

// add copies one build entry's join key into the arena.
func (t *keyTable) add(k []byte, rid storage.RID) {
	off := len(t.arena)
	t.arena = append(t.arena, k...)
	t.ents = append(t.ents, keyEntry{off: off, end: len(t.arena), rid: rid})
}

// link sizes the slot array to at least twice the entries, once, and
// chains every entry into its slot. Later entries go in front, so a
// chain lists a key's entries newest first.
func (t *keyTable) link() {
	n := 1
	for n < 2*len(t.ents) {
		n <<= 1
	}
	if cap(t.slots) < n {
		t.slots = make([]int32, n)
	} else {
		t.slots = t.slots[:n]
		clear(t.slots)
	}
	mask := uint64(n - 1)
	for i := range t.ents {
		e := &t.ents[i]
		s := maphash.Bytes(keySeed, t.arena[e.off:e.end]) & mask
		e.next = t.slots[s]
		t.slots[s] = int32(i + 1)
	}
}

// chain returns the head of k's slot chain, 1 + an entry index, or 0
// when the chain is empty; each entry's next links to the one after it.
// A chain holds other keys' entries too: the byte compare, not the
// slot, decides a match.
func (t *keyTable) chain(k []byte) int32 {
	return t.slots[maphash.Bytes(keySeed, k)&uint64(len(t.slots)-1)]
}

// leadLen is the encoded length of the condition column every key of r
// begins with when r fixes it (an equality range), else 0.
func leadLen(r KeyRange) int {
	if r.Eq {
		return len(r.Lo)
	}
	return 0
}

// joinKey returns the join key of a composite index entry,
// enc(condition value) ++ enc(join value) ++ RID, as a slice of it.
// lead is the condition value's encoded length, or 0 when the range
// does not fix it and it has to be decoded.
func joinKey(e []byte, lead int) ([]byte, error) {
	n := len(e) - 6
	if lead == 0 && n > 0 {
		_, k, err := keycodec.DecodeValue(e[:n])
		if err != nil {
			return nil, err
		}
		lead = k
	}
	if lead == 0 || n < lead {
		return nil, fmt.Errorf("exec: index entry of %d bytes has no join key", len(e))
	}
	return e[lead:n], nil
}

// entryRID returns the RID an index entry ends with; joinKey has
// checked its length.
func entryRID(e []byte) storage.RID {
	n := len(e) - 6
	return storage.RID{Page: storage.PageID(binary.BigEndian.Uint32(e[n:])), Slot: binary.BigEndian.Uint16(e[n+4:])}
}

// Open scans both indexes and intersects them, one leaf's run of
// entries at a time: the build side's join keys go into a keyTable,
// the probe side's are looked up straight from the index page, in scan
// order.
func (j *KeyJoin) Open() error {
	j.pairs, j.pos = j.pairs[:0], 0
	build, probe := &j.Left, &j.Right
	if j.BuildRight {
		build, probe = probe, build
	}
	t := keyTables.Get().(*keyTable)
	defer keyTables.Put(t)
	t.arena, t.ents = t.arena[:0], t.ents[:0]
	for _, r := range build.Ranges {
		lead := leadLen(r)
		err := build.Index.Tree.Walk(r.Lo, r.Hi, func(l btree.Leaf) error {
			for i := 0; i < l.Len(); i++ {
				e := l.Entry(i)
				k, err := joinKey(e, lead)
				if err != nil {
					return err
				}
				t.add(k, entryRID(e))
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	t.link()
	for _, r := range probe.Ranges {
		lead := leadLen(r)
		err := probe.Index.Tree.Walk(r.Lo, r.Hi, func(l btree.Leaf) error {
			for i := 0; i < l.Len(); i++ {
				e := l.Entry(i)
				k, err := joinKey(e, lead)
				if err != nil {
					return err
				}
				for b := t.chain(k); b != 0; b = t.ents[b-1].next {
					m := &t.ents[b-1]
					if !bytes.Equal(t.arena[m.off:m.end], k) {
						continue
					}
					if j.BuildRight {
						j.pairs = append(j.pairs, [2]storage.RID{entryRID(e), m.rid})
					} else {
						j.pairs = append(j.pairs, [2]storage.RID{m.rid, entryRID(e)})
					}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Next fetches the next matched pair's heap rows, decoding both into
// one row sized for the two schemas: one allocation per joined row. A
// side with Cols set decodes only the columns they mark.
func (j *KeyJoin) Next() (value.Tuple, bool, error) {
	// A row the residual rejects is reused for the next pair.
	var row value.Tuple
	var err error
	for j.pos < len(j.pairs) {
		pair := j.pairs[j.pos]
		j.pos++
		if row == nil {
			row = make(value.Tuple, 0, len(j.Left.Rel.Schema.Columns)+len(j.Right.Rel.Schema.Columns))
		}
		if row, err = j.Left.Rel.Heap.AppendGet(row[:0], pair[0], j.Left.Cols); err != nil {
			return nil, false, err
		}
		if row, err = j.Right.Rel.Heap.AppendGet(row, pair[1], j.Right.Cols); err != nil {
			return nil, false, err
		}
		if j.Residual == nil || j.Residual(row) {
			return row, true, nil
		}
	}
	return nil, false, nil
}

// Close releases the matched pairs.
func (j *KeyJoin) Close() error {
	j.pairs = nil
	return nil
}

// HashJoin builds the right input into a hash table on its join column
// and probes it with left rows. Used for delta joins in PMV
// maintenance, where the delta side is small and has no index.
type HashJoin struct {
	Left     Iterator
	LeftCol  int
	Right    Iterator
	RightCol int
	Residual Pred

	table   map[string][]value.Tuple
	cur     value.Tuple
	matches []value.Tuple
	mpos    int
}

// Open builds the hash table from the right input.
func (j *HashJoin) Open() error {
	j.table = make(map[string][]value.Tuple)
	j.cur = nil
	j.matches = nil
	j.mpos = 0
	if err := ForEach(j.Right, func(t value.Tuple) error {
		k := string(keycodec.AppendValue(nil, t[j.RightCol]))
		j.table[k] = append(j.table[k], t)
		return nil
	}); err != nil {
		return err
	}
	return j.Left.Open()
}

// Next produces the next (left ++ right) match.
func (j *HashJoin) Next() (value.Tuple, bool, error) {
	for {
		for j.mpos < len(j.matches) {
			right := j.matches[j.mpos]
			j.mpos++
			row := concat(j.cur, right)
			if j.Residual == nil || j.Residual(row) {
				return row, true, nil
			}
		}
		left, ok, err := j.Left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		j.cur = left
		k := string(keycodec.AppendValue(nil, left[j.LeftCol]))
		j.matches = j.table[k]
		j.mpos = 0
	}
}

// Close closes the left input and drops the table.
func (j *HashJoin) Close() error {
	j.table = nil
	return j.Left.Close()
}

// NestedLoopJoin is the fallback join for predicates with no usable
// index: it re-scans the (materialized) right side per left row.
type NestedLoopJoin struct {
	Left  Iterator
	Right Iterator
	On    Pred // evaluated over the concatenated row; nil = cross join

	rightRows []value.Tuple
	cur       value.Tuple
	rpos      int
	done      bool
}

// Open materializes the right input.
func (j *NestedLoopJoin) Open() error {
	rows, err := Collect(j.Right)
	if err != nil {
		return err
	}
	j.rightRows = rows
	j.cur = nil
	j.rpos = 0
	j.done = false
	return j.Left.Open()
}

// Next produces the next concatenated row satisfying On.
func (j *NestedLoopJoin) Next() (value.Tuple, bool, error) {
	for {
		if j.cur == nil {
			left, ok, err := j.Left.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				return nil, false, nil
			}
			j.cur = left
			j.rpos = 0
		}
		for j.rpos < len(j.rightRows) {
			right := j.rightRows[j.rpos]
			j.rpos++
			row := concat(j.cur, right)
			if j.On == nil || j.On(row) {
				return row, true, nil
			}
		}
		j.cur = nil
	}
}

// Close closes the left input and drops the buffer.
func (j *NestedLoopJoin) Close() error {
	j.rightRows = nil
	return j.Left.Close()
}
