package exec

import (
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
}

// scan range-scans the composite index without touching the heap and
// hands fn every entry's encoded join key and RID. An entry's logical
// key is enc(condition value) ++ enc(join value), so the join key is
// what follows the leading column; it aliases the pinned index page and
// is valid only until fn returns.
func (s *KeySide) scan(fn func(joinKey []byte, rid storage.RID) error) error {
	for _, r := range s.Ranges {
		err := s.Index.ScanKeys(r.Lo, r.Hi, func(key []byte, rid storage.RID) error {
			_, n, err := keycodec.DecodeValue(key)
			if err != nil {
				return err
			}
			return fn(key[n:], rid)
		})
		if err != nil {
			return err
		}
	}
	return nil
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

// Open scans both indexes and intersects them: the build side's
// entries are hashed on their join key, the probe side's are looked up
// straight from the index page, in scan order.
func (j *KeyJoin) Open() error {
	j.pairs, j.pos = j.pairs[:0], 0
	build, probe := &j.Left, &j.Right
	if j.BuildRight {
		build, probe = probe, build
	}
	// head maps a join key to 1 + the last build entry carrying it;
	// each entry links to the one before it with the same key.
	type entry struct {
		rid  storage.RID
		prev int
	}
	var ents []entry
	head := make(map[string]int)
	err := build.scan(func(k []byte, rid storage.RID) error {
		ents = append(ents, entry{rid: rid, prev: head[string(k)]})
		head[string(k)] = len(ents)
		return nil
	})
	if err != nil {
		return err
	}
	return probe.scan(func(k []byte, rid storage.RID) error {
		for b := head[string(k)]; b != 0; b = ents[b-1].prev {
			if j.BuildRight {
				j.pairs = append(j.pairs, [2]storage.RID{rid, ents[b-1].rid})
			} else {
				j.pairs = append(j.pairs, [2]storage.RID{ents[b-1].rid, rid})
			}
		}
		return nil
	})
}

// Next fetches the next matched pair's heap rows and concatenates them.
func (j *KeyJoin) Next() (value.Tuple, bool, error) {
	for j.pos < len(j.pairs) {
		pair := j.pairs[j.pos]
		j.pos++
		l, err := j.Left.Rel.Heap.Get(pair[0])
		if err != nil {
			return nil, false, err
		}
		r, err := j.Right.Rel.Heap.Get(pair[1])
		if err != nil {
			return nil, false, err
		}
		row := concat(l, r)
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
