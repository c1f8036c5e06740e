package exec

import (
	"pmv/internal/catalog"
	"pmv/internal/expr"
	"pmv/internal/keycodec"
	"pmv/internal/storage"
	"pmv/internal/value"
)

// qualify returns the row schema of a base relation with every column
// qualified by the relation's (template) name.
func qualify(rel *catalog.Relation, as string) RowSchema {
	cols := make([]expr.ColumnRef, len(rel.Schema.Columns))
	for i, c := range rel.Schema.Columns {
		cols[i] = expr.ColumnRef{Rel: as, Col: c.Name}
	}
	return RowSchema{Cols: cols}
}

// SeqScan reads every live tuple of a relation. It materializes the
// rows up front, each cloned from the heap scan's reused row, so
// concurrent inserts during the scan do not produce torn iteration
// state.
type SeqScan struct {
	Rel  *catalog.Relation
	rows []value.Tuple
	pos  int
}

// Open snapshots the heap.
func (s *SeqScan) Open() error {
	s.rows = s.rows[:0]
	s.pos = 0
	return s.Rel.Heap.Scan(func(_ storage.RID, t value.Tuple) error {
		s.rows = append(s.rows, t.Clone())
		return nil
	})
}

// Next returns the next tuple of the snapshot.
func (s *SeqScan) Next() (value.Tuple, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	t := s.rows[s.pos]
	s.pos++
	return t, true, nil
}

// Close releases the snapshot.
func (s *SeqScan) Close() error {
	s.rows = nil
	return nil
}

// KeyRange is one [Lo, Hi) range of encoded index keys. A nil Hi means
// unbounded above.
type KeyRange struct {
	Lo, Hi []byte
	// Eq marks an equality range: Hi is Lo's prefix successor (which
	// exists, keycodec's tag bytes being below 0xFF), so the range holds
	// exactly the keys that begin with Lo, and since keycodec is
	// self-delimiting a key's leading column is exactly Lo's bytes.
	Eq bool
}

// EqKeyRange returns the range covering exactly the encoded value v.
func EqKeyRange(v value.Value) KeyRange { return eqRange(nil, nil, v) }

// IntervalKeyRange returns the encoded range for interval iv over a
// single-column index.
func IntervalKeyRange(iv expr.Interval) KeyRange { return intervalRange(nil, nil, iv) }

// eqRange is EqKeyRange writing its bounds into lo's and hi's buffers.
func eqRange(lo, hi []byte, v value.Value) KeyRange {
	lo = keycodec.AppendValue(lo[:0], v)
	return KeyRange{Lo: lo, Hi: appendSuccessor(hi[:0], lo), Eq: true}
}

// intervalRange is IntervalKeyRange writing its bounds into lo's and
// hi's buffers.
func intervalRange(lo, hi []byte, iv expr.Interval) KeyRange {
	var kr KeyRange
	if !iv.Lo.IsNull() {
		kr.Lo = keycodec.AppendValue(lo[:0], iv.Lo)
		if !iv.LoIncl {
			kr.Lo = appendSuccessor(kr.Lo[:0:len(kr.Lo)], kr.Lo)
		}
	}
	if !iv.Hi.IsNull() {
		kr.Hi = keycodec.AppendValue(hi[:0], iv.Hi)
		if iv.HiIncl {
			kr.Hi = appendSuccessor(kr.Hi[:0:len(kr.Hi)], kr.Hi)
		}
	}
	return kr
}

// successorOf returns the smallest byte string greater than every
// string with prefix key. Index entries are key || rid(6 bytes), so an
// exclusive upper bound on a logical key must clear every entry sharing
// that prefix — the carry-based prefix successor does exactly that.
func successorOf(key []byte) []byte { return prefixSuccessor(key) }

func prefixSuccessor(p []byte) []byte { return appendSuccessor(nil, p) }

// appendSuccessor appends p's prefix successor to dst (see successorOf),
// or returns nil, unbounded, when p is all 0xFF bytes. dst may be p's
// own buffer cut to length 0.
func appendSuccessor(dst, p []byte) []byte {
	n := len(p)
	out := append(dst, p...)
	for i := n - 1; i >= 0; i-- {
		if out[i] != 0xFF {
			out[i]++
			return out[:i+1]
		}
	}
	return nil // unbounded
}

// IndexScan fetches the heap tuples whose index keys fall in any of the
// given ranges, in range order.
type IndexScan struct {
	Rel    *catalog.Relation
	Index  *catalog.Index
	Ranges []KeyRange

	rids []storage.RID
	pos  int
}

// Open collects the matching RIDs from the index.
func (s *IndexScan) Open() error {
	s.rids = s.rids[:0]
	s.pos = 0
	for _, r := range s.Ranges {
		err := s.Index.LookupRange(r.Lo, r.Hi, func(rid storage.RID) error {
			s.rids = append(s.rids, rid)
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Next fetches the next matching heap tuple.
func (s *IndexScan) Next() (value.Tuple, bool, error) {
	if s.pos >= len(s.rids) {
		return nil, false, nil
	}
	rid := s.rids[s.pos]
	s.pos++
	t, err := s.Rel.Heap.Get(rid)
	if err != nil {
		return nil, false, err
	}
	return t, true, nil
}

// Close releases the RID list.
func (s *IndexScan) Close() error {
	s.rids = nil
	return nil
}
