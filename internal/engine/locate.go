package engine

import (
	"fmt"
	"math"
	"slices"

	"pmv/internal/catalog"
	"pmv/internal/keycodec"
	"pmv/internal/storage"
	"pmv/internal/value"
)

// row is one located tuple: where it lives and what it holds.
type row struct {
	rid storage.RID
	t   value.Tuple
}

// rowFinder is the locate half of a DELETE/UPDATE statement: the rows
// the statement changes, in RID order. dml runs it inside the change
// barrier.
type rowFinder func(r *catalog.Relation) ([]row, error)

// scanRows locates by heap scan: every tuple is decoded and asked.
// The scan reuses one row, so match sees it only during the call and
// each match is cloned: the rows feed apply, the observers' pre-images
// and DeleteWhere's result.
func (e *Engine) scanRows(r *catalog.Relation, match func(value.Tuple) bool) ([]row, error) {
	e.dmlScanned.Add(1)
	var rows []row
	err := r.Heap.Scan(func(rid storage.RID, t value.Tuple) error {
		if match(t) {
			rows = append(rows, row{rid, t.Clone()})
		}
		return nil
	})
	return rows, err
}

// whereRows is the closure API's finder. The predicate is opaque, so
// the heap scan is the only way to ask it.
func (e *Engine) whereRows(pred func(value.Tuple) bool) rowFinder {
	return func(r *catalog.Relation) ([]row, error) { return e.scanRows(r, pred) }
}

// eqRows finds the rows whose column col equals one of vals. With an
// index led by col it reads only their pages: each probe's prefix
// range yields candidate RIDs, which are sorted and deduplicated so
// hits arrive in the order the scan would have met them, then fetched
// and asked again — an index entry is a candidate, the tuple decides
// (a Float value also probes the Int it truncates to, and without a
// registered barrier a slot can be reused between probe and fetch).
// Without such an index, or for values an index cannot enumerate, it
// scans; the rows are the same either way.
func (e *Engine) eqRows(col string, vals *EqSet) rowFinder {
	return func(r *catalog.Relation) ([]row, error) {
		ci := r.Schema.ColIndex(col)
		if ci < 0 {
			return nil, fmt.Errorf("engine: relation %s has no column %s", r.Name, col)
		}
		match := func(t value.Tuple) bool { return len(vals.Which(t[ci])) > 0 }
		ix := r.IndexLedBy(ci)
		if ix == nil || vals.probes == nil {
			return e.scanRows(r, match)
		}
		e.dmlLocated.Add(1)
		var rids []storage.RID
		for _, p := range vals.probes {
			err := ix.LookupEq(p, func(rid storage.RID) error {
				rids = append(rids, rid)
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("engine: index %s: %w", ix.Name, err)
			}
		}
		slices.SortFunc(rids, storage.RID.Compare)
		rids = slices.Compact(rids)
		rows := make([]row, 0, len(rids))
		for _, rid := range rids {
			t, err := r.Heap.Get(rid)
			if err != nil {
				return nil, err
			}
			if match(t) {
				rows = append(rows, row{rid, t})
			}
		}
		return rows, nil
	}
}

// EqSet is the match values of one equality statement and the one
// definition of "matches" every write path shares: value.Equal. That
// relation equates Int and Float numerically — and +0 with -0, and
// every NaN with every other — while keycodec tags the encodings
// apart and Insert checks arity only, so one stored value can sit
// under several index keys. An EqSet knows them.
type EqSet struct {
	vals []value.Value
	// byClass and probes are nil when some value has no eqClass: Which
	// then compares against each value and the statement scans.
	byClass map[eqClass][]int
	probes  [][]byte // encoded key prefixes every equal stored value lies under
}

// eqClass keys a value so that, among values that have one, equal keys
// mean value.Equal and nothing else does.
type eqClass struct {
	typ  value.Type
	bits uint64
	s    string
}

// classOf returns v's class. Numbers are keyed by the float they
// equal, which identifies a number's equals only below 2⁵³: from there
// up one Float equals several Ints, and NaN has many bit patterns. A
// value without a class equals no value that has one.
func classOf(v value.Value) (c eqClass, ok bool) {
	switch v.Type() {
	case value.TypeNull:
		return eqClass{}, true
	case value.TypeInt, value.TypeFloat:
		f := v.Float64()
		if math.IsNaN(f) || math.Abs(f) >= 1<<53 {
			return c, false
		}
		if f == 0 {
			f = 0 // -0 equals +0
		}
		return eqClass{typ: value.TypeFloat, bits: math.Float64bits(f)}, true
	case value.TypeString:
		return eqClass{typ: value.TypeString, s: v.Str()}, true
	default: // Date, Bool: equal to their own type only
		return eqClass{typ: v.Type(), bits: uint64(v.Int64())}, true
	}
}

// NewEqSet builds the set for the given match values. Indices returned
// by Which refer to this order.
func NewEqSet(vals ...value.Value) *EqSet {
	s := &EqSet{vals: vals}
	byClass := make(map[eqClass][]int, len(vals))
	probes := make([][]byte, 0, len(vals))
	for i, v := range vals {
		c, ok := classOf(v)
		if !ok {
			return s
		}
		byClass[c] = append(byClass[c], i)
		if len(byClass[c]) > 1 {
			continue
		}
		if c.typ != value.TypeFloat { // not a number: one encoding
			probes = append(probes, keycodec.AppendValue(nil, v))
			continue
		}
		f := math.Float64frombits(c.bits)
		probes = append(probes,
			keycodec.AppendValue(nil, value.Float(f)),
			keycodec.AppendValue(nil, value.Int(int64(f))))
		if f == 0 {
			probes = append(probes, keycodec.AppendValue(nil, value.Float(math.Copysign(0, -1))))
		}
	}
	s.byClass, s.probes = byClass, probes
	return s
}

// Which returns the indices, ascending, of the set's values that equal
// v. The slice is the set's own: read it, do not keep or change it.
func (s *EqSet) Which(v value.Value) []int {
	if s.byClass != nil {
		c, ok := classOf(v)
		if !ok {
			return nil
		}
		return s.byClass[c]
	}
	var which []int
	for i, x := range s.vals {
		if value.Equal(v, x) {
			which = append(which, i)
		}
	}
	return which
}
