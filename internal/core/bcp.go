// Package core implements the paper's contribution: the partial
// materialized view (PMV). A PMV caches, per hot basic condition part
// (bcp), at most F result tuples of a query template, bounded to UB
// entries, managed by a pluggable replacement policy, probed before
// query execution (Operations O1/O2) and refilled for free during it
// (Operation O3), with deferred maintenance on base-relation change
// (Section 3.4).
package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"pmv/internal/expr"
	"pmv/internal/keycodec"
	"pmv/internal/value"
)

// Discretizer turns one interval-form condition's domain into basic
// intervals via sorted dividing values d0 < d1 < ... < dk (Section
// 3.1). Basic interval ids:
//
//	id 0:   (-inf, d0)
//	id i:   [d(i-1), d(i))   for 1 <= i <= k
//	id k+1: [dk, +inf)
//
// Every attribute value maps to exactly one basic interval, and the
// basic intervals cover the entire range — the paper's requirement.
type Discretizer struct {
	dividers []value.Value
}

// NewDiscretizer builds a discretizer from dividing values, which are
// sorted and deduplicated.
func NewDiscretizer(dividers []value.Value) *Discretizer {
	ds := make([]value.Value, len(dividers))
	copy(ds, dividers)
	sort.Slice(ds, func(i, j int) bool { return value.Compare(ds[i], ds[j]) < 0 })
	out := ds[:0]
	for i, d := range ds {
		if i == 0 || !value.Equal(d, out[len(out)-1]) {
			out = append(out, d)
		}
	}
	return &Discretizer{dividers: out}
}

// NumIntervals returns the number of basic intervals (k+2 for k+1
// dividers, or 1 when there are no dividers).
func (d *Discretizer) NumIntervals() int { return len(d.dividers) + 1 }

// IDOf returns the basic interval id containing v.
func (d *Discretizer) IDOf(v value.Value) int {
	// First divider strictly greater than v bounds v's interval above;
	// sort.Search returns the count of dividers <= v.
	return sort.Search(len(d.dividers), func(i int) bool {
		return value.Compare(d.dividers[i], v) > 0
	})
}

// IntervalOf returns basic interval id as an expr.Interval
// ([lo, hi), unbounded at the ends).
func (d *Discretizer) IntervalOf(id int) expr.Interval {
	var iv expr.Interval
	if id > 0 {
		iv.Lo = d.dividers[id-1]
		iv.LoIncl = true
	}
	if id < len(d.dividers) {
		iv.Hi = d.dividers[id]
		iv.HiIncl = false
	}
	return iv
}

// Overlapping returns the ids of every basic interval overlapping iv,
// in ascending order.
func (d *Discretizer) Overlapping(iv expr.Interval) []int {
	lo := 0
	if !iv.Lo.IsNull() {
		// IDOf returns the basic interval containing the bound itself;
		// an open lower bound sitting exactly on a divider still starts
		// inside [divider, next), so no adjustment is needed.
		lo = d.IDOf(iv.Lo)
	}
	hi := len(d.dividers)
	if !iv.Hi.IsNull() {
		hi = d.IDOf(iv.Hi)
		// If the upper bound is exclusive and sits exactly on a
		// divider, the basic interval starting at that divider is not
		// touched.
		if !iv.HiIncl && hi > 0 && value.Equal(iv.Hi, d.dividers[hi-1]) {
			hi--
		}
	}
	if hi < lo {
		hi = lo
	}
	out := make([]int, 0, hi-lo+1)
	for id := lo; id <= hi; id++ {
		out = append(out, id)
	}
	return out
}

// LearnDividers derives dividing values from a trace of query
// intervals, mirroring the paper's observation that form-based
// applications expose from/to value lists: every distinct bound that
// appears becomes a divider. This is the "learn dividing values from
// query traces" fallback of Section 3.1.
func LearnDividers(trace []expr.Interval) []value.Value {
	var vals []value.Value
	for _, iv := range trace {
		if !iv.Lo.IsNull() {
			vals = append(vals, iv.Lo)
		}
		if !iv.Hi.IsNull() {
			vals = append(vals, iv.Hi)
		}
	}
	return NewDiscretizer(vals).dividers
}

// condComponent is one coordinate of a condition part: either an
// equality value or a (sub-)interval with its containing basic
// interval id.
type condComponent struct {
	// equality form
	val value.Value
	// interval form
	iv      expr.Interval
	basicID int

	isEquality bool
	// exact is true when the component equals its containing basic
	// component (so cached tuples need no re-checking against it).
	exact bool
	// at is an equality component's index in its condition's values.
	at int32
}

// ConditionPart is one non-overlapping piece of a query's Cselect
// produced by Operation O1, together with its containing basic
// condition part.
type ConditionPart struct {
	comps []condComponent
	// BCPKey is the encoded containing basic condition part.
	BCPKey string
	// Exact reports whether the part *is* its containing bcp (every
	// component exact), in which case any tuple belonging to the bcp
	// belongs to the part.
	Exact bool
	// Whole is set by Source.Probe when it served the part's whole
	// answer, from an entry holding its bcp's whole answer; Served
	// then counts the tuples it emitted for the part. O3 need not run
	// over a whole part (residual).
	Whole  bool
	Served int
}

// Matches reports whether the values of the condition attributes
// (ordered as the template's conditions) satisfy this condition part.
func (cp *ConditionPart) Matches(condVals []value.Value) bool {
	for i, c := range cp.comps {
		v := condVals[i]
		if c.isEquality {
			if !value.Equal(v, c.val) {
				return false
			}
		} else if !c.iv.Contains(v) {
			return false
		}
	}
	return true
}

// String renders the part for diagnostics.
func (cp *ConditionPart) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, c := range cp.comps {
		if i > 0 {
			sb.WriteString(" & ")
		}
		if c.isEquality {
			fmt.Fprintf(&sb, "=%s", c.val)
		} else {
			fmt.Fprintf(&sb, "%s@bi%d", c.iv, c.basicID)
		}
	}
	sb.WriteByte('}')
	return sb.String()
}

// bcpCoder maps between attribute values and encoded bcp keys for one
// view: equality-form conditions contribute their value, interval-form
// conditions contribute the id of the containing basic interval
// (Section 3.1's storage rule).
type bcpCoder struct {
	forms []expr.CondForm
	discs []*Discretizer // nil for equality-form conditions
}

// appendComponentsKey appends the encoded containing bcp of a
// component vector to dst.
func (bc *bcpCoder) appendComponentsKey(dst []byte, comps []condComponent) []byte {
	for i, c := range comps {
		if bc.forms[i] == expr.EqualityForm {
			dst = keycodec.AppendValue(dst, c.val)
		} else {
			dst = keycodec.AppendValue(dst, value.Int(int64(c.basicID)))
		}
	}
	return dst
}

// KeyFromCondValues encodes the containing bcp of a result tuple given
// the values of its condition attributes — this is how Operation O3
// and maintenance recover the "conceptual" bcp from the stored
// attributes ats.
func (bc *bcpCoder) KeyFromCondValues(condVals []value.Value) string {
	return string(bc.AppendKey(make([]byte, 0, 16*len(condVals)), condVals))
}

// AppendKey appends KeyFromCondValues's encoding to dst.
func (bc *bcpCoder) AppendKey(dst []byte, condVals []value.Value) []byte {
	for i, v := range condVals {
		if bc.forms[i] == expr.EqualityForm {
			dst = keycodec.AppendValue(dst, v)
		} else {
			dst = keycodec.AppendValue(dst, value.Int(int64(bc.discs[i].IDOf(v))))
		}
	}
	return dst
}

// ErrTooManyParts is returned by BreakConditions when the cartesian
// product of per-condition components exceeds the cap; the caller
// falls back to plain execution (no PMV probe) for that query.
var ErrTooManyParts = fmt.Errorf("core: query breaks into too many condition parts")

// PartBuf is Operation O1's reusable storage: one query's condition
// parts, their components, and the arena their bcp keys are cut from.
// A query driver owns one, so a warm O1 allocates one string for all
// its keys and nothing else. The parts BreakConditionsInto returns live
// in the buffer until its next use; their keys are ordinary strings and
// may be kept.
type PartBuf struct {
	parts   []ConditionPart
	comps   []condComponent // m per part
	sets    []condComponent // every condition's components, in order
	ends    []int           // condition i's are sets[ends[i-1]:ends[i]]
	idx     []int
	keyEnds []int
	arena   []byte
}

// BreakConditions is Operation O1: break a query's Cselect into
// non-overlapping condition parts, each with its containing basic
// condition part. maxParts caps the cartesian-product size.
func (bc *bcpCoder) BreakConditions(q *expr.Query, maxParts int) ([]ConditionPart, error) {
	return bc.breakInto(new(PartBuf), q, maxParts)
}

func (bc *bcpCoder) breakInto(b *PartBuf, q *expr.Query, maxParts int) ([]ConditionPart, error) {
	m := len(q.Conds)
	b.sets, b.ends = b.sets[:0], b.ends[:0]
	total := 1
	for i := 0; i < m; i++ {
		start := len(b.sets)
		if bc.forms[i] == expr.EqualityForm {
			for j, v := range q.Conds[i].Values {
				b.sets = append(b.sets, condComponent{val: v, isEquality: true, exact: true, at: int32(j)})
			}
		} else {
			disc := bc.discs[i]
			for _, iv := range q.Conds[i].Intervals {
				for _, id := range disc.Overlapping(iv) {
					basic := disc.IntervalOf(id)
					inter := iv.Intersect(basic)
					exact := intervalsEqual(inter, basic)
					b.sets = append(b.sets, condComponent{iv: inter, basicID: id, exact: exact})
				}
			}
		}
		n := len(b.sets) - start
		if n == 0 {
			return nil, fmt.Errorf("core: condition %d of query has no disjuncts", i)
		}
		b.ends = append(b.ends, len(b.sets))
		total *= n
		if maxParts > 0 && total > maxParts {
			return nil, ErrTooManyParts
		}
	}

	b.parts, b.keyEnds, b.arena = b.parts[:0], b.keyEnds[:0], b.arena[:0]
	b.comps = slices.Grow(b.comps[:0], total*m)[:total*m]
	b.idx = slices.Grow(b.idx[:0], m)[:m]
	clear(b.idx)
	for p := 0; ; p++ {
		comps := b.comps[p*m : (p+1)*m : (p+1)*m]
		exact := true
		for i := 0; i < m; i++ {
			start := 0
			if i > 0 {
				start = b.ends[i-1]
			}
			comps[i] = b.sets[start+b.idx[i]]
			exact = exact && comps[i].exact
		}
		b.arena = bc.appendComponentsKey(b.arena, comps)
		b.keyEnds = append(b.keyEnds, len(b.arena))
		b.parts = append(b.parts, ConditionPart{comps: comps, Exact: exact})
		// Advance the mixed-radix counter.
		j := m - 1
		for ; j >= 0; j-- {
			b.idx[j]++
			start := 0
			if j > 0 {
				start = b.ends[j-1]
			}
			if b.idx[j] < b.ends[j]-start {
				break
			}
			b.idx[j] = 0
		}
		if j < 0 {
			break
		}
	}
	// One string for every key: each part's is a slice of it.
	keys, off := string(b.arena), 0
	for i := range b.parts {
		b.parts[i].BCPKey = keys[off:b.keyEnds[i]]
		off = b.keyEnds[i]
	}
	return b.parts, nil
}

func intervalsEqual(a, b expr.Interval) bool {
	boundEq := func(x, y value.Value, xi, yi bool) bool {
		if x.IsNull() != y.IsNull() {
			return false
		}
		if x.IsNull() {
			return true
		}
		return value.Equal(x, y) && xi == yi
	}
	return boundEq(a.Lo, b.Lo, a.LoIncl, b.LoIncl) && boundEq(a.Hi, b.Hi, a.HiIncl, b.HiIncl)
}

// residualBuf is the driver's storage for residual queries, reused
// across the runs of a pooled driver. inside and skipped describe the
// last residual: the parts it covers, and the tuples served for the
// parts it leaves out.
type residualBuf struct {
	inside, skipped int

	q     expr.Query
	conds []expr.CondInstance
	vals  []value.Value
	keep  []bool
	offs  []int
}

// residual narrows q, whose O1 built parts, to what O3 must still run
// once Probe marked the parts it served whole: each equality-form
// condition keeps the values some part not served whole carries, and
// interval-form conditions stay whole. It returns q itself when nothing
// can be left out, ok false when some equality condition keeps no value
// (every part was served whole), and otherwise a query in b, valid
// until b's next use. The tuples served for the parts it leaves out
// (b.skipped) cannot be repeated by a row of the residual query: a
// row's equality values decide its bcp, and q's values are distinct.
func (b *residualBuf) residual(q *expr.Query, parts []ConditionPart) (rq *expr.Query, ok bool) {
	b.inside, b.skipped = len(parts), 0
	whole := 0
	for i := range parts {
		if parts[i].Whole {
			whole++
		}
	}
	if whole == 0 {
		return q, true
	}
	n := 0
	b.offs = b.offs[:0]
	for i := range q.Conds {
		b.offs = append(b.offs, n)
		n += len(q.Conds[i].Values)
	}
	b.keep = slices.Grow(b.keep[:0], n)[:n]
	clear(b.keep)
	for p := range parts {
		if parts[p].Whole {
			continue
		}
		for i, c := range parts[p].comps {
			if c.isEquality {
				b.keep[b.offs[i]+int(c.at)] = true
			}
		}
	}
	b.inside = 0
	for p := range parts {
		if b.kept(&parts[p]) {
			b.inside++
		} else {
			b.skipped += parts[p].Served
		}
	}
	switch b.inside {
	case 0:
		return nil, false
	case len(parts):
		return q, true
	}
	// vals holds every kept value, so appending never moves the slices
	// already cut from it.
	b.vals, b.conds = slices.Grow(b.vals[:0], n), b.conds[:0]
	for i, ci := range q.Conds {
		if len(ci.Values) == 0 {
			b.conds = append(b.conds, ci)
			continue
		}
		start := len(b.vals)
		for j, v := range ci.Values {
			if b.keep[b.offs[i]+j] {
				b.vals = append(b.vals, v)
			}
		}
		b.conds = append(b.conds, expr.CondInstance{Values: b.vals[start:len(b.vals):len(b.vals)]})
	}
	b.q = expr.Query{Template: q.Template, Conds: b.conds}
	return &b.q, true
}

// kept reports whether every equality component of cp is kept.
func (b *residualBuf) kept(cp *ConditionPart) bool {
	for i, c := range cp.comps {
		if c.isEquality && !b.keep[b.offs[i]+int(c.at)] {
			return false
		}
	}
	return true
}

// release drops b's references to the last query's values.
func (b *residualBuf) release() {
	clear(b.vals)
	clear(b.conds)
	b.q = expr.Query{}
}
