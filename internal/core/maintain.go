package core

import (
	"context"
	"fmt"
	"time"

	"pmv/internal/catalog"
	"pmv/internal/exec"
	"pmv/internal/expr"
	"pmv/internal/keycodec"
	"pmv/internal/obs"
	"pmv/internal/value"
)

// maintIndex is the full-version [25] optimization: an in-memory
// secondary index from each base relation's visible attribute values
// to the entries caching tuples derived from them, so deletes can
// purge cached tuples without computing ΔR ⋈ rest.
//
// The index may over-approximate (two base tuples with identical
// visible attributes share a key), which can purge cached tuples that
// were actually derived from a surviving base tuple. For a PMV this is
// safe — it only loses cache, never correctness — which is exactly why
// the optimization works here but not for full MVs.
type maintIndex struct {
	// relCols: for each template relation with at least one column in
	// Ls′, the positions of those columns within Ls′ rows.
	relCols map[string][]int
	// idx[rel][relKey][entryKey] = number of cached tuples in entry
	// whose rel-columns encode to relKey.
	idx map[string]map[string]map[string]int
}

func newMaintIndex(tpl *expr.Template, selectPlus []expr.ColumnRef) *maintIndex {
	m := &maintIndex{
		relCols: make(map[string][]int),
		idx:     make(map[string]map[string]map[string]int),
	}
	for _, rel := range tpl.Relations {
		var cols []int
		for i, c := range selectPlus {
			if c.Rel == rel {
				cols = append(cols, i)
			}
		}
		if len(cols) > 0 {
			m.relCols[rel] = cols
			m.idx[rel] = make(map[string]map[string]int)
		}
	}
	return m
}

func (m *maintIndex) keyForRow(rel string, t value.Tuple) string {
	cols := m.relCols[rel]
	buf := make([]byte, 0, 16*len(cols))
	for _, c := range cols {
		buf = keycodec.AppendValue(buf, t[c])
	}
	return string(buf)
}

func (m *maintIndex) bump(rel, relKey, entryKey string, delta int) {
	byKey := m.idx[rel]
	ents, ok := byKey[relKey]
	if !ok {
		if delta <= 0 {
			return
		}
		ents = make(map[string]int)
		byKey[relKey] = ents
	}
	ents[entryKey] += delta
	if ents[entryKey] <= 0 {
		delete(ents, entryKey)
		if len(ents) == 0 {
			delete(byKey, relKey)
		}
	}
}

// add indexes one cached tuple.
func (m *maintIndex) add(entryKey string, t value.Tuple) {
	for rel := range m.relCols {
		m.bump(rel, m.keyForRow(rel, t), entryKey, 1)
	}
}

// remove unindexes one cached tuple.
func (m *maintIndex) remove(entryKey string, t value.Tuple) {
	for rel := range m.relCols {
		m.bump(rel, m.keyForRow(rel, t), entryKey, -1)
	}
}

// dropEntry unindexes an entire entry (eviction path).
func (m *maintIndex) dropEntry(entryKey string) {
	// Entries are unindexed tuple-by-tuple where the caller has the
	// tuples; this sweep handles the eviction path where it does not.
	for _, byKey := range m.idx {
		for relKey, ents := range byKey {
			if _, ok := ents[entryKey]; ok {
				delete(ents, entryKey)
				if len(ents) == 0 {
					delete(byKey, relKey)
				}
			}
		}
	}
}

// entriesFor returns the entry keys that may cache tuples derived from
// a base tuple of rel whose visible columns encode to relKey.
func (m *maintIndex) entriesFor(rel, relKey string) []string {
	ents := m.idx[rel][relKey]
	out := make([]string, 0, len(ents))
	for k := range ents {
		out = append(out, k)
	}
	return out
}

// --- engine.ChangeObserver implementation (Section 3.4) ---

// inTemplate reports whether rel is a base relation of the view.
func (v *View) inTemplate(rel string) bool {
	for _, r := range v.cfg.Template.Relations {
		if r == rel {
			return true
		}
	}
	return false
}

// OnInsert implements deferred maintenance for inserts: the paper's
// case (1) — an insert may create new result tuples but cannot
// invalidate cached ones, so the PMV is left untouched.
func (v *View) OnInsert(rel string, _ value.Tuple) error {
	v.NoteInsert(rel)
	return nil
}

// BeforeChange implements engine.ChangeBarrier: a delete/update of one
// of the view's base relations acquires the view's X lock before the
// first heap change, so an in-flight query's S lock (held from O2
// through O3) keeps its read consistent — Section 3.6's protocol.
func (v *View) BeforeChange(rel string) (func(), error) {
	if !v.inTemplate(rel) {
		return nil, nil
	}
	// The X lock cannot degrade: maintenance that skipped the purge
	// would leave the view serving deleted tuples, so exhaustion
	// propagates as an error.
	return v.LockForMaintenance()
}

// OnDelete implements the paper's case (2): cached tuples derived from
// the deleted base tuple must be purged so the view never serves a
// result that no longer exists. The engine holds the view's X lock
// (via BeforeChange) for the duration.
func (v *View) OnDelete(rel string, t value.Tuple) error {
	return v.OnDeleteCtx(context.Background(), rel, t)
}

// OnDeleteCtx is OnDelete with a context, implementing
// engine.CtxChangeObserver so a trace on the mutating statement's
// context records the maintenance purge work it triggered (span:
// tuples purged, index-path flag).
func (v *View) OnDeleteCtx(ctx context.Context, rel string, t value.Tuple) error {
	if !v.inTemplate(rel) {
		return nil
	}
	tr := obs.FromContext(ctx)
	v.mu.Lock()
	v.stats.DeletesSeen++
	// A relation that contributes no Ls′ column has no key in the
	// maintenance index (a join-only relation); its deletes purge
	// through the delta join instead.
	useIdx := v.maint != nil && len(v.maint.relCols[rel]) > 0
	var purgedBefore int64
	if tr != nil {
		purgedBefore = v.stats.TuplesPurged
	}
	v.mu.Unlock()

	start := time.Now()
	var err error
	if useIdx {
		err = v.purgeByIndex(rel, t)
	} else {
		err = v.purgeByJoin(rel, t)
	}
	v.mu.Lock()
	v.stats.MaintTime += time.Since(start)
	if tr != nil {
		idxFlag := int64(0)
		if useIdx {
			idxFlag = 1
		}
		tr.Span(obs.KindMaint, start, v.stats.TuplesPurged-purgedBefore, idxFlag, 0)
	}
	v.mu.Unlock()
	return err
}

// OnUpdate implements the paper's case (3): an update that does not
// touch the relation's attributes appearing in Ls′ or Cjoin cannot
// affect cached tuples and is ignored; otherwise it is handled like a
// deletion of the old tuple. (New result tuples the update creates are
// picked up for free by later queries, like inserts.)
func (v *View) OnUpdate(rel string, old, new value.Tuple) error {
	return v.OnUpdateCtx(context.Background(), rel, old, new)
}

// OnUpdateCtx is OnUpdate with a context for trace propagation (see
// OnDeleteCtx).
func (v *View) OnUpdateCtx(ctx context.Context, rel string, old, new value.Tuple) error {
	changed, err := v.UpdateAffects(rel, old, new)
	if !changed {
		return err
	}
	return v.OnDeleteCtx(ctx, rel, old)
}

// relevantCols returns the base-schema positions of rel's columns that
// appear in Ls′ or in Cjoin (join predicates and fixed predicates).
func (v *View) relevantCols(rel string, r *catalog.Relation) []int {
	seen := make(map[int]bool)
	addName := func(col string) {
		if ci := r.Schema.ColIndex(col); ci >= 0 {
			seen[ci] = true
		}
	}
	for _, c := range v.selectPlus {
		if c.Rel == rel {
			addName(c.Col)
		}
	}
	for _, j := range v.cfg.Template.Join {
		if j.Left.Rel == rel {
			addName(j.Left.Col)
		}
		if j.Right.Rel == rel {
			addName(j.Right.Col)
		}
	}
	for _, f := range v.cfg.Template.Fixed {
		if f.Col.Rel == rel {
			addName(f.Col.Col)
		}
	}
	out := make([]int, 0, len(seen))
	for ci := range seen {
		out = append(out, ci)
	}
	return out
}

// purgeByIndex removes cached tuples matching the deleted base tuple
// using the in-memory maintenance index — "cheap in-memory operations"
// (Section 4.3). rel must contribute at least one Ls′ column.
func (v *View) purgeByIndex(rel string, base value.Tuple) error {
	r, err := v.eng.Catalog().GetRelation(rel)
	if err != nil {
		return err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	cols := v.maint.relCols[rel]
	// Build the relation key from the base tuple: the visible columns'
	// values, in the same Ls′ order the index uses.
	buf := make([]byte, 0, 16*len(cols))
	baseVals := make([]value.Value, len(cols))
	for i, c := range cols {
		ref := v.selectPlus[c]
		bi := r.Schema.ColIndex(ref.Col)
		if bi < 0 {
			return fmt.Errorf("core: relation %s has no column %s", rel, ref.Col)
		}
		baseVals[i] = base[bi]
		buf = keycodec.AppendValue(buf, base[bi])
	}
	relKey := string(buf)

	for _, entryKey := range v.maint.entriesFor(rel, relKey) {
		e, ok := v.entries[entryKey]
		if !ok {
			v.maint.dropEntry(entryKey) // stale ref
			continue
		}
		kept := e.tuples[:0]
		for _, t := range e.tuples {
			match := true
			for i, c := range cols {
				if !value.Equal(t[c], baseVals[i]) {
					match = false
					break
				}
			}
			if match {
				v.maint.remove(entryKey, t)
				v.stats.TuplesPurged++
			} else {
				kept = append(kept, t)
			}
		}
		e.tuples = kept
	}
	return nil
}

// purgeByJoin removes cached tuples by computing ΔR ⋈ (other base
// relations) and probing the view with each join result — the paper's
// base maintenance algorithm when no maintenance index exists.
func (v *View) purgeByJoin(rel string, base value.Tuple) error {
	rows, err := v.deltaJoin(rel, []value.Tuple{base})
	if err != nil {
		return err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, jt := range rows {
		key := v.coder.KeyFromCondValues(v.condValues(jt))
		e, ok := v.entries[key]
		if !ok {
			continue
		}
		for i, t := range e.tuples {
			if value.CompareTuples(t, jt) == 0 {
				e.tuples = append(e.tuples[:i], e.tuples[i+1:]...)
				v.stats.TuplesPurged++
				break // one join row invalidates one cached occurrence
			}
		}
	}
	return nil
}

// deltaJoin joins delta rows of rel (full base schema) with the other
// template relations under Cjoin and the fixed predicates, projecting
// Ls′.
func (v *View) deltaJoin(rel string, delta []value.Tuple) ([]value.Tuple, error) {
	tpl := v.cfg.Template
	cat := v.eng.Catalog()
	dr, err := cat.GetRelation(rel)
	if err != nil {
		return nil, err
	}
	schema := execQualify(dr, rel)
	var root exec.Iterator = exec.NewSliceIter(delta)

	// Fixed predicates on the delta relation.
	var preds []exec.Pred
	for _, f := range tpl.Fixed {
		if f.Col.Rel == rel {
			p, err := fixedPred(schema, f)
			if err != nil {
				return nil, err
			}
			preds = append(preds, p)
		}
	}
	if p := andPred(preds); p != nil {
		root = &exec.Filter{Child: root, Pred: p}
	}

	joined := map[string]bool{rel: true}
	usedJoin := make([]bool, len(tpl.Join))
	remaining := make([]string, 0, len(tpl.Relations)-1)
	for _, rn := range tpl.Relations {
		if rn != rel {
			remaining = append(remaining, rn)
		}
	}
	for _, relName := range remaining {
		r, err := cat.GetRelation(relName)
		if err != nil {
			return nil, err
		}
		relSchema := execQualify(r, relName)
		newSchema := schema.Concat(relSchema)

		linkIdx := -1
		var outerRef, innerRef expr.ColumnRef
		for ji, jp := range tpl.Join {
			if usedJoin[ji] {
				continue
			}
			switch {
			case joined[jp.Left.Rel] && jp.Right.Rel == relName:
				linkIdx, outerRef, innerRef = ji, jp.Left, jp.Right
			case joined[jp.Right.Rel] && jp.Left.Rel == relName:
				linkIdx, outerRef, innerRef = ji, jp.Right, jp.Left
			}
			if linkIdx >= 0 {
				break
			}
		}

		var resid []exec.Pred
		for _, f := range tpl.Fixed {
			if f.Col.Rel == relName {
				p, err := fixedPred(newSchema, f)
				if err != nil {
					return nil, err
				}
				resid = append(resid, p)
			}
		}
		for ji, jp := range tpl.Join {
			if usedJoin[ji] || ji == linkIdx {
				continue
			}
			if (joined[jp.Left.Rel] || jp.Left.Rel == relName) &&
				(joined[jp.Right.Rel] || jp.Right.Rel == relName) {
				p, err := joinPred(newSchema, jp)
				if err != nil {
					return nil, err
				}
				resid = append(resid, p)
				usedJoin[ji] = true
			}
		}
		residP := andPred(resid)

		if linkIdx >= 0 {
			usedJoin[linkIdx] = true
			outerPos, err := schema.MustIndex(outerRef)
			if err != nil {
				return nil, err
			}
			innerCol := r.Schema.ColIndex(innerRef.Col)
			if ix := r.IndexOn(innerCol); ix != nil {
				root = &exec.IndexJoin{Outer: root, OuterCol: outerPos, Inner: r, InnerIdx: ix, Residual: residP}
			} else {
				jp, err := joinPred(newSchema, expr.JoinPred{Left: outerRef, Right: innerRef})
				if err != nil {
					return nil, err
				}
				all := append([]exec.Pred{jp}, resid...)
				root = &exec.NestedLoopJoin{Left: root, Right: &exec.SeqScan{Rel: r}, On: andPred(all)}
			}
		} else {
			root = &exec.NestedLoopJoin{Left: root, Right: &exec.SeqScan{Rel: r}, On: residP}
		}
		schema = newSchema
		joined[relName] = true
	}

	positions := make([]int, len(v.selectPlus))
	for i, c := range v.selectPlus {
		p, err := schema.MustIndex(c)
		if err != nil {
			return nil, err
		}
		positions[i] = p
	}
	var out []value.Tuple
	err = exec.ForEach(&exec.Project{Child: root, Cols: positions}, func(t value.Tuple) error {
		out = append(out, t)
		return nil
	})
	return out, err
}

// Helpers shared with the planner shape (duplicated here to keep exec
// free of core types).

func execQualify(r *catalog.Relation, as string) exec.RowSchema {
	cols := make([]expr.ColumnRef, len(r.Schema.Columns))
	for i, c := range r.Schema.Columns {
		cols[i] = expr.ColumnRef{Rel: as, Col: c.Name}
	}
	return exec.RowSchema{Cols: cols}
}

func fixedPred(s exec.RowSchema, f expr.FixedPred) (exec.Pred, error) {
	pos, err := s.MustIndex(f.Col)
	if err != nil {
		return nil, err
	}
	return func(t value.Tuple) bool { return f.Op.Eval(t[pos], f.Val) }, nil
}

func joinPred(s exec.RowSchema, jp expr.JoinPred) (exec.Pred, error) {
	l, err := s.MustIndex(jp.Left)
	if err != nil {
		return nil, err
	}
	rr, err := s.MustIndex(jp.Right)
	if err != nil {
		return nil, err
	}
	return func(t value.Tuple) bool { return value.Equal(t[l], t[rr]) }, nil
}

func andPred(ps []exec.Pred) exec.Pred {
	switch len(ps) {
	case 0:
		return nil
	case 1:
		return ps[0]
	default:
		return func(t value.Tuple) bool {
			for _, p := range ps {
				if !p(t) {
					return false
				}
			}
			return true
		}
	}
}
