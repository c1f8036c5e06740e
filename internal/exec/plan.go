package exec

import (
	"fmt"
	"math"
	"strings"

	"pmv/internal/catalog"
	"pmv/internal/expr"
	"pmv/internal/value"
)

// Plan is a compiled query: a root iterator producing rows of the
// concatenated base-relation schema (every column of every relation,
// qualified; Schema gives the order the plan joined them in).
type Plan struct {
	Root   Iterator
	Schema RowSchema

	// keyJoin is the plan's KeyJoin, whose rows are the first columns of
	// Schema, or nil; reads lists the row positions the plan's compiled
	// predicates and joins read. Narrow uses both.
	keyJoin *KeyJoin
	reads   []int
}

// Narrow limits what the plan decodes to what is read. cols are the
// positions of every column the caller reads of the rows Root yields.
// The key-only join's rows then carry only those columns and the ones
// the plan's own predicates and joins read; every other column of its
// rows is NULL. A side whose index holds every such column of it is
// then decoded from its index entries instead of its heap (see
// KeyJoin). Call it before the plan is opened. A plan without a
// KeyJoin decodes whole rows either way.
func (p *Plan) Narrow(cols []int) {
	kj := p.keyJoin
	if kj == nil {
		return
	}
	nl := len(kj.Left.Rel.Schema.Columns)
	mask := make([]bool, nl+len(kj.Right.Rel.Schema.Columns))
	for _, pos := range [2][]int{p.reads, cols} {
		for _, c := range pos {
			if c < len(mask) {
				mask[c] = true
			}
		}
	}
	kj.Left.Cols, kj.Right.Cols = mask[:nl], mask[nl:]
}

// String renders the plan one operator per line, children indented
// under their parent, each access path with the index it uses.
func (p *Plan) String() string {
	var sb strings.Builder
	explain(&sb, p.Root, 0)
	return sb.String()
}

func explain(sb *strings.Builder, it Iterator, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	var children []Iterator
	switch op := it.(type) {
	case *SeqScan:
		fmt.Fprintf(sb, "SeqScan %s", op.Rel.Name)
	case *IndexScan:
		fmt.Fprintf(sb, "IndexScan %s via %s", op.Rel.Name, op.Index.Name)
	case *Filter:
		sb.WriteString("Filter")
		children = []Iterator{op.Child}
	case *IndexJoin:
		fmt.Fprintf(sb, "IndexJoin %s via %s", op.Inner.Name, op.InnerIdx.Name)
		children = []Iterator{op.Outer}
	case *KeyJoin:
		fmt.Fprintf(sb, "KeyJoin %s via %s, %s via %s",
			op.Left.Rel.Name, op.Left.Index.Name, op.Right.Rel.Name, op.Right.Index.Name)
	case *NestedLoopJoin:
		sb.WriteString("NestedLoopJoin")
		children = []Iterator{op.Left, op.Right}
	default:
		fmt.Fprintf(sb, "%T", it)
	}
	sb.WriteByte('\n')
	for _, c := range children {
		explain(sb, c, depth+1)
	}
}

// Page-count estimates the planner compares plans by. They only have to
// rank a plan that reads tens of pages against one that reads hundreds.
const (
	// descentPages is what one index probe costs before its first entry:
	// the inner levels and the leaf, for trees of a few thousand pages.
	descentPages = 2
	// leafEntries is how many entries a leaf of a one- or two-column
	// index holds at the fill splits leave behind.
	leafEntries = 200
)

// planner holds what every stage of PlanQuery reads.
type planner struct {
	tpl  *expr.Template
	q    *expr.Query
	rels []*catalog.Relation
	// conds lists, per relation, the template's condition indexes on it.
	conds [][]int
	// stats is true when every relation has ANALYZE statistics; without
	// them nothing is costed and the declared order is kept.
	stats bool
	// ranges memoizes each condition's index key ranges (rangesOf), which
	// both candidate plans read.
	ranges [][]KeyRange
}

// subplan is a plan under construction: the relations joined so far and
// the estimated rows it yields and pages it reads.
type subplan struct {
	root        Iterator
	schema      RowSchema
	joined      map[string]bool
	usedJoin    []bool
	rows, pages float64
	// keyJoin and reads become the Plan's fields of the same names.
	keyJoin *KeyJoin
	reads   []int
}

// col resolves ref in sp's row schema and records that the plan reads
// it. Positions stay valid as the plan grows: every join appends its
// relation's columns to the right of the schema so far.
func (sp *subplan) col(ref expr.ColumnRef) (int, error) {
	pos, err := sp.schema.MustIndex(ref)
	if err == nil {
		sp.reads = append(sp.reads, pos)
	}
	return pos, err
}

// PlanQuery compiles a bound template query into an index-driven plan.
// The default is the one the paper describes: index access on the
// driving relation's selection attribute, index nested-loop joins in
// template order, residual filters for everything else; sequential
// scans and in-memory joins where an index is missing keep the planner
// total. When two joined relations both carry a condition and each has
// a composite index keyed (condition column, join column), a KeyJoin
// over the two is planned as well and the plan with the lower estimated
// page count runs. What the catalog holds decides; there is no switch.
func PlanQuery(cat *catalog.Catalog, q *expr.Query) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	p := &planner{tpl: q.Template, q: q, stats: true}
	p.rels = make([]*catalog.Relation, len(p.tpl.Relations))
	for i, name := range p.tpl.Relations {
		r, err := cat.GetRelation(name)
		if err != nil {
			return nil, err
		}
		p.rels[i] = r
		if r.Stats == nil {
			p.stats = false
		}
	}
	p.conds = make([][]int, len(p.rels))
	p.ranges = make([][]KeyRange, len(p.tpl.Conds))
	for ci, c := range p.tpl.Conds {
		if ri := p.relIndex(c.Col.Rel); ri >= 0 {
			p.conds[ri] = append(p.conds[ri], ci)
		}
	}
	best, err := p.startDriver()
	if err != nil {
		return nil, err
	}
	if err := p.joinRest(best); err != nil {
		return nil, err
	}
	kj, err := p.startKeyJoin()
	if err != nil {
		return nil, err
	}
	if kj != nil {
		if err := p.joinRest(kj); err != nil {
			return nil, err
		}
		if kj.pages < best.pages {
			best = kj
		}
	}
	return &Plan{Root: best.root, Schema: best.schema, keyJoin: best.keyJoin, reads: best.reads}, nil
}

func (p *planner) newSubplan() *subplan {
	return &subplan{joined: make(map[string]bool), usedJoin: make([]bool, len(p.tpl.Join))}
}

// colOf resolves a column of relation ri to its position.
func (p *planner) colOf(ri int, col string) (int, error) {
	if c := p.rels[ri].Schema.ColIndex(col); c >= 0 {
		return c, nil
	}
	return -1, fmt.Errorf("exec: %s has no column %s", p.tpl.Relations[ri], col)
}

// condSel estimates the fraction of relation ri's rows that bound
// condition ci keeps.
func (p *planner) condSel(ri, ci int) float64 {
	rel := p.rels[ri]
	colIdx := rel.Schema.ColIndex(p.tpl.Conds[ci].Col.Col)
	if colIdx < 0 {
		return 1
	}
	if p.tpl.Conds[ci].Form == expr.EqualityForm {
		return rel.EqSelectivity(colIdx, len(p.q.Conds[ci].Values))
	}
	s := 0.0
	for _, iv := range p.q.Conds[ci].Intervals {
		s += rel.RangeSelectivity(colIdx, iv.Lo, iv.Hi)
	}
	return math.Min(s, 1)
}

// sel is the combined selectivity of relation ri's conditions, leaving
// out condition skip (-1 for none).
func (p *planner) sel(ri, skip int) float64 {
	s := 1.0
	for _, ci := range p.conds[ri] {
		if ci != skip {
			s *= p.condSel(ri, ci)
		}
	}
	return s
}

// rowCount and distinct read the statistics; both are only called when
// p.stats holds.
func (p *planner) rowCount(ri int) float64 { return float64(p.rels[ri].Stats.RowCount) }

func (p *planner) distinct(ri, col int) float64 {
	return math.Max(float64(p.rels[ri].Stats.Cols[col].NDistinct), 1)
}

// rangesOf returns condition ci's index key ranges, computed once per
// query.
func (p *planner) rangesOf(ci int) []KeyRange {
	if p.ranges[ci] == nil {
		p.ranges[ci] = rangesFor(p.tpl.Conds[ci].Form, p.q.Conds[ci])
	}
	return p.ranges[ci]
}

// relPreds compiles relation ri's conditions (except skip) and fixed
// predicates against sp's schema.
func (p *planner) relPreds(sp *subplan, ri, skip int) ([]Pred, error) {
	var preds []Pred
	for _, ci := range p.conds[ri] {
		if ci == skip {
			continue
		}
		pr, err := condPred(sp, p.tpl.Conds[ci], p.q.Conds[ci])
		if err != nil {
			return nil, err
		}
		preds = append(preds, pr)
	}
	for _, f := range p.tpl.Fixed {
		if f.Col.Rel != p.tpl.Relations[ri] {
			continue
		}
		pr, err := fixedPredFn(sp, f)
		if err != nil {
			return nil, err
		}
		preds = append(preds, pr)
	}
	return preds, nil
}

// boundJoinPreds compiles, and marks used, every unused join predicate
// other than link whose two relations are both in sp.joined.
func (p *planner) boundJoinPreds(sp *subplan, link int) ([]Pred, error) {
	var preds []Pred
	for ji, jp := range p.tpl.Join {
		if sp.usedJoin[ji] || ji == link || !sp.joined[jp.Left.Rel] || !sp.joined[jp.Right.Rel] {
			continue
		}
		pr, err := joinPredFn(sp, jp)
		if err != nil {
			return nil, err
		}
		preds = append(preds, pr)
		sp.usedJoin[ji] = true
	}
	return preds, nil
}

// startDriver opens the paper's plan: the driving relation read through
// an index on one of its conditions (or scanned), its other predicates
// as a filter.
func (p *planner) startDriver() (*subplan, error) {
	// Driver choice: with statistics (ANALYZE), start from the
	// relation whose bound conditions leave the fewest expected rows;
	// without statistics, keep the template's declared order.
	di := p.chooseDriver()
	driver, name := p.rels[di], p.tpl.Relations[di]
	sp := p.newSubplan()
	sp.schema = qualify(driver, name)
	sp.joined[name] = true
	usedCond := -1
	for _, ci := range p.conds[di] {
		colIdx, err := p.colOf(di, p.tpl.Conds[ci].Col.Col)
		if err != nil {
			return nil, err
		}
		ix := driver.IndexOn(colIdx)
		if ix == nil {
			continue
		}
		ranges := p.rangesOf(ci)
		sp.root = &IndexScan{Rel: driver, Index: ix, Ranges: ranges}
		usedCond = ci
		if p.stats {
			sp.rows = p.rowCount(di) * p.condSel(di, ci)
			sp.pages = float64(len(ranges))*descentPages + sp.rows/leafEntries + sp.rows
		}
		break
	}
	if sp.root == nil {
		sp.root = &SeqScan{Rel: driver}
		if p.stats {
			sp.rows = p.rowCount(di)
			sp.pages = float64(driver.Heap.NumPages())
		}
	}
	preds, err := p.relPreds(sp, di, usedCond)
	if err != nil {
		return nil, err
	}
	sp.root = applyPreds(sp.root, preds)
	if p.stats {
		sp.rows *= p.sel(di, usedCond)
	}
	return sp, nil
}

// keyInput is one side of a candidate KeyJoin: the relation a join
// predicate's column belongs to, read through a composite index whose
// key starts (condition column, join column).
type keyInput struct {
	KeySide
	ri, cond, joinCol int     // relation, its index condition, its join column
	scanned           float64 // index entries the bound ranges cover, estimated
	// covers is true when the index holds every column of the relation
	// the template reads, and so every column Plan.Narrow marks for the
	// side when the caller projects the template's columns.
	covers bool
}

// keyInput resolves one end of a join predicate to a KeyJoin side, or
// nil when its relation has no condition with a composite index that
// starts (condition column, join column). Of several such indexes it
// takes one that covers the side (see keyInput.covers), and of those,
// or of none, the one with the fewest columns.
func (p *planner) keyInput(ref expr.ColumnRef) (*keyInput, error) {
	ri := p.relIndex(ref.Rel)
	if ri < 0 {
		return nil, nil
	}
	joinCol, err := p.colOf(ri, ref.Col)
	if err != nil {
		return nil, err
	}
	rel := p.rels[ri]
	var buf [16]int
	read := buf[:0]
	p.tpl.EachColumn(func(c expr.ColumnRef) {
		if c.Rel == ref.Rel {
			read = append(read, rel.Schema.ColIndex(c.Col))
		}
	})
	for _, ci := range p.conds[ri] {
		key := []int{rel.Schema.ColIndex(p.tpl.Conds[ci].Col.Col), joinCol}
		ix, covers := rel.CoveringIndex(key, read), true
		if ix == nil {
			ix, covers = rel.CoveringIndex(key, nil), false
		}
		if ix == nil {
			continue
		}
		return &keyInput{
			KeySide: KeySide{Rel: rel, Index: ix, Ranges: p.rangesOf(ci)},
			ri:      ri, cond: ci, joinCol: joinCol,
			scanned: p.rowCount(ri) * p.condSel(ri, ci),
			covers:  covers,
		}, nil
	}
	return nil, nil
}

// startKeyJoin opens the key-only plan, or returns nil when it does not
// apply: it needs statistics to be costed, a join predicate whose two
// relations both carry a condition, a composite index keyed (condition
// column, join column) on each side, and join columns of one type — the
// operator compares encoded key bytes, and keycodec encodes Int 1 and
// Float 1.0 differently although value.Equal calls them equal.
func (p *planner) startKeyJoin() (*subplan, error) {
	if !p.stats {
		return nil, nil
	}
	for ji, jp := range p.tpl.Join {
		l, err := p.keyInput(jp.Left)
		if err != nil {
			return nil, err
		}
		if l == nil {
			continue
		}
		r, err := p.keyInput(jp.Right)
		if err != nil {
			return nil, err
		}
		if r == nil || l.ri == r.ri ||
			l.Rel.Schema.Columns[l.joinCol].Type != r.Rel.Schema.Columns[r.joinCol].Type {
			continue
		}
		if r.ri < l.ri { // rows concatenate in template order
			l, r = r, l
		}
		sp := p.newSubplan()
		sp.usedJoin[ji] = true
		matches := l.scanned * r.scanned / math.Max(p.distinct(l.ri, l.joinCol), p.distinct(r.ri, r.joinCol))
		sp.rows = matches

		// Residuals: every condition is re-checked on the fetched rows,
		// the indexed ones included, and so is the join predicate — a
		// row may have moved or changed between the index scan and the
		// fetch; then what the IndexJoin plan would filter on.
		var resid []Pred
		for _, in := range []*keyInput{l, r} {
			name := p.tpl.Relations[in.ri]
			sp.schema = sp.schema.Concat(qualify(in.Rel, name))
			sp.joined[name] = true
			sp.pages += float64(len(in.Ranges))*descentPages + in.scanned/leafEntries
			if !in.covers {
				sp.pages += matches // one heap row per match
			}
			sp.rows *= p.sel(in.ri, in.cond)
		}
		for _, in := range []*keyInput{l, r} {
			preds, err := p.relPreds(sp, in.ri, -1)
			if err != nil {
				return nil, err
			}
			resid = append(resid, preds...)
		}
		link, err := joinPredFn(sp, jp)
		if err != nil {
			return nil, err
		}
		more, err := p.boundJoinPreds(sp, ji)
		if err != nil {
			return nil, err
		}
		sp.keyJoin = &KeyJoin{
			Left: l.KeySide, Right: r.KeySide,
			BuildRight: r.scanned < l.scanned,
			Residual:   andPreds(append(append(resid, link), more...)),
		}
		sp.root = sp.keyJoin
		return sp, nil
	}
	return nil, nil
}

func (p *planner) relIndex(name string) int {
	for i, n := range p.tpl.Relations {
		if n == name {
			return i
		}
	}
	return -1
}

// joinRest joins the relations sp has not reached yet, preferring ones
// reachable from the joined set through a join predicate (template
// order breaks ties), and adds what that costs to sp's estimate.
func (p *planner) joinRest(sp *subplan) error {
	tpl := p.tpl
	var remaining []int
	for i, name := range tpl.Relations {
		if !sp.joined[name] {
			remaining = append(remaining, i)
		}
	}
	for len(remaining) > 0 {
		pick := 0
		for pi, ri := range remaining {
			if connectsTo(tpl, sp.usedJoin, sp.joined, tpl.Relations[ri]) {
				pick = pi
				break
			}
		}
		ri := remaining[pick]
		remaining = append(remaining[:pick], remaining[pick+1:]...)
		relName := tpl.Relations[ri]
		rel := p.rels[ri]
		outerSchema := sp.schema

		// Find a join predicate linking the joined set to rel.
		linkIdx := -1
		var outerRef, innerRef expr.ColumnRef
		for ji, jp := range tpl.Join {
			if sp.usedJoin[ji] {
				continue
			}
			switch {
			case sp.joined[jp.Left.Rel] && jp.Right.Rel == relName:
				linkIdx, outerRef, innerRef = ji, jp.Left, jp.Right
			case sp.joined[jp.Right.Rel] && jp.Left.Rel == relName:
				linkIdx, outerRef, innerRef = ji, jp.Right, jp.Left
			}
			if linkIdx >= 0 {
				break
			}
		}

		// Residuals for this relation: its conditions, fixed predicates,
		// and any further join predicates now fully bound.
		sp.schema = outerSchema.Concat(qualify(rel, relName))
		sp.joined[relName] = true
		resid, err := p.relPreds(sp, ri, -1)
		if err != nil {
			return err
		}
		more, err := p.boundJoinPreds(sp, linkIdx)
		if err != nil {
			return err
		}
		resid = append(resid, more...)

		if linkIdx < 0 {
			// No join predicate reaches rel yet: cross join + residuals.
			sp.root = &NestedLoopJoin{Left: sp.root, Right: &SeqScan{Rel: rel}, On: andPreds(resid)}
			if p.stats {
				sp.pages += float64(rel.Heap.NumPages())
				sp.rows *= p.rowCount(ri) * p.sel(ri, -1)
			}
			continue
		}
		sp.usedJoin[linkIdx] = true
		outerPos, err := sp.col(outerRef)
		if err != nil {
			return err
		}
		innerCol, err := p.colOf(ri, innerRef.Col)
		if err != nil {
			return err
		}
		if ix := rel.IndexOn(innerCol); ix != nil {
			sp.root = &IndexJoin{
				Outer: sp.root, OuterCol: outerPos,
				Inner: rel, InnerIdx: ix,
				Residual: andPreds(resid),
			}
			if p.stats {
				fanout := p.rowCount(ri) / p.distinct(ri, innerCol)
				sp.pages += sp.rows * (descentPages + fanout)
				sp.rows *= fanout * p.sel(ri, -1)
			}
			continue
		}
		jpPred, err := joinPredFn(sp, expr.JoinPred{Left: outerRef, Right: innerRef})
		if err != nil {
			return err
		}
		sp.root = &NestedLoopJoin{
			Left: sp.root, Right: &SeqScan{Rel: rel},
			On: andPreds(append([]Pred{jpPred}, resid...)),
		}
		if p.stats {
			sp.pages += float64(rel.Heap.NumPages())
			sp.rows *= p.rowCount(ri) / p.distinct(ri, innerCol) * p.sel(ri, -1)
		}
	}
	return nil
}

// connectsTo reports whether an unused join predicate links relName to
// the already-joined set.
func connectsTo(tpl *expr.Template, usedJoin []bool, joined map[string]bool, relName string) bool {
	for ji, jp := range tpl.Join {
		if usedJoin[ji] {
			continue
		}
		if (joined[jp.Left.Rel] && jp.Right.Rel == relName) ||
			(joined[jp.Right.Rel] && jp.Left.Rel == relName) {
			return true
		}
	}
	return false
}

// chooseDriver scores each relation by its expected driving-row count
// (row count × the combined selectivity of its bound conditions, per
// ANALYZE statistics) and returns the index of the cheapest. Relations
// without statistics score by template position, so an un-analyzed
// database keeps the declared order.
func (p *planner) chooseDriver() int {
	if !p.stats {
		return 0 // incomplete statistics: keep the declared order
	}
	best, bestScore := 0, -1.0
	for i := range p.rels {
		if len(p.conds[i]) == 0 {
			continue // nothing to drive with
		}
		score := p.rowCount(i) * p.sel(i, -1)
		if bestScore < 0 || score < bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// rangesFor converts one bound condition into index key ranges.
func rangesFor(form expr.CondForm, ci expr.CondInstance) []KeyRange {
	var out []KeyRange
	if form == expr.EqualityForm {
		for _, v := range ci.Values {
			out = append(out, EqKeyRange(v))
		}
		return out
	}
	for _, iv := range ci.Intervals {
		out = append(out, IntervalKeyRange(iv))
	}
	return out
}

// condPred compiles one bound selection condition against sp's schema.
func condPred(sp *subplan, ct expr.CondTemplate, ci expr.CondInstance) (Pred, error) {
	pos, err := sp.col(ct.Col)
	if err != nil {
		return nil, err
	}
	form := ct.Form
	return func(t value.Tuple) bool { return ci.Matches(form, t[pos]) }, nil
}

func fixedPredFn(sp *subplan, f expr.FixedPred) (Pred, error) {
	pos, err := sp.col(f.Col)
	if err != nil {
		return nil, err
	}
	return func(t value.Tuple) bool { return f.Op.Eval(t[pos], f.Val) }, nil
}

func joinPredFn(sp *subplan, jp expr.JoinPred) (Pred, error) {
	l, err := sp.col(jp.Left)
	if err != nil {
		return nil, err
	}
	r, err := sp.col(jp.Right)
	if err != nil {
		return nil, err
	}
	return func(t value.Tuple) bool { return value.Equal(t[l], t[r]) }, nil
}

func andPreds(ps []Pred) Pred {
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

func applyPreds(it Iterator, ps []Pred) Iterator {
	if p := andPreds(ps); p != nil {
		return &Filter{Child: it, Pred: p}
	}
	return it
}
