package exec

import (
	"fmt"
	"math"
	"slices"
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
	// predicates and joins read; checks is the KeyJoin's residual, check
	// by check, with what makes each redundant. Narrow uses all three.
	keyJoin *KeyJoin
	reads   []int
	checks  []residCheck

	// bind holds the condition instances the plan's compiled condition
	// predicates read, and slots the operators' key ranges; bindQuery
	// rewrites both for a query.
	bind  *binding
	slots []rangeSlot
}

// binding is the bound values of one plan: per template condition, the
// query's instance. The plan's condition predicates read it, so one
// compiled plan serves every query bound to it.
type binding struct {
	forms []expr.CondForm
	conds []expr.CondInstance
}

// rangeSlot is one operator's key ranges over condition cond's column.
type rangeSlot struct {
	cond   int
	ranges *[]KeyRange
}

// residCheck is one check of a KeyJoin's residual. proves names the
// sides (bit 0 Left, bit 1 Right) whose index entries prove it: once
// Narrow makes each of them covered, their rows are decoded from the
// very entries the key ranges selected and the join intersected, and
// the check cannot fail. 0 means no entry proves it.
type residCheck struct {
	pred   Pred
	proves uint8
}

// bindQuery writes q's condition instances into the plan: the values
// its predicates compare with and the key ranges its index scans read.
// q must instantiate the template the plan was built for, with as many
// values (or intervals) per condition as its binding class (see
// Prepared); PlanQuery's plan is bound to its own query. The ranges'
// buffers are reused, so rebinding a warm plan allocates nothing.
func (p *Plan) bindQuery(q *expr.Query) {
	copy(p.bind.conds, q.Conds)
	for _, sl := range p.slots {
		*sl.ranges = appendRanges((*sl.ranges)[:0], p.bind.forms[sl.cond], q.Conds[sl.cond])
	}
}

// unbind drops the references bindQuery took to the query's values.
func (p *Plan) unbind() { clear(p.bind.conds) }

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

	var covered uint8
	if kj.Left.covered() {
		covered |= 1
	}
	if kj.Right.covered() {
		covered |= 2
	}
	var kept, all []Pred
	for _, c := range p.checks {
		all = append(all, c.pred)
		if c.proves == 0 || c.proves&covered != c.proves {
			kept = append(kept, c.pred)
		}
	}
	kj.Residual, kj.recheck = andPreds(kept), nil
	if len(kept) < len(all) {
		kj.recheck = andPreds(all)
	}
	kj.segs = nil
	if p.Root == kj && kj.Residual == nil && covered == 3 {
		kj.segs = make([]keySeg, len(cols))
		for i, c := range cols {
			side, col := uint8(0), c
			if c >= nl {
				side, col = 1, c-nl
			}
			kj.segs[i] = keySeg{side: side, ord: uint8(slices.Index(kj.side(side).Index.Cols, col))}
		}
	}
}

// BuildRight reports whether the plan is a key-only join that hashes
// its right side (see KeyJoin.BuildRight).
func (p *Plan) BuildRight() bool { return p.keyJoin != nil && p.keyJoin.BuildRight }

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
	// both candidate plans read; nil for a planner with fixed choices,
	// whose plan is bound later.
	ranges [][]KeyRange
	// bind is the binding every compiled predicate of the plan reads.
	bind *binding
	// fix, when non-nil, holds the choices a previous planning made, and
	// nothing is costed (see Prepared).
	fix *choices
}

// choices are the decisions the planner takes from the cost model: the
// paper plan's driving relation, whether the key-only plan runs, and
// its build side. Everything else follows from the template and the
// catalog.
type choices struct {
	driver     int
	keyJoin    bool
	buildRight bool
}

// subplan is a plan under construction: the relations joined so far and
// the estimated rows it yields and pages it reads.
type subplan struct {
	root        Iterator
	schema      RowSchema
	joined      map[string]bool
	usedJoin    []bool
	rows, pages float64
	// keyJoin, reads, checks and slots become the Plan's fields of the
	// same names; buildRight is the key-only plan's build side.
	keyJoin    *KeyJoin
	reads      []int
	checks     []residCheck
	slots      []rangeSlot
	buildRight bool
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
// over the two is planned as well; with statistics the plan with the
// lower estimated page count runs, without them the KeyJoin does. What
// the catalog holds decides; there is no switch.
func PlanQuery(cat *catalog.Catalog, q *expr.Query) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	plan, _, err := planFor(cat, q.Template, q, nil)
	if err != nil {
		return nil, err
	}
	plan.bindQuery(q)
	return plan, nil
}

// planFor plans tpl: costed with q's values when fix is nil, else with
// fix's choices and nothing costed (q is then unused). It returns the
// plan, unbound, and the choices it took.
func planFor(cat *catalog.Catalog, tpl *expr.Template, q *expr.Query, fix *choices) (*Plan, choices, error) {
	p := &planner{tpl: tpl, q: q, stats: true, fix: fix}
	p.bind = &binding{forms: make([]expr.CondForm, len(tpl.Conds)), conds: make([]expr.CondInstance, len(tpl.Conds))}
	for i, c := range tpl.Conds {
		p.bind.forms[i] = c.Form
	}
	p.rels = make([]*catalog.Relation, len(p.tpl.Relations))
	for i, name := range p.tpl.Relations {
		r, err := cat.GetRelation(name)
		if err != nil {
			return nil, choices{}, err
		}
		p.rels[i] = r
		if r.Stats == nil {
			p.stats = false
		}
	}
	if fix != nil {
		p.stats = false
	}
	p.conds = make([][]int, len(p.rels))
	p.ranges = make([][]KeyRange, len(p.tpl.Conds))
	for ci, c := range p.tpl.Conds {
		if ri := p.relIndex(c.Col.Rel); ri >= 0 {
			p.conds[ri] = append(p.conds[ri], ci)
		}
	}
	var best *subplan
	if fix == nil || !fix.keyJoin {
		var err error
		if best, err = p.startDriver(); err != nil {
			return nil, choices{}, err
		}
		if err := p.joinRest(best); err != nil {
			return nil, choices{}, err
		}
	}
	if fix == nil || fix.keyJoin {
		kj, err := p.startKeyJoin()
		if err != nil {
			return nil, choices{}, err
		}
		if kj != nil {
			if err := p.joinRest(kj); err != nil {
				return nil, choices{}, err
			}
			if best == nil || !p.stats || kj.pages < best.pages {
				best = kj
			}
		}
	}
	if best == nil {
		return nil, choices{}, fmt.Errorf("exec: the key-only plan of %s no longer applies", tpl.Name)
	}
	plan := &Plan{Root: best.root, Schema: best.schema, keyJoin: best.keyJoin, reads: best.reads,
		checks: best.checks, bind: p.bind, slots: best.slots}
	return plan, choices{driver: p.chooseDriver(), keyJoin: best.keyJoin != nil, buildRight: best.buildRight}, nil
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
	if p.fix == nil && p.ranges[ci] == nil {
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
		pr, err := p.condPred(sp, ci)
		if err != nil {
			return nil, err
		}
		preds = append(preds, pr)
	}
	fixed, err := p.fixedPreds(sp, ri)
	if err != nil {
		return nil, err
	}
	return append(preds, fixed...), nil
}

// fixedPreds compiles relation ri's fixed predicates against sp's
// schema.
func (p *planner) fixedPreds(sp *subplan, ri int) ([]Pred, error) {
	var preds []Pred
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
		scan := &IndexScan{Rel: driver, Index: ix, Ranges: ranges}
		sp.root = scan
		sp.slots = append(sp.slots, rangeSlot{cond: ci, ranges: &scan.Ranges})
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
		in := &keyInput{
			KeySide: KeySide{Rel: rel, Index: ix, Ranges: p.rangesOf(ci)},
			ri:      ri, cond: ci, joinCol: joinCol,
			covers: covers,
		}
		if p.stats {
			in.scanned = p.rowCount(ri) * p.condSel(ri, ci)
		}
		return in, nil
	}
	return nil, nil
}

// startKeyJoin opens the key-only plan, or returns nil when it does not
// apply: it needs a join predicate whose two relations both carry a
// condition, a composite index keyed (condition column, join column) on
// each side, and join columns of one type — the operator compares
// encoded key bytes, and keycodec encodes Int 1 and Float 1.0
// differently although value.Equal calls them equal. Statistics, when
// present, cost it and pick its build side, the side expected to scan
// fewer entries; without them the side with fewer heap pages builds.
func (p *planner) startKeyJoin() (*subplan, error) {
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
		switch {
		case p.fix != nil:
			sp.buildRight = p.fix.buildRight
		case p.stats:
			sp.buildRight = r.scanned < l.scanned
		default:
			sp.buildRight = r.Rel.Heap.NumPages() < l.Rel.Heap.NumPages()
		}
		var matches float64
		if p.stats {
			matches = l.scanned * r.scanned / math.Max(p.distinct(l.ri, l.joinCol), p.distinct(r.ri, r.joinCol))
			sp.rows = matches
		}

		// Residuals: every condition is re-checked on the fetched rows,
		// the indexed ones included, and so is the join predicate — a
		// row may have moved or changed between the index scan and the
		// fetch; then what the IndexJoin plan would filter on. A check
		// the entries themselves prove (an equality condition on a
		// side's lead column, the join of two byte-equal keys) is
		// marked, and Narrow drops it once the sides it names are
		// decoded from their entries: identical values are equal.
		for _, in := range []*keyInput{l, r} {
			name := p.tpl.Relations[in.ri]
			sp.schema = sp.schema.Concat(qualify(in.Rel, name))
			sp.joined[name] = true
			if p.stats {
				sp.pages += float64(len(in.Ranges))*descentPages + in.scanned/leafEntries
				if !in.covers {
					sp.pages += matches // one heap row per match
				}
				sp.rows *= p.sel(in.ri, in.cond)
			}
		}
		for side, in := range []*keyInput{l, r} {
			for _, ci := range p.conds[in.ri] {
				pr, err := p.condPred(sp, ci)
				if err != nil {
					return nil, err
				}
				c := residCheck{pred: pr}
				if ci == in.cond && p.tpl.Conds[ci].Form == expr.EqualityForm {
					c.proves = 1 << side
				}
				sp.checks = append(sp.checks, c)
			}
			preds, err := p.fixedPreds(sp, in.ri)
			if err != nil {
				return nil, err
			}
			for _, pr := range preds {
				sp.checks = append(sp.checks, residCheck{pred: pr})
			}
		}
		link, err := joinPredFn(sp, jp)
		if err != nil {
			return nil, err
		}
		sp.checks = append(sp.checks, residCheck{pred: link, proves: 3})
		more, err := p.boundJoinPreds(sp, ji)
		if err != nil {
			return nil, err
		}
		for _, pr := range more {
			sp.checks = append(sp.checks, residCheck{pred: pr})
		}
		all := make([]Pred, len(sp.checks))
		for i, c := range sp.checks {
			all[i] = c.pred
		}
		sp.keyJoin = &KeyJoin{
			Left: l.KeySide, Right: r.KeySide,
			BuildRight: sp.buildRight,
			Residual:   andPreds(all),
		}
		sp.slots = append(sp.slots,
			rangeSlot{cond: l.cond, ranges: &sp.keyJoin.Left.Ranges},
			rangeSlot{cond: r.cond, ranges: &sp.keyJoin.Right.Ranges})
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
	if p.fix != nil {
		return p.fix.driver
	}
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
	return appendRanges(nil, form, ci)
}

// appendRanges appends ci's key ranges to dst, one per value or
// interval, reusing the byte buffers of the ranges dst's spare capacity
// still holds.
func appendRanges(dst []KeyRange, form expr.CondForm, ci expr.CondInstance) []KeyRange {
	n := len(ci.Intervals)
	if form == expr.EqualityForm {
		n = len(ci.Values)
	}
	base := len(dst)
	if cap(dst)-base < n {
		dst = slices.Grow(dst, n)
	}
	dst = dst[:base+n]
	for i := range n {
		kr := &dst[base+i]
		if form == expr.EqualityForm {
			*kr = eqRange(kr.Lo, kr.Hi, ci.Values[i])
		} else {
			*kr = intervalRange(kr.Lo, kr.Hi, ci.Intervals[i])
		}
	}
	return dst
}

// condPred compiles condition ci, as bound, against sp's schema.
func (p *planner) condPred(sp *subplan, ci int) (Pred, error) {
	ct := p.tpl.Conds[ci]
	pos, err := sp.col(ct.Col)
	if err != nil {
		return nil, err
	}
	b, form := p.bind, ct.Form
	return func(t value.Tuple) bool { return b.conds[ci].Matches(form, t[pos]) }, nil
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
