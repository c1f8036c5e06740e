// remote.go is the shard-side surface of the cluster plane. A router
// runs the protocol through Run like a local view, with O1 on its own
// (BCPCoder), O2 on the shards owning each condition part
// (View.ProbeBCPs), O3 on any one shard over the expanded select list
// Ls′ (View.ExecutePlainCtx), and the refill deltas handed back to the
// owners (View.FillTuples). The methods deliberately stream full Ls′
// tuples — the router needs the condition attributes to key DS and to
// recover bcp ownership for refill.
package core

import (
	"context"
	"fmt"
	"time"

	"pmv/internal/expr"
	"pmv/internal/obs"
	"pmv/internal/value"
)

// BCPCoder is an engine-free Operation O1 for routers: built from a
// view's template and dividing values, it breaks queries into
// condition parts and computes bcp keys byte-identical to the ones the
// owning shard's view computes.
type BCPCoder struct {
	coder    bcpCoder
	maxParts int
}

// NewBCPCoder builds a coder for tpl. dividers supplies the dividing
// values per interval-form condition index (required there, ignored
// elsewhere); maxParts caps O1's cartesian product (0 = the view
// default of 4096).
func NewBCPCoder(tpl *expr.Template, dividers map[int][]value.Value, maxParts int) (*BCPCoder, error) {
	if tpl == nil {
		return nil, fmt.Errorf("core: coder needs a template")
	}
	if err := tpl.Validate(); err != nil {
		return nil, err
	}
	if maxParts <= 0 {
		maxParts = 4096
	}
	c := bcpCoder{
		forms: make([]expr.CondForm, len(tpl.Conds)),
		discs: make([]*Discretizer, len(tpl.Conds)),
	}
	for i, ct := range tpl.Conds {
		c.forms[i] = ct.Form
		if ct.Form == expr.IntervalForm {
			if len(dividers[i]) == 0 {
				return nil, fmt.Errorf("core: interval-form condition %d (%s) needs dividing values", i, ct.Col)
			}
			c.discs[i] = NewDiscretizer(dividers[i])
		}
	}
	return &BCPCoder{coder: c, maxParts: maxParts}, nil
}

// BreakConditions runs Operation O1 (see bcpCoder.BreakConditions).
func (bc *BCPCoder) BreakConditions(q *expr.Query) ([]ConditionPart, error) {
	return bc.coder.BreakConditions(q, bc.maxParts)
}

// BreakConditionsInto is BreakConditions building the parts in b.
func (bc *BCPCoder) BreakConditionsInto(b *PartBuf, q *expr.Query) ([]ConditionPart, error) {
	return bc.coder.breakInto(b, q, bc.maxParts)
}

// KeyFromCondValues encodes the containing bcp of a result tuple's
// condition-attribute values, exactly as the owning shard would.
func (bc *BCPCoder) KeyFromCondValues(condVals []value.Value) string {
	return bc.coder.KeyFromCondValues(condVals)
}

// AppendKey appends KeyFromCondValues's encoding to dst.
func (bc *BCPCoder) AppendKey(dst []byte, condVals []value.Value) []byte {
	return bc.coder.AppendKey(dst, condVals)
}

// CondInstances renders the part's components as one single-component
// condition instance per template condition — the wire form a shard
// uses to re-check cached tuples of non-exact parts.
func (cp *ConditionPart) CondInstances() []expr.CondInstance {
	out := make([]expr.CondInstance, len(cp.comps))
	for i, c := range cp.comps {
		if c.isEquality {
			out[i] = expr.CondInstance{Values: []value.Value{c.val}}
		} else {
			out[i] = expr.CondInstance{Intervals: []expr.Interval{c.iv}}
		}
	}
	return out
}

// SelectPlusLayout derives the expanded select list Ls′ for a template
// plus each condition attribute's slot in Ls′ rows, mirroring NewView.
// Routers use it to project Ls′ rows down to the user columns and to
// extract condition values without opening the database.
//
// Ls′ is Ls, then every condition attribute not already in it, then
// every join column none of whose equals (under the join predicates)
// is in it yet, so every relation's maintenance-index key can be read
// off a cached row. Appending keeps the user prefix and condPos fixed.
func SelectPlusLayout(tpl *expr.Template) (selectPlus []expr.ColumnRef, condPos []int) {
	selectPlus = append([]expr.ColumnRef(nil), tpl.Select...)
	pos := func(ref expr.ColumnRef) int {
		for i, c := range selectPlus {
			if c == ref {
				return i
			}
		}
		return -1
	}
	condPos = make([]int, len(tpl.Conds))
	for i, ct := range tpl.Conds {
		p := pos(ct.Col)
		if p < 0 {
			selectPlus = append(selectPlus, ct.Col)
			p = len(selectPlus) - 1
		}
		condPos[i] = p
	}
	cls := joinClasses(tpl)
	for _, j := range tpl.Join {
		if layoutSlot(selectPlus, cls, j.Left) < 0 {
			selectPlus = append(selectPlus, j.Left)
		}
	}
	return selectPlus, condPos
}

// RemotePart is one externally-computed condition part to probe:
// the encoded containing bcp key, whether the part equals the bcp,
// and — for non-exact parts — one single-component condition instance
// per template condition for re-checking cached tuples.
type RemotePart struct {
	Key   string
	Exact bool
	Conds []expr.CondInstance
}

// ProbeBCPs runs Operation O2 for parts computed by a remote router:
// under the view's S lock, serve the cached tuples of every present
// bcp (re-checking non-exact parts against their condition instances)
// by emitting full Ls′ rows, through the same loop as a local query.
func (v *View) ProbeBCPs(ctx context.Context, parts []RemotePart, emit func(value.Tuple) error) (ProbeReport, error) {
	cps := make([]ConditionPart, len(parts))
	for i := range parts {
		cp, err := v.coder.remotePart(&parts[i])
		if err != nil {
			return ProbeReport{}, fmt.Errorf("core: probe part %d: %w", i, err)
		}
		cps[i] = cp
	}

	tr := obs.FromContext(ctx)
	txn := v.eng.NewTxnID()
	if err := v.lockShared(tr, txn); err != nil {
		// No degraded fallback here: a probe is an optimization, and the
		// router treats any typed failure as "no partials from this
		// shard" — the O3 shard still delivers complete results.
		return ProbeReport{}, err
	}
	defer v.eng.Locks().ReleaseAll(txn)
	return v.probe(ctx, tr, cps, &fillTable{bcps: make([]stagedBCP, 0, len(cps))}, func(t value.Tuple, _ string) error { return emit(t) })
}

// remotePart rebuilds the condition part a router rendered as p: a
// non-exact part needs one component per template condition, of the
// condition's form, to re-check cached tuples against.
func (bc *BCPCoder) remotePart(p *RemotePart) (ConditionPart, error) {
	forms := bc.coder.forms
	cp := ConditionPart{BCPKey: p.Key, Exact: p.Exact}
	if p.Exact {
		return cp, nil
	}
	if len(p.Conds) != len(forms) {
		return cp, fmt.Errorf("%d conditions, template has %d", len(p.Conds), len(forms))
	}
	cp.comps = make([]condComponent, len(p.Conds))
	for i, ci := range p.Conds {
		switch {
		case forms[i] == expr.EqualityForm && len(ci.Values) == 1 && len(ci.Intervals) == 0:
			cp.comps[i] = condComponent{isEquality: true, val: ci.Values[0]}
		case forms[i] == expr.IntervalForm && len(ci.Intervals) == 1 && len(ci.Values) == 0:
			cp.comps[i] = condComponent{iv: ci.Intervals[0]}
		default:
			return cp, fmt.Errorf("condition %d is not one component of its form", i)
		}
	}
	return cp, nil
}

// ExecutePlainCtx executes q over the expanded select list Ls′ without
// touching the view: no probe, no DS, no refill, no view stats. It is
// the shard half of a routed Operation O3 — the router's Run owns DS
// and the refill deltas. It runs the view's prepared plan, and the row
// emit gets is that plan's own: valid until emit returns, cloned by a
// caller that keeps it. Returns the execution latency.
func (v *View) ExecutePlainCtx(ctx context.Context, q *expr.Query, emit func(value.Tuple) error) (time.Duration, error) {
	if err := v.checkQuery(q); err != nil {
		return 0, err
	}
	start := time.Now()
	err := v.eng.ExecutePreparedCtx(ctx, v.o3, q, nil, emit)
	return time.Since(start), err
}

// FillTuples is the shard half of a routed refill: it caches the Ls′
// tuples a router saw in Operation O3, grouped by containing bcp, under
// the view's S lock through putLocked. A bcp that already holds tuples
// is left alone, so a duplicated delivery (two routers racing, a
// retried frame) cannot cache a tuple twice. Returns how many tuples
// were cached.
func (v *View) FillTuples(tuples []value.Tuple) (int, error) {
	// Group by containing bcp first so each entry is written once.
	groups := make(map[string][]value.Tuple)
	var order []string
	for i, t := range tuples {
		if len(t) != len(v.selectPlus) {
			return 0, fmt.Errorf("core: refill tuple %d arity %d, want %d", i, len(t), len(v.selectPlus))
		}
		key := v.coder.KeyFromCondValues(v.condValues(t))
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], t)
	}

	txn := v.eng.NewTxnID()
	if err := v.lockShared(nil, txn); err != nil {
		// Refill is free work; under lock contention it is simply lost,
		// same as the degraded local path loses its refresh.
		return 0, err
	}
	defer v.eng.Locks().ReleaseAll(txn)

	cached := 0
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, key := range order {
		if e := v.putLocked(key, groups[key], false); e != nil {
			cached += len(e.tuples)
		}
	}
	return cached, nil
}
