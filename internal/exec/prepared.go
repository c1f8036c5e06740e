package exec

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"pmv/internal/catalog"
	"pmv/internal/expr"
	"pmv/internal/keycodec"
	"pmv/internal/value"
)

// Prepared is one template's plan over a fixed projection, planned once
// and bound per query. A PMV runs one query shape over and over; what
// PlanQuery decides for it — operators, indexes, build side, the
// columns Narrow decodes, the projection's positions — depends on the
// catalog and on how many values each condition binds, not on the
// values. So the plan is chosen once per catalog revision and binding
// class (per condition, its form and its number of values or
// intervals), costed with the first query of the class, and every later
// query of the class only writes its values and key ranges into a
// pooled copy of it. The chosen shape is immutable; each query runs on
// a copy of its operators no other query holds, so concurrent queries
// of one template share the choice and nothing they mutate.
//
// Within a class the costed choice is the first query's: a later query
// whose values the cost model would have planned differently (an
// interval that covers the whole relation, say) runs the class's plan,
// which returns the same answer.
type Prepared struct {
	cat  *catalog.Catalog
	tpl  *expr.Template
	cols []expr.ColumnRef

	mu     sync.Mutex               // serializes planning
	shapes atomic.Pointer[[]*shape] // replaced whole, read without mu
}

// shape is the plan of one binding class at one catalog revision: the
// choices that rebuild it and a pool of bindable copies.
type shape struct {
	rev   uint64
	class []int // per condition, its number of values or intervals
	fix   choices
	plans sync.Pool // of *Bound
}

// Bound is a Prepared plan bound to one query. Run executes it once and
// hands it back to its shape's pool.
type Bound struct {
	*Plan
	sh   *shape
	proj []int       // the projection's positions in Root's rows
	out  value.Tuple // the projected row Run hands fn
	key  []byte      // the projected row's encoding, for dedup
}

// NewPrepared prepares tpl's plans over cat, projecting cols. Nothing is
// planned until the first query.
func NewPrepared(cat *catalog.Catalog, tpl *expr.Template, cols []expr.ColumnRef) *Prepared {
	return &Prepared{cat: cat, tpl: tpl, cols: slices.Clone(cols)}
}

// classOf reports whether q's binding class is class.
func (pp *Prepared) classOf(q *expr.Query, class []int) bool {
	for i, ct := range pp.tpl.Conds {
		if bindCount(ct.Form, q.Conds[i]) != class[i] {
			return false
		}
	}
	return true
}

func bindCount(form expr.CondForm, ci expr.CondInstance) int {
	if form == expr.EqualityForm {
		return len(ci.Values)
	}
	return len(ci.Intervals)
}

// find returns the current shape of q's class, or nil.
func (pp *Prepared) find(q *expr.Query, rev uint64) *shape {
	if list := pp.shapes.Load(); list != nil {
		for _, sh := range *list {
			if sh.rev == rev && pp.classOf(q, sh.class) {
				return sh
			}
		}
	}
	return nil
}

// Bind returns the plan of q's binding class at the catalog's current
// revision, planning it first when there is none, bound to q. q must be
// a valid query (expr.Query.Validate) of the prepared template. The
// caller runs the result once, or releases it.
func (pp *Prepared) Bind(q *expr.Query) (*Bound, error) {
	if len(q.Conds) != len(pp.tpl.Conds) {
		return nil, fmt.Errorf("exec: query binds %d conditions, template %s has %d", len(q.Conds), pp.tpl.Name, len(pp.tpl.Conds))
	}
	rev := pp.cat.Revision()
	sh := pp.find(q, rev)
	if sh == nil {
		var err error
		if sh, err = pp.plan(q, rev); err != nil {
			return nil, err
		}
	}
	b, err := sh.get(pp)
	if err != nil {
		return nil, err
	}
	b.bindQuery(q)
	return b, nil
}

// plan costs q's class at revision rev and publishes its shape,
// dropping the shapes of older revisions.
func (pp *Prepared) plan(q *expr.Query, rev uint64) (*shape, error) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if sh := pp.find(q, rev); sh != nil {
		return sh, nil
	}
	plan, fix, err := planFor(pp.cat, pp.tpl, q, nil)
	if err != nil {
		return nil, err
	}
	sh := &shape{rev: rev, class: make([]int, len(q.Conds)), fix: fix}
	for i, ct := range pp.tpl.Conds {
		sh.class[i] = bindCount(ct.Form, q.Conds[i])
	}
	b, err := pp.bound(sh, plan)
	if err != nil {
		return nil, err
	}
	sh.plans.Put(b)
	var list []*shape
	if old := pp.shapes.Load(); old != nil {
		for _, o := range *old {
			if o.rev == rev {
				list = append(list, o)
			}
		}
	}
	list = append(list, sh)
	pp.shapes.Store(&list)
	return sh, nil
}

// get returns a copy of the shape's plan no one else holds: a pooled
// one, or one planned afresh from the shape's choices.
func (sh *shape) get(pp *Prepared) (*Bound, error) {
	if b, ok := sh.plans.Get().(*Bound); ok {
		return b, nil
	}
	plan, _, err := planFor(pp.cat, pp.tpl, nil, &sh.fix)
	if err != nil {
		return nil, err
	}
	return pp.bound(sh, plan)
}

// bound narrows plan to the projection and wraps it.
func (pp *Prepared) bound(sh *shape, plan *Plan) (*Bound, error) {
	proj := make([]int, len(pp.cols))
	for i, c := range pp.cols {
		pos, err := plan.Schema.MustIndex(c)
		if err != nil {
			return nil, err
		}
		proj[i] = pos
	}
	plan.Narrow(proj)
	return &Bound{Plan: plan, sh: sh, proj: proj, out: make(value.Tuple, len(proj))}, nil
}

// Run executes the bound plan once, calling fn with each projected row,
// and returns the plan's rows: those fn saw and those dedup took. The
// row fn gets is the plan's own and is rewritten after fn returns; fn
// clones what it keeps. dedup, when non-nil, sees every row's
// projection encoded by keycodec before fn does and drops the rows it
// takes; a key-only plan asks it from its index entries, before a row
// is decoded. A context that can be cancelled is checked before every
// row. The plan goes back to its pool, and b must not be used again.
func (b *Bound) Run(ctx context.Context, dedup Dedup, fn func(value.Tuple) error) (int64, error) {
	defer b.release()
	kj := b.keyJoin
	if kj != nil {
		kj.dedup = dedup
	}
	done := ctx.Done()
	if done != nil {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
	}
	if err := b.Root.Open(); err != nil {
		return 0, err
	}
	defer b.Root.Close()
	var n int64
	for {
		if done != nil {
			if err := ctx.Err(); err != nil {
				return n, err
			}
		}
		row, ok, err := b.Root.Next()
		if err != nil {
			return n, err
		}
		if !ok {
			break
		}
		n++
		if dedup != nil && (kj == nil || !kj.checked) {
			b.key = b.key[:0]
			for _, c := range b.proj {
				b.key = keycodec.AppendValue(b.key, row[c])
			}
			if dedup(b.key) {
				continue
			}
		}
		for i, c := range b.proj {
			b.out[i] = row[c]
		}
		if err := fn(b.out); err != nil {
			return n, err
		}
	}
	if kj != nil {
		n += int64(kj.dropped)
	}
	return n, nil
}

// Release hands back a bound plan that will not be run. Run releases
// the plans it runs.
func (b *Bound) Release() { b.release() }

// release drops what the run referenced and pools the plan.
func (b *Bound) release() {
	if b.keyJoin != nil {
		b.keyJoin.dedup = nil
	}
	b.unbind()
	clear(b.out)
	b.sh.plans.Put(b)
}
