package core

import (
	"context"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"time"

	"pmv/internal/catalog"
	"pmv/internal/expr"
	"pmv/internal/obs"
	"pmv/internal/value"
)

// maintIndex is the full version's [25] maintenance index: per
// template relation, a hash index from the values a base tuple gives
// a cached Ls′ row — its Ls′ columns and its join columns — to the
// cached tuples carrying them. A delete or update of a base tuple
// purges exactly the cached tuples it matches, with no ΔR ⋈ rest.
//
// Storage is flat and holds no pointers but ents, so the collector
// does not scan it. Entries are integer handles. A posting names one
// cached tuple (handle, slot) and is a node in one arena, chained into
// its relation's bucket for the hash of its key; every entry keeps
// back-pointers to its postings. Adding or unindexing an entry thus
// costs O(its tuples) however large the view, and no map is touched.
// Different keys may share a bucket: a purge compares values before it
// removes.
//
// Two base tuples of one relation that agree on every key column
// derive identical cached rows, so deleting either purges both. That
// loses cache, never correctness — which is why the index works for a
// PMV and not for a full MV.
type maintIndex struct {
	rels  []relIndex
	ents  []*entry // by handle; a nil slot is on free
	free  []int32
	posts []posting
	spare int32 // first free posting, chained through next; -1 if none
	live  int   // postings in use
	atCap int   // back-pointers a full entry needs
}

// relIndex is one relation's part of the index.
type relIndex struct {
	rel   string
	slots []int    // Ls′ positions of the key
	cols  []string // rel's base column holding each key value
	heads []int32  // bucket → first posting or -1; a power of two long
}

// posting names one cached tuple: its entry's handle and its slot in
// the entry's tuples. next chains its bucket (-1 ends it); prev is the
// previous posting, or -(bucket+1) at the chain's head.
type posting struct{ h, slot, prev, next int32 }

func newMaintIndex(tpl *expr.Template, selectPlus []expr.ColumnRef, tuplesPerBCP int) *maintIndex {
	cls := joinClasses(tpl)
	m := &maintIndex{spare: -1, atCap: len(tpl.Relations) * tuplesPerBCP}
	for _, rel := range tpl.Relations {
		ri := relIndex{rel: rel, heads: emptyHeads(16)}
		add := func(slot int, col string) {
			for _, s := range ri.slots {
				if s == slot {
					return
				}
			}
			ri.slots = append(ri.slots, slot)
			ri.cols = append(ri.cols, col)
		}
		for i, c := range selectPlus {
			if c.Rel == rel {
				add(i, c.Col)
			}
		}
		// SelectPlusLayout put an equal of every join column in Ls′.
		for _, j := range tpl.Join {
			for _, c := range [2]expr.ColumnRef{j.Left, j.Right} {
				if c.Rel == rel {
					add(layoutSlot(selectPlus, cls, c), c.Col)
				}
			}
		}
		m.rels = append(m.rels, ri)
	}
	return m
}

// joinClasses maps every join column of tpl to a representative:
// columns the join predicates make equal share one.
func joinClasses(tpl *expr.Template) map[expr.ColumnRef]expr.ColumnRef {
	parent := make(map[expr.ColumnRef]expr.ColumnRef)
	var find func(c expr.ColumnRef) expr.ColumnRef
	find = func(c expr.ColumnRef) expr.ColumnRef {
		p, ok := parent[c]
		if !ok {
			parent[c] = c
			return c
		}
		if p != c {
			p = find(p)
			parent[c] = p
		}
		return p
	}
	for _, j := range tpl.Join {
		parent[find(j.Right)] = find(j.Left)
	}
	for c := range parent {
		parent[c] = find(c)
	}
	return parent
}

// layoutSlot returns the Ls′ position holding c's value: c itself, or
// else any column the join predicates make equal to it; -1 if none.
func layoutSlot(selectPlus []expr.ColumnRef, cls map[expr.ColumnRef]expr.ColumnRef, c expr.ColumnRef) int {
	for i, s := range selectPlus {
		if s == c {
			return i
		}
	}
	if rc, ok := cls[c]; ok {
		for i, s := range selectPlus {
			if rs, ok := cls[s]; ok && rs == rc {
				return i
			}
		}
	}
	return -1
}

var hashSeed = maphash.MakeSeed()

// hashValue folds v into h so that value.Equal values hash alike: Int
// and Float compare numerically across types, so both hash as float64.
func hashValue(h uint64, v value.Value) uint64 {
	var x uint64
	switch v.Type() {
	case value.TypeInt, value.TypeFloat:
		switch f := v.Float64(); {
		case f != f:
			x = 0x7ff8000000000001 // every NaN
		case f == 0:
			x = 0 // -0 == 0
		default:
			x = math.Float64bits(f)
		}
	case value.TypeString:
		x = maphash.String(hashSeed, v.Str())
	case value.TypeNull:
		x = 0x9e3779b97f4a7c15
	default: // Date, Bool
		x = uint64(v.Int64()) ^ uint64(v.Type())<<56
	}
	h = (h ^ x) * 0xbf58476d1ce4e5b9
	return h ^ h>>31
}

func (ri *relIndex) key(t value.Tuple) uint64 {
	var h uint64
	for _, s := range ri.slots {
		h = hashValue(h, t[s])
	}
	return h
}

// baseKey is key for a base tuple of ri's relation.
func (ri *relIndex) baseKey(sch catalog.Schema, base value.Tuple) uint64 {
	var h uint64
	for _, c := range ri.cols {
		h = hashValue(h, base[sch.ColIndex(c)])
	}
	return h
}

// derives reports whether cached tuple t may derive from base.
func (ri *relIndex) derives(t value.Tuple, sch catalog.Schema, base value.Tuple) bool {
	for i, s := range ri.slots {
		if !value.Equal(t[s], base[sch.ColIndex(ri.cols[i])]) {
			return false
		}
	}
	return true
}

// register gives a new, tupleless entry its handle.
func (m *maintIndex) register(e *entry) {
	e.at = make([]int32, 0, m.atCap)
	if n := len(m.free); n > 0 {
		e.h, m.free = m.free[n-1], m.free[:n-1]
		m.ents[e.h] = e
		return
	}
	e.h = int32(len(m.ents))
	m.ents = append(m.ents, e)
}

// release unindexes a dying entry and frees its handle.
func (m *maintIndex) release(e *entry) {
	m.unindex(e)
	m.ents[e.h] = nil
	m.free = append(m.free, e.h)
}

// add indexes e.tuples[slot], which must be the entry's last tuple.
func (m *maintIndex) add(e *entry, slot int) {
	if m.live >= len(m.rels)*len(m.rels[0].heads) {
		m.grow()
	}
	for r := range m.rels {
		i := m.spare
		if i >= 0 {
			m.spare = m.posts[i].next
		} else {
			i = int32(len(m.posts))
			m.posts = append(m.posts, posting{})
		}
		m.posts[i] = posting{h: e.h, slot: int32(slot)}
		m.link(&m.rels[r], i, e.tuples[slot])
		e.at = append(e.at, i)
	}
	m.live += len(m.rels)
}

// link pushes posting i, whose tuple is t, onto its bucket in ri.
func (m *maintIndex) link(ri *relIndex, i int32, t value.Tuple) {
	b := int32(ri.key(t) & uint64(len(ri.heads)-1))
	p := &m.posts[i]
	p.prev, p.next = -(b + 1), ri.heads[b]
	if p.next >= 0 {
		m.posts[p.next].prev = i
	}
	ri.heads[b] = i
}

// unindex unlinks and frees every posting of e.
func (m *maintIndex) unindex(e *entry) {
	n := len(m.rels)
	for j, i := range e.at {
		p := m.posts[i]
		if p.prev >= 0 {
			m.posts[p.prev].next = p.next
		} else {
			m.rels[j%n].heads[-p.prev-1] = p.next
		}
		if p.next >= 0 {
			m.posts[p.next].prev = p.prev
		}
		m.posts[i] = posting{next: m.spare}
		m.spare = i
	}
	m.live -= len(e.at)
	e.at = e.at[:0]
}

// grow doubles every relation's buckets and relinks the live postings,
// keeping chains about one posting long.
func (m *maintIndex) grow() {
	for r := range m.rels {
		m.rels[r].heads = emptyHeads(2 * len(m.rels[r].heads))
	}
	n := len(m.rels)
	for _, e := range m.ents {
		if e == nil {
			continue
		}
		for j, i := range e.at {
			m.link(&m.rels[j%n], i, e.tuples[j/n])
		}
	}
}

func emptyHeads(n int) []int32 {
	h := make([]int32, n)
	for i := range h {
		h[i] = -1
	}
	return h
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

// OnInsert is the paper's case (1), deferred maintenance for inserts:
// an insert may create new result tuples but cannot invalidate cached
// ones, so no cached tuple is purged and no X lock is taken. What it
// can break is completeness: a complete entry whose bcp the new tuple
// adds a row to is no longer its bcp's whole answer. So OnInsert bumps
// the view's insert count, which ends every entry's complete mark at
// once and keeps a query whose O3 raced the insert from marking
// anything (see entry.completeSeq). The engine calls it after the
// tuple is visible to O3.
func (v *View) OnInsert(rel string, _ value.Tuple) error {
	if v.inTemplate(rel) {
		v.mu.Lock()
		v.stats.InsertsSeen++
		v.insertSeq++
		v.mu.Unlock()
	}
	return nil
}

// BeforeChange implements engine.ChangeBarrier: a delete/update of one
// of the view's base relations acquires the view's X lock before the
// first heap change, so an in-flight query's S lock (held from O2
// through O3) keeps its read consistent — Section 3.6's protocol.
// Inserts take no X lock: OnInsert's insert count stands in for it.
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
// tuples purged).
func (v *View) OnDeleteCtx(ctx context.Context, rel string, t value.Tuple) error {
	_, err := v.onDelete(ctx, rel, t, nil)
	return err
}

// onDelete is OnDeleteCtx reporting the tuples it purged and, when
// keys is non-nil, the bcps it hit (see purgeByIndex).
func (v *View) onDelete(ctx context.Context, rel string, t value.Tuple, keys *[]string) (int, error) {
	if !v.inTemplate(rel) {
		return 0, nil
	}
	start := time.Now()
	purged, err := v.purgeByIndex(rel, t, keys)
	v.mu.Lock()
	v.stats.DeletesSeen++
	v.stats.MaintTime += time.Since(start)
	v.mu.Unlock()
	obs.FromContext(ctx).Span(obs.KindMaint, start, int64(purged), 0, 0)
	return purged, err
}

// OnUpdate implements the paper's case (3): an update that does not
// touch the relation's attributes appearing in Ls′ or Cjoin cannot
// affect cached tuples and is ignored; otherwise it is handled like a
// deletion of the old tuple. New result tuples the update creates are
// picked up by later queries, like inserts, and like an insert, a new
// image whose condition, join or fixed-predicate columns changed
// bumps the insert count as OnInsert does. A change of other Ls′
// columns needs no more: the purge of the old image already cleared
// the mark of the entry that held its row.
func (v *View) OnUpdate(rel string, old, new value.Tuple) error {
	return v.OnUpdateCtx(context.Background(), rel, old, new)
}

// OnUpdateCtx is OnUpdate with a context for trace propagation (see
// OnDeleteCtx).
func (v *View) OnUpdateCtx(ctx context.Context, rel string, old, new value.Tuple) error {
	_, err := v.onUpdate(ctx, rel, old, new, nil)
	return err
}

// Purge is the write plane's maintenance for one base change of rel,
// run inside its batch while it holds the view's X lock: OnDeleteCtx
// for a delete (new == nil), OnUpdateCtx for an update. It appends to
// *keys the bcp of every entry that lost tuples and returns how many
// tuples it purged.
func (v *View) Purge(rel string, old, new value.Tuple, keys *[]string) (int, error) {
	if new == nil {
		return v.onDelete(context.Background(), rel, old, keys)
	}
	return v.onUpdate(context.Background(), rel, old, new, keys)
}

// onUpdate is OnUpdateCtx reporting what it purged (see onDelete).
func (v *View) onUpdate(ctx context.Context, rel string, old, new value.Tuple, keys *[]string) (int, error) {
	changed, moved, err := v.updateAffects(rel, old, new)
	if !changed {
		return 0, err
	}
	purged, err := v.onDelete(ctx, rel, old, keys)
	if moved {
		v.mu.Lock()
		v.insertSeq++
		v.mu.Unlock()
	}
	return purged, err
}

// purgeByIndex removes the cached tuples that may derive from base, a
// full-schema tuple of rel, through the maintenance index — "cheap
// in-memory operations" (Section 4.3) — and returns how many it
// removed; keys, when non-nil, gets the bcp of every entry it hit. It
// allocates nothing when no cached tuple matches.
func (v *View) purgeByIndex(rel string, base value.Tuple, keys *[]string) (int, error) {
	r, err := v.eng.Catalog().GetRelation(rel)
	if err != nil {
		return 0, err
	}
	sch := r.Schema
	v.mu.Lock()
	defer v.mu.Unlock()
	m := v.maint
	var ri *relIndex
	for i := range m.rels {
		if m.rels[i].rel == rel {
			ri = &m.rels[i]
		}
	}
	for _, c := range ri.cols {
		if sch.ColIndex(c) < 0 {
			return 0, fmt.Errorf("core: relation %s has no column %s", rel, c)
		}
	}
	var hit []*entry
	for i := ri.heads[ri.baseKey(sch, base)&uint64(len(ri.heads)-1)]; i >= 0; i = m.posts[i].next {
		p := m.posts[i]
		if e := m.ents[p.h]; ri.derives(e.tuples[p.slot], sch, base) && !slices.Contains(hit, e) {
			hit = append(hit, e)
		}
	}
	purged := 0
	for _, e := range hit {
		if keys != nil {
			*keys = append(*keys, e.key)
		}
		// Two base tuples agreeing on the index key purge each other's
		// rows, so the entry may no longer hold its bcp's whole answer.
		e.completeSeq = 0
		m.unindex(e)
		kept := e.tuples[:0]
		for _, t := range e.tuples {
			if ri.derives(t, sch, base) {
				purged++
			} else {
				kept = append(kept, t)
			}
		}
		clear(e.tuples[len(kept):])
		e.tuples = kept
		for slot := range e.tuples {
			m.add(e, slot)
		}
	}
	v.stats.TuplesPurged += int64(purged)
	return purged, nil
}
