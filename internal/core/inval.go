// inval.go holds the view's invalidation entry points and the hooks
// the write plane (internal/maint) maintains a view through.
//
// A base change purges the cached tuples it can have derived through
// the maintenance index (purgeByIndex, maintain.go), on the
// per-statement path and in the write plane's batch alike. What is
// left here is invalidation without a base change in hand:
// InvalidateKeys removes the named keys' entries and InvalidateAll
// every entry, at once and under the view mutex only. Their callers
// are an operator's or a router's MsgInvalidate, the hot plane, a
// failed DS audit, and the degradation for a view whose X lock the
// plane could not take. An invalidated key stays tracked by the
// replacement policy; its next fill starts a fresh entry.
//
// Over-invalidation is always safe: it loses cache, never
// correctness. Under-delivery (an invalidation that never arrives) is
// backstopped by the DS multiset audit: a cached tuple the
// re-execution cannot account for fails the query loudly instead of
// serving stale data unflagged.
package core

import (
	"pmv/internal/expr"
	"pmv/internal/lock"
	"pmv/internal/value"
)

// InvalidateKeys removes the entries of keys — the receiving side of
// MsgInvalidate. It takes only the view mutex, no view lock. It bumps
// the insert count, since an invalidation stands for a base change the
// view was not told of: every complete mark ends, and a query whose O3
// ran before it marks nothing. Returns how many keys had an entry (the
// useful work).
func (v *View) InvalidateKeys(keys []string) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.insertSeq++
	v.stats.KeyGenBumps += int64(len(keys))
	return v.removeKeysLocked(keys, &v.stats.EntriesInvalidated, &v.stats.TuplesInvalidated)
}

// InvalidateAll removes every entry. This is the degradation step when
// key damage could not be bounded (a failed fan-out, a view the write
// plane could not lock) — correctness by total cache loss. Like
// InvalidateKeys it bumps the insert count, so a query whose O3 ran
// before it (beside the write plane's unlocked apply, say) marks
// nothing complete.
func (v *View) InvalidateAll() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.insertSeq++
	v.stats.ViewGenBumps++
	for _, e := range v.entries {
		v.stats.EntriesInvalidated++
		v.stats.TuplesInvalidated += int64(len(e.tuples))
	}
	v.resetLocked()
}

// LockForMaintenance acquires the view's X lock through the engine's
// retrying acquire, returning its release. The write plane holds it
// across a batch apply so in-flight queries (S lock from O2 through
// O3) never observe a half-applied batch — the same barrier
// per-statement maintenance gets from engine.ChangeBarrier, amortized
// over the batch.
func (v *View) LockForMaintenance() (release func(), err error) {
	txn := v.eng.NewTxnID()
	if err := v.eng.AcquireLock(txn, v.lockRes(), lock.Exclusive); err != nil {
		return nil, err
	}
	return func() { v.eng.Locks().ReleaseAll(txn) }, nil
}

// updateAffects is the relevant-attribute check (the paper's case 3
// optimization) behind OnUpdateCtx and Purge: changed reports whether
// an update of rel from old to new touched a column of rel in Ls′ or
// Cjoin (join and fixed predicates), as an update that touches none
// needs no maintenance at all; moved reports whether it touched a
// condition, join or fixed-predicate column, which decide the result
// rows the tuple joins into. It bumps UpdatesSeen/UpdatesSkipped so
// batched and per-statement paths account identically. Values compare
// bit for bit, as cached rows and DS keys hold them: a -0 over +0 is a
// change.
func (v *View) updateAffects(rel string, old, new value.Tuple) (changed, moved bool, err error) {
	if !v.inTemplate(rel) {
		return false, false, nil
	}
	r, err := v.eng.Catalog().GetRelation(rel)
	if err != nil {
		return false, false, err
	}
	differs := func(c expr.ColumnRef) bool {
		if c.Rel != rel {
			return false
		}
		ci := r.Schema.ColIndex(c.Col)
		return ci >= 0 && !value.Identical(old[ci], new[ci])
	}
	tpl := v.cfg.Template
	for _, c := range tpl.Conds {
		moved = moved || differs(c.Col)
	}
	for _, j := range tpl.Join {
		moved = moved || differs(j.Left) || differs(j.Right)
	}
	for _, f := range tpl.Fixed {
		moved = moved || differs(f.Col)
	}
	changed = moved
	for _, c := range v.selectPlus {
		changed = changed || differs(c)
	}
	v.mu.Lock()
	v.stats.UpdatesSeen++
	if !changed {
		v.stats.UpdatesSkipped++
	}
	v.mu.Unlock()
	return changed, moved, nil
}

// InTemplate reports whether rel is one of the view's base relations
// (exported for the write plane's out-of-band degradation).
func (v *View) InTemplate(rel string) bool { return v.inTemplate(rel) }
