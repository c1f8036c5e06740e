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
	"pmv/internal/lock"
	"pmv/internal/value"
)

// InvalidateKeys removes the entries of keys — the receiving side of
// MsgInvalidate. It takes only the view mutex, no view lock. Returns
// how many keys had an entry (the useful work).
func (v *View) InvalidateKeys(keys []string) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.stats.KeyGenBumps += int64(len(keys))
	return v.removeKeysLocked(keys, &v.stats.EntriesInvalidated, &v.stats.TuplesInvalidated)
}

// InvalidateAll removes every entry. This is the degradation step when
// key damage could not be bounded (a failed fan-out, a view the write
// plane could not lock) — correctness by total cache loss.
func (v *View) InvalidateAll() {
	v.mu.Lock()
	defer v.mu.Unlock()
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

// UpdateAffects is the relevant-attribute check (the paper's case 3
// optimization) behind OnUpdateCtx and Purge: it reports whether an
// update of rel from old to new can affect cached results, bumping
// UpdatesSeen/UpdatesSkipped so batched and per-statement paths
// account identically. An update that touches no
// Ls′/Cjoin/fixed column of rel needs no maintenance at all.
func (v *View) UpdateAffects(rel string, old, new value.Tuple) (bool, error) {
	if !v.inTemplate(rel) {
		return false, nil
	}
	r, err := v.eng.Catalog().GetRelation(rel)
	if err != nil {
		return false, err
	}
	changed := false
	for _, ci := range v.relevantCols(rel, r) {
		if !value.Equal(old[ci], new[ci]) {
			changed = true
			break
		}
	}
	v.mu.Lock()
	v.stats.UpdatesSeen++
	if !changed {
		v.stats.UpdatesSkipped++
	}
	v.mu.Unlock()
	return changed, nil
}

// InTemplate reports whether rel is one of the view's base relations
// (exported for the write plane's out-of-band degradation).
func (v *View) InTemplate(rel string) bool { return v.inTemplate(rel) }
