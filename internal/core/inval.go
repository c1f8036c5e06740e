// inval.go holds the view's invalidation generations and the hooks
// the write plane (internal/maint) maintains a view through.
//
// A base change purges the cached tuples it can have derived through
// the maintenance index (purgeByIndex, maintain.go), on the
// per-statement path and in the write plane's batch alike. What is
// left here is invalidation without a base change in hand: a
// generation bump (BumpKeyGens/BumpAllGen) advances the view's
// invalidation sequence and records it as a floor for the named keys
// or the whole view; an entry stamped below its floor is discarded
// lazily on its next probe. Bumps take only the view mutex. Their
// callers are an operator's or a router's MsgInvalidate, the hot
// plane, and the degradation for a view whose X lock the plane could
// not take.
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

// entryLiveLocked reports whether e survives every generation bump
// recorded against key. Caller holds v.mu.
func (v *View) entryLiveLocked(key string, e *entry) bool {
	return e.gen >= v.invalAll && e.gen >= v.invalGen[key]
}

// discardStaleLocked drops one invalidated entry. Caller holds v.mu.
func (v *View) discardStaleLocked(key string, e *entry) {
	delete(v.invalGen, key)
	v.stats.EntriesInvalidated++
	v.stats.TuplesInvalidated += int64(len(e.tuples))
	v.removeEntryLocked(key, e)
}

// liveEntryLocked returns the live entry for key, lazily discarding a
// stale one. Caller holds v.mu.
func (v *View) liveEntryLocked(key string) (*entry, bool) {
	e, ok := v.entries[key]
	if !ok {
		return nil, false
	}
	if !v.entryLiveLocked(key, e) {
		v.discardStaleLocked(key, e)
		return nil, false
	}
	return e, true
}

// BumpKeyGens invalidates keys by generation bump — the receiving
// side of MsgInvalidate. Cheap (view mutex only, no view lock, no
// entry traversal); stale entries are discarded on their next probe. Returns how many keys
// currently cache an entry (the useful work; keys without entries need
// no floor — any future fill is stamped at or above the new sequence).
func (v *View) BumpKeyGens(keys []string) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.invalSeq++
	bumped := 0
	for _, k := range keys {
		if _, ok := v.entries[k]; ok {
			v.invalGen[k] = v.invalSeq
			bumped++
		}
	}
	v.stats.KeyGenBumps += int64(len(keys))
	return bumped
}

// BumpAllGen invalidates the whole view: every current entry is stale,
// discarded lazily. This is the degradation step when key damage could
// not be bounded (a failed fan-out, a view the write plane could not
// lock) — correctness by total cache loss.
func (v *View) BumpAllGen() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.invalSeq++
	v.invalAll = v.invalSeq
	v.invalGen = make(map[string]uint64) // superseded by the floor
	v.stats.ViewGenBumps++
	if v.freq != nil {
		// Every entry just died at once; reset the filter (generation
		// bump) instead of traversing the map. Entries stamped with the
		// old filter generation skip their Remove on lazy discard.
		v.freq.Filter.Reset()
	}
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
