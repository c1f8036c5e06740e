// inval.go is the view-side surface of the write plane
// (internal/maint): invalidation generations, per-key purges, and the
// affected-key computation batched maintenance is built on.
//
// Two invalidation mechanisms coexist, chosen per key by the plane's
// heavy/light classifier:
//
//   - Light keys are purged outright under a short X-lock grab
//     (PurgeKeys) — precise, but serializes briefly with readers.
//   - Heavy keys get a generation bump (BumpKeyGens/BumpAllGen): the
//     view's invalidation sequence advances and the key records the new
//     floor; an entry whose stamp is below the floor is discarded
//     lazily on its next probe. Bumps take only the view mutex, so a
//     hot key's write burst never serializes against its read burst.
//
// Over-invalidation is always safe — it loses cache, never
// correctness — and under-delivery (a fan-out frame that never
// arrives) is backstopped by the DS multiset audit: a cached tuple the
// re-execution cannot account for fails the query loudly instead of
// serving stale data unflagged.
package core

import (
	"time"

	"pmv/internal/catalog"
	"pmv/internal/exec"
	"pmv/internal/expr"
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

// BumpKeyGens invalidates keys by generation bump — the heavy-key
// path, and the receiving side of a cluster invalidation fan-out.
// Cheap (view mutex only, no view lock, no entry traversal); stale
// entries are discarded on their next probe. Returns how many keys
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
// not be bounded (a failed fan-out, an unjoinable delta) — correctness
// by total cache loss.
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

// PurgeKeys drops the entries for keys under one short X-lock grab —
// the light-key maintenance path. When the lock cannot be had (a
// long-running reader) it degrades to generation bumps rather than
// blocking the write stream; the damage is identical, only lazier.
// Returns entries/tuples purged and whether it degraded.
func (v *View) PurgeKeys(keys []string) (entries, tuples int, degraded bool) {
	release, err := v.LockForMaintenance()
	if err != nil {
		v.BumpKeyGens(keys)
		return 0, 0, true
	}
	defer release()
	start := time.Now()
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, k := range keys {
		if e, ok := v.entries[k]; ok {
			entries++
			tuples += len(e.tuples)
			v.stats.EntriesPurged++
			v.stats.TuplesPurged += int64(len(e.tuples))
			delete(v.invalGen, k)
			v.removeEntryLocked(k, e)
		}
	}
	v.stats.MaintTime += time.Since(start)
	return entries, tuples, false
}

// AffectedKeys computes the bcp keys whose cached results a deletion
// of base (a full-schema tuple of rel, already removed from the heap)
// may have invalidated: ΔR ⋈ rest projected to condition values,
// encoded with the view's own coder. The keys are global — derived
// from the victim's condition-attribute values, not from this node's
// cache — so a router can fan them to whichever shards own them. wide
// is true when the damage could not be bounded (the delta join failed)
// and the caller must invalidate the whole view instead.
//
// Co-deleted join partners in the same batch can hide rows from the
// delta join (the partner is already gone when this victim is joined);
// the resulting under-approximation is caught loudly by the DS audit
// on the next query touching the missed key, never served silently.
func (v *View) AffectedKeys(rel string, base value.Tuple) (keys []string, wide bool) {
	if !v.inTemplate(rel) {
		return nil, false
	}
	rows, err := v.deltaJoin(rel, []value.Tuple{base})
	if err != nil {
		return nil, true
	}
	seen := make(map[string]bool, len(rows))
	for _, jt := range rows {
		k := v.coder.KeyFromCondValues(v.condValues(jt))
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys, false
}

// UpdateAffects is the relevant-attribute check (the paper's case 3
// optimization) shared by OnUpdate and the batched write plane: it
// reports whether an update of rel from old to new can affect cached
// results, bumping UpdatesSeen/UpdatesSkipped so batched and
// per-statement paths account identically. An update that touches no
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

// NoteInsert / NoteDelete record change notifications so the plane's
// detached views keep the same maintenance counters the per-statement
// observer path (OnInsert) maintains.
func (v *View) NoteInsert(rel string) {
	if !v.inTemplate(rel) {
		return
	}
	v.mu.Lock()
	v.stats.InsertsSeen++
	v.mu.Unlock()
}

// NoteDelete records one batched delete notification (see NoteInsert).
func (v *View) NoteDelete(rel string) {
	if !v.inTemplate(rel) {
		return
	}
	v.mu.Lock()
	v.stats.DeletesSeen++
	v.mu.Unlock()
}

// InTemplate reports whether rel is one of the view's base relations
// (exported for the write plane's per-view routing).
func (v *View) InTemplate(rel string) bool { return v.inTemplate(rel) }

// deltaJoin joins delta rows of rel (full base schema) with the other
// template relations under Cjoin and the fixed predicates, projecting
// Ls′. Only AffectedKeys needs it: the write plane's damage report must
// name bcps cached on other shards, which no local index knows.
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
