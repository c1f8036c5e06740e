// remote.go is the shard-side surface of the cluster plane. A router
// runs Operation O1 itself (BCPCoder), probes the shards owning each
// condition part (View.ProbeBCPs), executes Operation O3 on any one
// shard over the expanded select list Ls′ (View.ExecutePlainCtx), and
// hands the refill deltas back to the owners (View.FillTuples). The
// methods deliberately stream full Ls′ tuples — the router needs the
// condition attributes to key the DS multiset and to recover bcp
// ownership for refill.
package core

import (
	"context"
	"fmt"
	"time"

	"pmv/internal/expr"
	"pmv/internal/lock"
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

// KeyFromCondValues encodes the containing bcp of a result tuple's
// condition-attribute values, exactly as the owning shard would.
func (bc *BCPCoder) KeyFromCondValues(condVals []value.Value) string {
	return bc.coder.KeyFromCondValues(condVals)
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

// ProbeReport summarizes one ProbeBCPs call.
type ProbeReport struct {
	// Hit is true when any probed bcp was tracked by the view.
	Hit bool
	// PartHits counts probed parts whose bcp was present.
	PartHits int
	// PartialTuples counts Ls′ tuples emitted.
	PartialTuples int
	// Suppressed counts parts skipped by the presence filter (zero
	// with the frequency plane off).
	Suppressed int
}

// ProbeBCPs runs Operation O2 for parts computed by a remote router:
// under the view's S lock, serve the cached tuples of every present
// bcp (re-checking non-exact parts against their condition instances)
// by emitting full Ls′ rows. Popularity and admission bookkeeping
// match the local probe path, so routed and local workloads train the
// replacement policy identically.
func (v *View) ProbeBCPs(ctx context.Context, parts []RemotePart, emit func(value.Tuple) error) (ProbeReport, error) {
	var rep ProbeReport
	tr := obs.FromContext(ctx)
	nConds := len(v.coder.forms)
	for i := range parts {
		if !parts[i].Exact && len(parts[i].Conds) != nConds {
			return rep, fmt.Errorf("core: probe part %d has %d conditions, template has %d",
				i, len(parts[i].Conds), nConds)
		}
	}

	txn := v.eng.NewTxnID()
	lockStart := time.Now()
	lockErr := v.eng.AcquireLock(txn, v.lockRes(), lock.Shared)
	v.mu.Lock()
	v.stats.LockWaitTime += time.Since(lockStart)
	v.mu.Unlock()
	if lockErr != nil {
		// No degraded fallback here: a probe is an optimization, and the
		// router treats any typed failure as "no partials from this
		// shard" — the O3 shard still delivers complete results.
		tr.Span(obs.KindLockWait, lockStart, 0, 0, 0)
		return rep, lockErr
	}
	tr.Span(obs.KindLockWait, lockStart, 1, 0, 0)
	defer v.eng.Locks().ReleaseAll(txn)

	admitDecided := make(map[string]bool)
	v.mu.Lock()
	for pi := range parts {
		if ctx.Err() != nil {
			v.mu.Unlock()
			return rep, ctx.Err()
		}
		var pStart time.Time
		if tr.Enabled() {
			pStart = time.Now()
		}
		before := rep.PartialTuples
		p := &parts[pi]
		var hit bool
		// Frequency plane: train the sketch, honor a provable absence
		// (see probeO2 — routed and local probes suppress identically).
		est, proceed := v.probeFreqLocked(p.Key)
		if !proceed {
			rep.Suppressed++
			if tr.Enabled() {
				tr.Span(obs.KindO2Probe, pStart, int64(pi), 0, 0)
			}
			continue
		}
		e, ok := v.liveEntryLocked(p.Key)
		if v.freq != nil && !ok {
			v.stats.FilterFalsePositives++
		}
		switch {
		case ok:
			v.policy.Lookup(p.Key)
			e.accesses++
			hit = true
		case v.policy.Lookup(p.Key):
			hit = true // tracked but currently tupleless
		default:
			if _, done := admitDecided[p.Key]; !done && v.admitGateLocked(p.Key, est, true) {
				if v.policyIsTwoQueue() {
					adm, evicted := v.policy.RequestAdmit(p.Key)
					v.dropEntriesLocked(evicted)
					admitDecided[p.Key] = adm
				}
			}
		}
		if hit {
			rep.Hit = true
			rep.PartHits++
		}
		if hit && ok {
			for _, t := range e.tuples {
				if !p.Exact && !matchesConds(p.Conds, v.coder.forms, v.condValues(t)) {
					continue
				}
				rep.PartialTuples++
				v.mu.Unlock()
				err := emit(t)
				v.mu.Lock()
				if err != nil {
					v.mu.Unlock()
					return rep, err
				}
			}
		}
		if tr.Enabled() {
			var hitN int64
			if hit {
				hitN = 1
			}
			tr.Span(obs.KindO2Probe, pStart, int64(pi), int64(rep.PartialTuples-before), hitN)
		}
	}
	v.stats.PartsProbed += int64(len(parts))
	v.stats.PartHits += int64(rep.PartHits)
	v.stats.PartialTuples += int64(rep.PartialTuples)
	v.mu.Unlock()
	return rep, nil
}

// matchesConds reports whether condVals satisfies every per-condition
// instance (the wire rendering of a condition part's components).
func matchesConds(conds []expr.CondInstance, forms []expr.CondForm, condVals []value.Value) bool {
	for i := range conds {
		if !conds[i].Matches(forms[i], condVals[i]) {
			return false
		}
	}
	return true
}

// ExecutePlainCtx executes q over the expanded select list Ls′ without
// touching the view: no probe, no DS, no refill, no view stats. It is
// the shard half of a routed Operation O3 — the router owns the DS
// multiset and the refill deltas. Returns the execution latency.
func (v *View) ExecutePlainCtx(ctx context.Context, q *expr.Query, emit func(value.Tuple) error) (time.Duration, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	if q.Template != v.cfg.Template && q.Template.Name != v.cfg.Template.Name {
		return 0, fmt.Errorf("core: query template %q does not match view template %q",
			q.Template.Name, v.cfg.Template.Name)
	}
	start := time.Now()
	err := v.eng.ExecuteProjectCtx(ctx, q, v.selectPlus, emit)
	return time.Since(start), err
}

// FillTuples is the shard half of a routed refill: cache Ls′ result
// tuples a router observed during Operation O3, grouped by containing
// bcp, under the view's S lock with normal policy admission and the F
// bound. Refills are idempotent at entry granularity — a bcp that
// already holds tuples is left untouched, so a duplicated delivery
// (two routers racing, a retried frame) can never double-cache a tuple
// and poison the DS multiset's exactly-once accounting. Returns how
// many tuples were cached.
func (v *View) FillTuples(tuples []value.Tuple) (int, error) {
	for i, t := range tuples {
		if len(t) != len(v.selectPlus) {
			return 0, fmt.Errorf("core: refill tuple %d arity %d, want %d", i, len(t), len(v.selectPlus))
		}
	}
	// Group by containing bcp first so each entry is written once.
	groups := make(map[string][]value.Tuple)
	order := make([]string, 0, len(tuples))
	for _, t := range tuples {
		key := v.coder.KeyFromCondValues(v.condValues(t))
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], t)
	}

	txn := v.eng.NewTxnID()
	lockStart := time.Now()
	lockErr := v.eng.AcquireLock(txn, v.lockRes(), lock.Shared)
	v.mu.Lock()
	v.stats.LockWaitTime += time.Since(lockStart)
	v.mu.Unlock()
	if lockErr != nil {
		// Refill is free work; under lock contention it is simply lost,
		// same as the degraded local path loses its refresh.
		return 0, lockErr
	}
	defer v.eng.Locks().ReleaseAll(txn)

	cached := 0
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, key := range order {
		if e, ok := v.liveEntryLocked(key); ok && len(e.tuples) > 0 {
			continue // idempotence: never append to a populated entry
		}
		if !v.policy.Contains(key) {
			// Popularity gate, same as the local fill path: a routed
			// refill for a key below the threshold is declined.
			if !v.admitGateLocked(key, 0, false) {
				continue
			}
			adm, evicted := v.policy.RequestAdmit(key)
			v.dropEntriesLocked(evicted)
			if !adm {
				continue
			}
		}
		e, ok := v.entries[key]
		if !ok {
			e = &entry{gen: v.invalSeq}
			v.entries[key] = e
			v.stats.EntriesCreated++
			v.freqAddLocked(key, e)
		}
		for _, t := range groups[key] {
			if len(e.tuples) >= v.cfg.TuplesPerBCP {
				break // the F bound
			}
			ct := t.Clone()
			e.tuples = append(e.tuples, ct)
			v.stampFillLocked(e, 0)
			v.stats.TuplesCached++
			cached++
			if v.maint != nil {
				v.maint.add(key, ct)
			}
		}
	}
	return cached, nil
}
