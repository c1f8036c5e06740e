package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"pmv/internal/cache"
	"pmv/internal/engine"
	"pmv/internal/expr"
	freqpkg "pmv/internal/freq"
	"pmv/internal/lock"
	"pmv/internal/obs"
	"pmv/internal/value"
)

// Config defines one partial materialized view (Section 3.2's
// "create partial materialized view ... with selection condition
// template Cselect").
type Config struct {
	// Name identifies the view (also the lock-manager resource).
	Name string
	// Template is the query template qt the view serves.
	Template *expr.Template
	// MaxEntries is the bound L on stored basic condition parts,
	// derived from the storage budget UB (L ≤ UB/(F·At)).
	MaxEntries int
	// TuplesPerBCP is F: at most this many result tuples are cached
	// per basic condition part.
	TuplesPerBCP int
	// Policy selects the entry replacement policy (CLOCK by default;
	// Section 3.5 suggests 2Q).
	Policy cache.PolicyKind
	// Dividers supplies the dividing values for each interval-form
	// condition, keyed by condition index.
	Dividers map[int][]value.Value
	// MaxConditionParts caps Operation O1's cartesian product; queries
	// exceeding it skip the PMV probe (guarding against pathological
	// h). Zero means the default of 4096.
	MaxConditionParts int
	// UseMaintIndex enables the full-version [25] optimization:
	// in-memory secondary indices on the PMV's per-relation attributes
	// let deletes purge cached tuples without computing ΔR ⋈ rest.
	UseMaintIndex bool
}

func (c *Config) fill() error {
	if c.Template == nil {
		return errors.New("core: config needs a template")
	}
	if err := c.Template.Validate(); err != nil {
		return err
	}
	if c.Name == "" {
		c.Name = "pmv_" + c.Template.Name
	}
	if c.MaxEntries <= 0 {
		c.MaxEntries = 10000
	}
	if c.TuplesPerBCP <= 0 {
		c.TuplesPerBCP = 2
	}
	if c.Policy == "" {
		c.Policy = cache.PolicyCLOCK
	}
	if c.MaxConditionParts <= 0 {
		c.MaxConditionParts = 4096
	}
	for i, ct := range c.Template.Conds {
		if ct.Form == expr.IntervalForm && len(c.Dividers[i]) == 0 {
			return fmt.Errorf("core: interval-form condition %d (%s) needs dividing values", i, ct.Col)
		}
	}
	return nil
}

// entry is one PMV entry: a basic condition part with its cached
// result tuples (rows over the expanded select list Ls′) and the
// popularity counter used by the ranking extension.
type entry struct {
	tuples   []value.Tuple
	accesses int64
	// gen is the view's invalidation sequence at fill time; an entry
	// whose gen falls below a bumped per-key or view-wide floor is
	// stale and lazily discarded on its next probe (see inval.go).
	gen uint64
	// fgen is the presence-filter generation at Add time (freq.go);
	// zero and unused when the frequency plane is off.
	fgen uint64
	// filler is the txn id of the O3 run that last appended to the
	// entry (0 for a routed refill or hot-set push) and fillSeq the
	// view's fill sequence at that append; fill uses them to keep two
	// concurrent O3s from caching the same result tuples twice.
	filler  uint64
	fillSeq uint64
}

// View is one live partial materialized view.
type View struct {
	cfg        Config
	eng        *engine.Engine
	coder      bcpCoder
	selectPlus []expr.ColumnRef // Ls′
	nUserCols  int              // |Ls|: prefix of Ls′ shown to users
	condPos    []int            // per condition: its attribute's slot in Ls′ rows

	mu      sync.Mutex
	entries map[string]*entry
	fillSeq uint64 // bumped on every append to any entry
	policy  cache.Policy
	maint   *maintIndex // nil unless UseMaintIndex

	// Invalidation generations (see inval.go): invalSeq stamps new
	// entries, invalGen/invalAll are per-key and view-wide staleness
	// floors.
	invalSeq uint64
	invalGen map[string]uint64
	invalAll uint64

	// Frequency plane (freq.go): nil when off. hotFloor orders hot-set
	// pushes against hot invalidations per replicated key.
	freq     *freqpkg.ViewFreq
	hotFloor map[string]uint64

	stats Stats
}

// NewView builds a PMV over eng from cfg and registers it for change
// notifications (deferred maintenance).
func NewView(eng *engine.Engine, cfg Config) (*View, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	tpl := cfg.Template

	// Expanded select list Ls′: Ls plus every Cselect attribute
	// (Section 3.2) — the search procedure needs them to recover the
	// conceptual bcp from a stored tuple.
	selectPlus, condPos := SelectPlusLayout(tpl)

	coder := bcpCoder{
		forms: make([]expr.CondForm, len(tpl.Conds)),
		discs: make([]*Discretizer, len(tpl.Conds)),
	}
	for i, ct := range tpl.Conds {
		coder.forms[i] = ct.Form
		if ct.Form == expr.IntervalForm {
			coder.discs[i] = NewDiscretizer(cfg.Dividers[i])
		}
	}

	pol, err := cache.New(cfg.Policy, cfg.MaxEntries)
	if err != nil {
		return nil, err
	}

	v := &View{
		cfg:        cfg,
		eng:        eng,
		coder:      coder,
		selectPlus: selectPlus,
		nUserCols:  len(tpl.Select),
		condPos:    condPos,
		entries:    make(map[string]*entry),
		invalGen:   make(map[string]uint64),
		policy:     pol,
	}
	if cfg.UseMaintIndex {
		v.maint = newMaintIndex(tpl, selectPlus)
	}
	eng.RegisterObserver(v)
	return v, nil
}

// Name returns the view's name.
func (v *View) Name() string { return v.cfg.Name }

// Drop detaches the view from the engine's change notifications and
// releases its cached content. The view must not be used afterwards.
func (v *View) Drop() {
	v.eng.UnregisterObserver(v)
	v.mu.Lock()
	defer v.mu.Unlock()
	v.entries = make(map[string]*entry)
	v.maint = nil
	if v.freq != nil {
		v.freq.Filter.Reset()
	}
}

// Config returns the (filled) configuration.
func (v *View) Config() Config { return v.cfg }

// SelectPlus returns the expanded select list Ls′.
func (v *View) SelectPlus() []expr.ColumnRef {
	return append([]expr.ColumnRef(nil), v.selectPlus...)
}

func (v *View) lockRes() string { return "pmv:" + v.cfg.Name }

// condValues extracts the condition-attribute values from an Ls′ row.
func (v *View) condValues(t value.Tuple) []value.Value {
	out := make([]value.Value, len(v.condPos))
	for i, p := range v.condPos {
		out[i] = t[p]
	}
	return out
}

// userTuple projects an Ls′ row down to the user-visible Ls columns.
func (v *View) userTuple(t value.Tuple) value.Tuple {
	return t[:v.nUserCols]
}

// Result is one delivered result tuple.
type Result struct {
	// Tuple holds the Ls columns the user asked for.
	Tuple value.Tuple
	// Partial is true when the tuple came from the PMV in Operation
	// O2 (before query execution).
	Partial bool
}

// QueryReport summarizes one ExecutePartial call.
type QueryReport struct {
	// Hit is true when any probed basic condition part was present in
	// the view (the paper's "partial hit" definition, Section 4.1).
	Hit bool
	// ConditionParts is the number of parts O1 produced (h).
	ConditionParts int
	// PartialTuples is the number of tuples served from the PMV.
	PartialTuples int
	// TotalTuples is the total result size.
	TotalTuples int
	// PartialLatency is the time to produce all partial results
	// (Operations O1+O2) — the paper's "within a millisecond" claim.
	PartialLatency time.Duration
	// Overhead is the extra work attributable to the PMV method:
	// O1+O2 plus O3's per-tuple DS checks and view refill bookkeeping.
	Overhead time.Duration
	// ExecLatency is the time spent executing the query itself.
	ExecLatency time.Duration
	// Skipped is true when the query bypassed the PMV (O1 blew the
	// condition-part cap).
	Skipped bool
	// Degraded is true when the view's S lock could not be acquired
	// (even after the engine's retries) and the query was answered by
	// plain execution instead: results are complete and correct, but
	// nothing was served early and the view was not refreshed.
	Degraded bool
	// DeadlineExpired is true when the caller's context deadline ran
	// out before Operation O3 finished: every delivered tuple is
	// correct, the O2 tuples arrived flagged Partial, but the result
	// set may be incomplete (the paper's bounded-response-time story —
	// hot results in time, the tail traded for the deadline).
	DeadlineExpired bool
	// PartialOnly is true when only Operations O1+O2 ran (by request —
	// the service layer's load shedding). Results are the view's
	// cached partials; O3 never executed and the view was not
	// refreshed.
	PartialOnly bool
}

// ExecutePartial answers q with the PMV protocol: Operation O1 breaks
// Cselect into condition parts, O2 serves cached partial results
// immediately, O3 executes the query, suppresses already-delivered
// tuples via the DS multiset, and refreshes the view for free. emit
// receives every result exactly once.
func (v *View) ExecutePartial(q *expr.Query, emit func(Result) error) (QueryReport, error) {
	return v.ExecutePartialCtx(context.Background(), q, emit)
}

// ExecutePartialCtx is ExecutePartial with deadline/cancellation
// semantics, the contract the query service is built on:
//
//   - A context cancelled at any point aborts the query with ctx.Err();
//     the view's S lock is released and the view stays consistent (DS
//     is per-call state, nothing leaks).
//   - A context whose *deadline* expires does not fail the query: the
//     O2 partial results already delivered (flagged Partial) stand,
//     O3 stops where it is, and the report comes back with
//     DeadlineExpired set and a nil error — bounded response time at
//     the cost of a possibly-incomplete tail.
func (v *View) ExecutePartialCtx(ctx context.Context, q *expr.Query, emit func(Result) error) (QueryReport, error) {
	run, done, err := v.beginPartial(ctx, q, emit)
	if done || err != nil {
		return run.rep, err
	}
	defer v.eng.Locks().ReleaseAll(run.txn)

	start := time.Now()
	if err := v.probeO2(run, emit); err != nil {
		return run.rep, err
	}
	run.rep.PartialLatency = time.Since(start)

	// A deadline that expired while O2 streamed still delivered the
	// hot partials — skip O3 rather than fail.
	if ctxErr := ctx.Err(); ctxErr != nil {
		return v.finishTruncated(run.rep, ctxErr)
	}

	// --- Operation O3 ---
	execStart := time.Now()
	var execMark int64
	if run.tr != nil {
		execMark = run.tr.AllocMark()
	}
	var o3Overhead time.Duration
	var dups int64
	ds := run.ds
	err = v.eng.ExecuteProjectCtx(ctx, q, v.selectPlus, func(t value.Tuple) error {
		tupStart := time.Now()
		key := string(value.EncodeTuple(nil, t))
		if n := ds[key]; n > 0 {
			// Already delivered in O2: consume one DS token so
			// duplicate result tuples are still delivered the right
			// number of times (the paper's multiset argument).
			if n == 1 {
				delete(ds, key)
			} else {
				ds[key] = n - 1
			}
			dups++
			o3Overhead += time.Since(tupStart)
			return nil
		}
		v.fill(t, run)
		o3Overhead += time.Since(tupStart)
		run.rep.TotalTuples++
		return emit(Result{Tuple: v.userTuple(t), Partial: false})
	})
	emitted := int64(run.rep.TotalTuples)
	run.rep.TotalTuples += run.rep.PartialTuples
	run.rep.ExecLatency = time.Since(execStart)
	run.rep.Overhead = run.rep.PartialLatency + o3Overhead
	if run.tr != nil {
		run.tr.SpanCost(obs.KindO3, execStart, emitted+dups, emitted, dups,
			obs.Cost{Allocs: run.tr.AllocMark() - execMark})
		run.tr.Event(obs.KindRefill, run.refTuples, run.refEntries, run.refEvicted)
	}
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
			return v.finishTruncated(run.rep, ctxErr)
		}
		return run.rep, err
	}

	// After O3, every DS token must have been consumed: the partial
	// results were a subset of the full results (serializability held).
	if len(ds) != 0 {
		// The unaccounted tuples came from entries this query probed:
		// invalidate those, so that the retry this error invites runs
		// against the base data instead of meeting the same stale
		// entries until their deferred purge arrives. Without it a
		// reader retrying every hundred microseconds can exhaust any
		// retry budget inside one write batch's apply → fsync → purge
		// window.
		keys := make([]string, len(run.parts))
		for i := range run.parts {
			keys[i] = run.parts[i].BCPKey
		}
		v.BumpKeyGens(keys)
		return run.rep, fmt.Errorf("core: %d partial tuples not found during execution (consistency violation)", len(ds))
	}

	v.mu.Lock()
	v.statsQueryLocked(&run.rep)
	v.mu.Unlock()
	return run.rep, nil
}

// PartialOnly answers q from the view alone: Operations O1+O2 under
// the S lock, no query execution, no refresh. It is the admission
// controller's shed path — a bounded-quality answer (cached hot
// tuples, possibly empty) at O2 cost. Every emitted result is flagged
// Partial.
func (v *View) PartialOnly(q *expr.Query, emit func(Result) error) (QueryReport, error) {
	return v.PartialOnlyCtx(context.Background(), q, emit)
}

// PartialOnlyCtx is PartialOnly with a context, carried only for trace
// propagation (O1+O2 are fast enough that deadline checks between them
// would be noise).
func (v *View) PartialOnlyCtx(ctx context.Context, q *expr.Query, emit func(Result) error) (QueryReport, error) {
	run, done, err := v.beginPartial(ctx, q, emit)
	if done || err != nil {
		return run.rep, err
	}
	defer v.eng.Locks().ReleaseAll(run.txn)

	start := time.Now()
	if err := v.probeO2(run, emit); err != nil {
		return run.rep, err
	}
	run.rep.PartialLatency = time.Since(start)
	run.rep.Overhead = run.rep.PartialLatency
	run.rep.TotalTuples = run.rep.PartialTuples
	run.rep.PartialOnly = true

	v.mu.Lock()
	v.statsQueryLocked(&run.rep)
	v.stats.PartialOnlyQueries++
	v.mu.Unlock()
	return run.rep, nil
}

// partialRun is the per-query state of one PMV protocol execution: the
// report under construction, O1's condition parts, the DS delivered-
// tuple multiset, the 2Q admission memo, the lock-owning txn, the
// query's trace (nil when tracing is off), and the refill counters the
// trace reports.
type partialRun struct {
	rep   QueryReport
	parts []ConditionPart
	ds    map[string]int
	admit map[string]bool
	txn   uint64
	tr    *obs.Trace
	// fillMark is the view's fill sequence when O2 looked at the
	// entries: anything appended later is unknown to ds.
	fillMark uint64
	// Refill deltas accumulated by fill/dropEntriesLocked during O3,
	// recorded as the trace's refill event.
	refTuples  int64
	refEntries int64
	refEvicted int64
}

// beginPartial validates q, takes the S lock, and runs Operation O1.
// When the query was already answered — a validation error, or the
// degraded no-lock path (which streams full results to emit) — done is
// true and run.rep/err carry the outcome; the caller must not continue
// the protocol.
func (v *View) beginPartial(ctx context.Context, q *expr.Query, emit func(Result) error) (run *partialRun, done bool, err error) {
	run = &partialRun{tr: obs.FromContext(ctx)}
	if err := q.Validate(); err != nil {
		return run, true, err
	}
	if q.Template != v.cfg.Template && q.Template.Name != v.cfg.Template.Name {
		return run, true, fmt.Errorf("core: query template %q does not match view template %q",
			q.Template.Name, v.cfg.Template.Name)
	}

	// Section 3.6 protocol: S lock from O2 through O3. When the lock
	// cannot be had even after the engine's retries (a wedged or
	// long-running maintainer), degrade instead of failing: the query
	// is still answerable without the view.
	run.txn = v.eng.NewTxnID()
	lockStart := time.Now()
	lockErr := v.eng.AcquireLock(run.txn, v.lockRes(), lock.Shared)
	lockWait := time.Since(lockStart)
	v.mu.Lock()
	v.stats.LockWaitTime += lockWait
	v.mu.Unlock()
	if lockErr != nil {
		if errors.Is(lockErr, lock.ErrTimeout) {
			run.tr.Span(obs.KindLockWait, lockStart, 0, 0, 0)
			rep, derr := v.executeDegraded(run.tr, q, emit)
			run.rep = rep
			return run, true, derr
		}
		return run, true, lockErr
	}
	run.tr.Span(obs.KindLockWait, lockStart, 1, 0, 0)

	// --- Operation O1 ---
	var o1Start time.Time
	var o1Mark int64
	if run.tr != nil {
		o1Start = time.Now()
		o1Mark = run.tr.AllocMark()
	}
	parts, err := v.coder.BreakConditions(q, v.cfg.MaxConditionParts)
	if errors.Is(err, ErrTooManyParts) {
		run.rep.Skipped = true
		parts = nil
	} else if err != nil {
		v.eng.Locks().ReleaseAll(run.txn)
		return run, true, err
	}
	if run.tr != nil {
		var inexact int64
		for i := range parts {
			if !parts[i].Exact {
				inexact++
			}
		}
		run.tr.SpanCost(obs.KindO1, o1Start, int64(len(parts)), inexact, 0,
			obs.Cost{Allocs: run.tr.AllocMark() - o1Mark})
	}
	run.parts = parts
	run.rep.ConditionParts = len(parts)
	// DS: the temporary in-memory multiset of delivered tuples.
	run.ds = make(map[string]int)
	run.admit = make(map[string]bool) // per-query admission memo (2Q)
	return run, false, nil
}

// probeO2 runs Operation O2: serve cached partial results for every
// condition part, recording delivered tuples in the DS multiset. Each
// probed part gets its own trace span (index, tuples served, hit/miss).
func (v *View) probeO2(run *partialRun, emit func(Result) error) error {
	parts, ds, admitDecided, rep, tr := run.parts, run.ds, run.admit, &run.rep, run.tr
	v.mu.Lock()
	run.fillMark = v.fillSeq
	for pi := range parts {
		cp := &parts[pi]
		var pStart time.Time
		var pMark int64
		if tr != nil {
			pStart = time.Now()
			pMark = tr.AllocMark()
		}
		before := rep.PartialTuples
		var hit int64
		// Frequency plane: every probe trains the sketch; a filter
		// negative proves no live entry exists, so the lookup (and any
		// policy work) is skipped outright.
		est, proceed := v.probeFreqLocked(cp.BCPKey)
		if !proceed {
			if tr != nil {
				tr.SpanCost(obs.KindO2Probe, pStart, int64(pi), 0, 0,
					obs.Cost{Allocs: tr.AllocMark() - pMark})
			}
			continue
		}
		e, ok := v.liveEntryLocked(cp.BCPKey)
		if v.freq != nil && !ok {
			v.stats.FilterFalsePositives++
		}
		switch {
		case ok:
			v.policy.Lookup(cp.BCPKey)
			e.accesses++
			hit = 1
		case v.policy.Lookup(cp.BCPKey):
			hit = 1 // bcp tracked by policy but currently tupleless
		default:
			// Record the reference for admission-filtered policies
			// (2Q's A1); CLOCK/LRU admit lazily in O3 instead. With the
			// frequency plane on, a key below the popularity threshold
			// is not even recorded — cold scans leave no footprint.
			if _, done := admitDecided[cp.BCPKey]; !done && v.admitGateLocked(cp.BCPKey, est, true) {
				if v.policyIsTwoQueue() {
					adm, evicted := v.policy.RequestAdmit(cp.BCPKey)
					v.dropEntriesLocked(evicted)
					admitDecided[cp.BCPKey] = adm
				}
			}
		}
		if hit == 1 {
			rep.Hit = true
		}
		if hit == 1 && ok {
			for _, t := range e.tuples {
				// A cached tuple belongs to the bcp; if the part is not
				// exact it may still fall outside the query — re-check.
				if !cp.Exact && !cp.Matches(v.condValues(t)) {
					continue
				}
				key := string(value.EncodeTuple(nil, t))
				ds[key]++
				rep.PartialTuples++
				v.mu.Unlock()
				err := emit(Result{Tuple: v.userTuple(t), Partial: true})
				v.mu.Lock()
				if err != nil {
					v.mu.Unlock()
					return err
				}
			}
		}
		if tr != nil {
			tr.SpanCost(obs.KindO2Probe, pStart, int64(pi), int64(rep.PartialTuples-before), hit,
				obs.Cost{Allocs: tr.AllocMark() - pMark})
		}
	}
	v.statsO2Locked(rep)
	v.mu.Unlock()
	return nil
}

// finishTruncated ends a context-interrupted query. Deadline expiry is
// the service contract — partial results stand, DeadlineExpired is
// flagged, no error. Explicit cancellation aborts with ctx.Err().
func (v *View) finishTruncated(rep QueryReport, ctxErr error) (QueryReport, error) {
	if rep.TotalTuples < rep.PartialTuples {
		rep.TotalTuples = rep.PartialTuples
	}
	if !errors.Is(ctxErr, context.DeadlineExceeded) {
		return rep, ctxErr
	}
	rep.DeadlineExpired = true
	v.mu.Lock()
	v.statsQueryLocked(&rep)
	v.stats.DeadlineQueries++
	v.mu.Unlock()
	return rep, nil
}

// executeDegraded answers q without touching the view: no partial
// results, no DS bookkeeping, no refill (filling without the S lock
// could cache tuples a concurrent maintainer is about to invalidate).
// The result set is identical to a healthy run's — only the early
// delivery and the free refresh are lost. The trace rides on a fresh
// context so the degraded path keeps its historical no-deadline
// semantics while still recording plan/exec spans.
func (v *View) executeDegraded(tr *obs.Trace, q *expr.Query, emit func(Result) error) (QueryReport, error) {
	rep := QueryReport{Skipped: true, Degraded: true}
	start := time.Now()
	err := v.eng.ExecuteProjectCtx(obs.WithTrace(context.Background(), tr), q, v.selectPlus, func(t value.Tuple) error {
		rep.TotalTuples++
		return emit(Result{Tuple: v.userTuple(t)})
	})
	rep.ExecLatency = time.Since(start)
	if err != nil {
		return rep, err
	}
	v.eng.NoteDegraded()
	v.mu.Lock()
	v.stats.Queries++
	v.stats.DegradedQueries++
	v.stats.O3Time += rep.ExecLatency
	v.mu.Unlock()
	return rep, nil
}

// fill implements Operation O3's view refresh: cache t under its
// containing bcp, bounded by F per entry, with policy admission.
// Entries exist only for bcps the policy currently tracks; a bcp
// admitted earlier in this query but already evicted again (a query
// with more hot parts than the view has entries) is simply not cached.
func (v *View) fill(t value.Tuple, run *partialRun) {
	admitDecided := run.admit
	key := v.coder.KeyFromCondValues(v.condValues(t))
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.policy.Contains(key) {
		if _, decided := admitDecided[key]; decided {
			// Either the policy declined (2Q first sighting), or the
			// key was admitted and evicted again within this query.
			return
		}
		// Popularity gate: a fresh key below the sliding threshold is
		// not cached at all — a cold scan's one-shot keys stop churning
		// the replacement rings.
		if !v.admitGateLocked(key, 0, false) {
			admitDecided[key] = false
			return
		}
		adm, evicted := v.policy.RequestAdmit(key)
		run.refEvicted += int64(v.dropEntriesLocked(evicted))
		admitDecided[key] = adm
		if !adm {
			return
		}
	}
	e, ok := v.liveEntryLocked(key)
	if !ok {
		e = &entry{gen: v.invalSeq}
		v.entries[key] = e
		v.stats.EntriesCreated++
		v.freqAddLocked(key, e)
		run.refEntries++
	}
	if len(e.tuples) >= v.cfg.TuplesPerBCP {
		return // the F bound (cj ≥ F)
	}
	if e.filler != run.txn && e.fillSeq > run.fillMark {
		// Someone else appended to this entry after our O2 looked at
		// it — typically a concurrent query that missed the same bcp
		// and is producing the same result tuples. ds has never seen
		// its appends, so adding ours beside them would cache a tuple
		// twice and the next query's O2 would deliver it twice. The
		// entry is that filler's to complete.
		return
	}
	ct := t.Clone()
	e.tuples = append(e.tuples, ct)
	v.stampFillLocked(e, run.txn)
	v.stats.TuplesCached++
	run.refTuples++
	if v.maint != nil {
		v.maint.add(key, ct)
	}
}

// stampFillLocked records that the run with txn id filler (0 outside
// O3) just appended to e. Caller holds v.mu.
func (v *View) stampFillLocked(e *entry, filler uint64) {
	v.fillSeq++
	e.filler, e.fillSeq = filler, v.fillSeq
}

// dropEntriesLocked removes evicted bcps' cached tuples, returning the
// number of entries actually dropped (for the trace's refill event).
func (v *View) dropEntriesLocked(keys []string) int {
	dropped := 0
	for _, k := range keys {
		if e, ok := v.entries[k]; ok {
			v.stats.EntriesEvicted++
			v.stats.TuplesEvicted += int64(len(e.tuples))
			delete(v.entries, k)
			v.freqRemoveLocked(k, e)
			dropped++
			if v.maint != nil {
				v.maint.dropEntry(k)
			}
		}
	}
	return dropped
}

// Len returns the number of entries currently holding tuples.
func (v *View) Len() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.entries)
}

// TupleCount returns the total number of cached tuples.
func (v *View) TupleCount() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := 0
	for _, e := range v.entries {
		n += len(e.tuples)
	}
	return n
}

// CheckInvariants verifies the view's structural invariants
// (DESIGN.md Section 4, invariant 3): no more than L entries, no more
// than F tuples per entry, every cached tuple encodes back to its
// entry's basic condition part, and every entry is tracked by the
// replacement policy. The torture harness calls it after recovery and
// after every workload phase.
func (v *View) CheckInvariants() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.entries) > v.cfg.MaxEntries {
		return fmt.Errorf("core: %d entries exceed MaxEntries %d", len(v.entries), v.cfg.MaxEntries)
	}
	for key, e := range v.entries {
		if len(e.tuples) > v.cfg.TuplesPerBCP {
			return fmt.Errorf("core: entry %q holds %d tuples, F=%d", key, len(e.tuples), v.cfg.TuplesPerBCP)
		}
		for _, t := range e.tuples {
			if len(t) != len(v.selectPlus) {
				return fmt.Errorf("core: cached tuple arity %d, want %d", len(t), len(v.selectPlus))
			}
			if got := v.coder.KeyFromCondValues(v.condValues(t)); got != key {
				return fmt.Errorf("core: cached tuple under bcp %q encodes to %q", key, got)
			}
		}
		if !v.policy.Contains(key) {
			return fmt.Errorf("core: entry %q not tracked by the replacement policy", key)
		}
		if v.freq != nil && v.entryLiveLocked(key, e) && e.fgen == v.freq.Filter.Gen() &&
			!v.freq.Filter.MayContain(key) {
			return fmt.Errorf("core: live entry %q absent from the presence filter (false negative)", key)
		}
	}
	return nil
}

// SizeBytes estimates the view's storage footprint (Section 3.2's
// UB ≥ L·F·At accounting): cached tuple bytes plus per-entry key
// overhead.
func (v *View) SizeBytes() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := 0
	for k, e := range v.entries {
		n += len(k)
		for _, t := range e.tuples {
			n += value.EncodedSize(t)
		}
	}
	return n
}
