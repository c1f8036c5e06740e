package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"pmv/internal/cache"
	"pmv/internal/engine"
	"pmv/internal/exec"
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
	return nil
}

// entry is one PMV entry: a basic condition part with its cached
// result tuples (rows over the expanded select list Ls′) and the
// popularity counter used by the ranking extension.
type entry struct {
	key string // the bcp key the entry is stored under
	// tuples is written whole (writeEntryLocked) and never appended to:
	// readers range over it outside v.mu. Only the purge, under the X
	// lock, edits it in place.
	tuples   []value.Tuple
	accesses int64
	// completeSeq is the view's insert count when the commit found
	// tuples to be the bcp's whole answer, 0 if it never did. The entry
	// is complete while that count stands (View.completeLocked): an
	// insert, or an update that moves rows, bumps it and so ends every
	// mark at once, and a write of the entry or a purge resets it.
	completeSeq uint64
	// h is the entry's maintenance-index handle and at its back-pointers:
	// at[slot·|relations|+r] is the posting of tuple slot under
	// relation r (maintain.go).
	h  int32
	at []int32
}

// View is one live partial materialized view.
type View struct {
	cfg        Config
	eng        *engine.Engine
	coder      *BCPCoder
	o3         *exec.Prepared   // Operation O3: the template planned once
	selectPlus []expr.ColumnRef // Ls′
	nUserCols  int              // |Ls|: prefix of Ls′ shown to users
	condPos    []int            // per condition: its attribute's slot in Ls′ rows

	mu      sync.Mutex
	entries map[string]*entry
	policy  cache.Policy
	maint   *maintIndex

	// Frequency plane (freq.go): nil when off. hotFloor orders hot-set
	// pushes against hot invalidations per replicated key.
	freq     *freqpkg.ViewFreq
	hotFloor map[string]uint64

	// insertSeq counts the inserts, the row-moving updates and the
	// invalidations the view was told of, from 1: a query whose O2 saw
	// an older count marks nothing complete, since its O3 may have
	// missed what they stand for, and an entry marked under an older
	// count is no longer complete.
	insertSeq uint64

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

	coder, err := NewBCPCoder(tpl, cfg.Dividers, cfg.MaxConditionParts)
	if err != nil {
		return nil, err
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
		o3:         eng.Prepare(tpl, selectPlus),
		entries:    make(map[string]*entry),
		hotFloor:   make(map[string]uint64),
		policy:     pol,
		maint:      newMaintIndex(tpl, selectPlus, cfg.TuplesPerBCP),
		insertSeq:  1,
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
	v.resetLocked()
}

// resetLocked removes every entry at once: a fresh entry map, a fresh
// maintenance index and an empty presence filter. The replacement
// policy keeps tracking the keys. Caller holds v.mu.
func (v *View) resetLocked() {
	v.entries = make(map[string]*entry)
	v.maint = newMaintIndex(v.cfg.Template, v.selectPlus, v.cfg.TuplesPerBCP)
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

// completeLocked reports whether e holds its bcp's whole answer: the
// commit marked it under the insert count that still stands. Caller
// holds v.mu.
func (v *View) completeLocked(e *entry) bool { return e.completeSeq == v.insertSeq }

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
	// PartHits counts probed parts whose bcp was present.
	PartHits int
	// CompleteParts counts the parts O2 served whole, from an entry
	// holding its bcp's whole answer, which O3 need not cover.
	CompleteParts int
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
	return v.ExecutePhasedCtx(ctx, q, emit, nil)
}

// ExecutePhasedCtx is ExecutePartialCtx with an end-of-O2 signal:
// endO2, when non-nil, runs once after O2 emitted its last partial and
// before O3 starts — the point where a network front door sends the
// partials it has buffered. Its error aborts the query like an emit
// error. A degraded query has no O2 and never calls it.
func (v *View) ExecutePhasedCtx(ctx context.Context, q *expr.Query, emit func(Result) error, endO2 func() error) (QueryReport, error) {
	return v.execute(ctx, q, false, emit, endO2)
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
	return v.execute(ctx, q, true, emit, nil)
}

// execute validates q, takes the Section 3.6 S lock from O2 through O3
// and runs the protocol over the view (Run). When the lock cannot be
// had even after the engine's retries (a wedged or long-running
// maintainer), the query degrades instead of failing: it is still
// answerable without the view.
func (v *View) execute(ctx context.Context, q *expr.Query, partialOnly bool, emit func(Result) error, endO2 func() error) (QueryReport, error) {
	if err := v.checkQuery(q); err != nil {
		return QueryReport{}, err
	}
	src := localSources.Get().(*localSource)
	defer src.release()
	src.v, src.tr, src.txn, src.user = v, obs.FromContext(ctx), v.eng.NewTxnID(), emit
	if err := v.lockShared(src.tr, src.txn); err != nil {
		if errors.Is(err, lock.ErrTimeout) {
			return v.executeDegraded(src.tr, q, emit)
		}
		return QueryReport{}, err
	}
	defer v.eng.Locks().ReleaseAll(src.txn)

	rep, err := Run(ctx, src, q, v.nUserCols, partialOnly, src.out, endO2)
	if err != nil {
		return rep, err
	}
	v.mu.Lock()
	v.statsQueryLocked(&rep, src.fills.ran)
	if rep.DeadlineExpired {
		v.stats.DeadlineQueries++
	}
	if rep.PartialOnly {
		v.stats.PartialOnlyQueries++
	}
	v.mu.Unlock()
	return rep, nil
}

// lockShared takes the view's S lock for txn, adds the wait to
// LockWaitTime and traces it (1 = acquired, 0 = failed).
func (v *View) lockShared(tr *obs.Trace, txn uint64) error {
	start := time.Now()
	err := v.eng.AcquireLock(txn, v.lockRes(), lock.Shared)
	v.mu.Lock()
	v.stats.LockWaitTime += time.Since(start)
	v.mu.Unlock()
	acquired := int64(1)
	if err != nil {
		acquired = 0
	}
	tr.Span(obs.KindLockWait, start, acquired, 0, 0)
	return err
}

// checkQuery validates q and that it instantiates the view's template.
func (v *View) checkQuery(q *expr.Query) error {
	if err := q.Validate(); err != nil {
		return err
	}
	if q.Template != v.cfg.Template && q.Template.Name != v.cfg.Template.Name {
		return fmt.Errorf("core: query template %q does not match view template %q",
			q.Template.Name, v.cfg.Template.Name)
	}
	return nil
}

// localSource is the view's side of one query (Source): the txn that
// holds the S lock, the query's trace (nil when tracing is off) and its
// fill table. Sources are pooled with their table, their key scratch
// and their result callback, so a warm query allocates none of them.
type localSource struct {
	v   *View
	tr  *obs.Trace
	txn uint64
	// user is the caller's emit and out the one Run calls: it hands an
	// O3 row to user as a copy, since the row is O3's plan's own.
	user  func(Result) error
	out   func(Result) error
	fills fillTable
	// Fill's scratch: a row's condition values and its bcp key.
	condVals []value.Value
	key      []byte
}

var localSources = sync.Pool{New: func() any {
	s := new(localSource)
	s.out = s.emitUser
	return s
}}

// release clears the query out of s and pools it.
func (s *localSource) release() {
	clear(s.fills.idx)
	clear(s.fills.bcps)
	clear(s.condVals)
	*s = localSource{fills: fillTable{idx: s.fills.idx, bcps: s.fills.bcps[:0]}, out: s.out, condVals: s.condVals[:0], key: s.key[:0]}
	localSources.Put(s)
}

func (s *localSource) emitUser(r Result) error {
	if !r.Partial {
		r.Tuple = r.Tuple.Clone()
	}
	return s.user(r)
}

func (s *localSource) Parts(buf *PartBuf, q *expr.Query) ([]ConditionPart, error) {
	return s.v.coder.BreakConditionsInto(buf, q)
}

// Probe serves the view's cached tuples. The local O2 never stops for
// the context: the hot partials are the point of a deadline.
func (s *localSource) Probe(_ context.Context, parts []ConditionPart, emit func(value.Tuple, string) error) (ProbeReport, error) {
	return s.v.probe(context.Background(), s.tr, parts, &s.fills, emit)
}

// Exec runs the view's prepared O3 over q with DS's check bound into
// it, and records whether it ran to its end.
func (s *localSource) Exec(ctx context.Context, _ int, q *expr.Query, dup func([]byte) bool, emit func(value.Tuple) error) (bool, error) {
	err := s.v.eng.ExecutePreparedCtx(ctx, s.v.o3, q, dup, emit)
	s.fills.ran = err == nil
	return false, err
}

// Refill commits the staged rows (commit) and reports the commit in
// the trace.
func (s *localSource) Refill([]string) {
	tuples, entries, evicted := s.v.commit(&s.fills)
	s.tr.Event(obs.KindRefill, tuples, entries, evicted)
}

func (s *localSource) Invalidate(keys []string) { s.v.InvalidateKeys(keys) }

// probe is Operation O2's one loop, for local queries and routed probe
// batches alike: under the caller's S lock, serve the cached tuples of
// every present bcp by emit (re-checking tuples of non-exact parts), and
// record popularity and admission the same way for both, so routed and
// local workloads train the replacement policy identically. A part
// served from a complete entry is marked Whole. fills gets the insert
// count, the entry each part met and O2's 2Q admission decision. ctx is
// checked between parts. Each part gets its own trace span (index,
// tuples served, hit/miss).
func (v *View) probe(ctx context.Context, tr *obs.Trace, parts []ConditionPart, fills *fillTable, emit func(value.Tuple, string) error) (ProbeReport, error) {
	var rep ProbeReport
	v.mu.Lock()
	fills.seq = v.insertSeq
	for pi := range parts {
		if err := ctx.Err(); err != nil {
			v.mu.Unlock()
			return rep, err
		}
		cp := &parts[pi]
		var pStart time.Time
		var pMark int64
		if tr != nil {
			pStart, pMark = time.Now(), tr.AllocMark()
		}
		before := rep.PartialTuples
		var hit int64
		// Frequency plane: every probe trains the sketch; a filter
		// negative proves no entry exists, so the lookup (and any
		// policy work) is skipped outright.
		est, proceed := v.probeFreqLocked(cp.BCPKey)
		if !proceed {
			fills.saw(cp, nil)
			if tr != nil {
				tr.SpanCost(obs.KindO2Probe, pStart, int64(pi), 0, 0,
					obs.Cost{Allocs: tr.AllocMark() - pMark})
			}
			continue
		}
		e, ok := v.entries[cp.BCPKey]
		if v.freq != nil && !ok {
			v.stats.FilterFalsePositives++
		}
		b := fills.saw(cp, e)
		switch {
		case ok:
			v.policy.Lookup(cp.BCPKey)
			e.accesses++
			hit = 1
		case v.policy.Lookup(cp.BCPKey):
			hit = 1 // bcp tracked by policy but currently tupleless
		default:
			// Record the reference for admission-filtered policies
			// (2Q's A1); CLOCK/LRU admit at the fill's commit instead. With the
			// frequency plane on, a key below the popularity threshold
			// is not even recorded — cold scans leave no footprint.
			if !b.declined && v.admitGateLocked(cp.BCPKey, est, true) && v.policyIsTwoQueue() {
				adm, evicted := v.policy.RequestAdmit(cp.BCPKey)
				v.removeKeysLocked(evicted, &v.stats.EntriesEvicted, &v.stats.TuplesEvicted)
				b.declined = !adm
			}
		}
		if hit == 1 {
			rep.Hit = true
			rep.PartHits++
		}
		if hit == 1 && ok {
			cp.Whole = v.completeLocked(e)
			for _, t := range e.tuples {
				// A cached tuple belongs to the bcp; if the part is not
				// exact it may still fall outside the query — re-check.
				if !cp.Exact && !cp.Matches(v.condValues(t)) {
					continue
				}
				rep.PartialTuples++
				v.mu.Unlock()
				err := emit(t, cp.BCPKey)
				v.mu.Lock()
				if err != nil {
					v.mu.Unlock()
					return rep, err
				}
			}
		}
		cp.Served = rep.PartialTuples - before
		if tr != nil {
			tr.SpanCost(obs.KindO2Probe, pStart, int64(pi), int64(cp.Served), hit,
				obs.Cost{Allocs: tr.AllocMark() - pMark})
		}
	}
	v.stats.PartsProbed += int64(len(parts))
	v.stats.PartHits += int64(rep.PartHits)
	v.stats.PartialTuples += int64(rep.PartialTuples)
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
	err := v.eng.ExecutePreparedCtx(obs.WithTrace(context.Background(), tr), v.o3, q, nil, func(t value.Tuple) error {
		rep.TotalTuples++
		return emit(Result{Tuple: v.userTuple(t).Clone()})
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

// removeKeysLocked removes the entries of keys that have one — from
// the map, the presence filter and the maintenance index — adding them
// and their tuples to *entries and *tuples, and returns how many it
// removed. Caller holds v.mu.
func (v *View) removeKeysLocked(keys []string, entries, tuples *int64) int {
	removed := 0
	for _, k := range keys {
		if e, ok := v.entries[k]; ok {
			*entries++
			*tuples += int64(len(e.tuples))
			delete(v.entries, k)
			v.freqRemoveLocked(k)
			v.maint.release(e)
			removed++
		}
	}
	return removed
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
// entry's basic condition part, every entry is tracked by the
// replacement policy and, with the frequency plane on, every entry is in
// the presence filter and the filter holds as many keys as the view
// holds entries. The torture harness calls it after recovery and after
// every workload phase.
func (v *View) CheckInvariants() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.entries) > v.cfg.MaxEntries {
		return fmt.Errorf("core: %d entries exceed MaxEntries %d", len(v.entries), v.cfg.MaxEntries)
	}
	if v.freq != nil && v.freq.Filter.Keys() != len(v.entries) {
		return fmt.Errorf("core: presence filter holds %d keys, view %d entries", v.freq.Filter.Keys(), len(v.entries))
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
		if v.freq != nil && !v.freq.Filter.MayContain(key) {
			return fmt.Errorf("core: entry %q absent from the presence filter (false negative)", key)
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
