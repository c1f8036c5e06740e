// Package maint is the write plane: batched deferred maintenance for
// partial materialized views.
//
// Per-statement maintenance (core's ChangeObserver path) takes the
// view's X lock once per mutated tuple — correct, but the lock
// ping-pong with readers caps write throughput. The Plane replaces it
// with an ingest stage in the batcher idiom: writers enqueue ΔR
// batches on a bounded queue and a single flush worker drains it,
// applying each batch under ONE X-lock window per view. Consecutive
// point ops on the same relation+column coalesce into one engine
// statement over the run's match values (engine.EqSet: its rows come
// from an index led by the column when there is one, from one heap
// scan when not), and one WAL sync per batch (group commit) buys every
// request per-statement durability at a fraction of the fsync count.
//
// Maintenance runs inside the batch, while the plane still holds the
// X locks: the collector observer that stands in for the detached
// views hands every deleted or updated base tuple to each locked
// view's Purge, the same maintenance-index purge the per-statement
// path runs (Section 3.4 with the full version's [25] index). A
// request completes once its batch is applied, purged and synced; its
// Result names the bcps whose entries lost tuples. A view whose X lock
// could not be had, or whose purge failed, is invalidated whole
// (View.InvalidateAll) — correctness by cache loss.
//
// Correctness never depends on the plane alone: a stale entry that
// slips through (DML that bypassed it) is caught by the DS multiset
// audit at query time — a loud typed error, never a silently stale
// answer.
package maint

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pmv/internal/core"
	"pmv/internal/engine"
	"pmv/internal/obs"
	"pmv/internal/value"
	"pmv/internal/wire"
)

// Source is what the Plane maintains: an engine and its registered
// views (pmv.DB satisfies it).
type Source interface {
	Engine() *engine.Engine
	Views() []*core.View
}

// ErrClosed is returned by Apply after Close.
var ErrClosed = errors.New("maint: plane closed")

// Config tunes a Plane. Zero values get defaults.
type Config struct {
	Source Source
	// BatchSize caps the ops of one batch, and so one X-lock window
	// (default 64). The request that crosses it still rides along.
	BatchSize int
	// QueueDepth bounds queued requests; Apply blocks (ctx-aware) when
	// full (default 1024).
	QueueDepth int
	// Logf receives plane lifecycle messages (nil = silent).
	Logf func(format string, args ...any)
}

func (c *Config) fill() error {
	if c.Source == nil {
		return errors.New("maint: config needs a source")
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	return nil
}

// Result is one request's outcome. Keys/Wide cover the whole batch the
// request rode in (a superset of the request's own damage).
type Result struct {
	// Applied counts this request's ops that executed cleanly; Rows is
	// their total affected row count.
	Applied int
	Rows    int
	// Keys maps view name → the bcps whose entries the batch purged;
	// Wide marks views invalidated whole instead. Populated only when
	// Apply ran with wantKeys.
	Keys map[string][]string
	Wide map[string]bool
}

// request is one Apply call in the queue.
type request struct {
	ops  []wire.UpdateOp
	done chan struct{} // closed once the batch is applied, purged and synced

	// tr is the caller's trace (nil when untraced). The flush worker
	// bills the group-commit fsync to it via the thread-safe AddSpans
	// sink, always before done closes so the span is visible when Apply
	// returns.
	tr *obs.Trace

	applied int
	rows    int
	err     error
	keys    map[string][]string
	wide    map[string]bool
}

// batchState is what the collector records while a batch applies.
type batchState struct {
	views []damage // one per view whose X lock the batch holds
	// entries and tuples count what the purges removed; maint the time
	// they took.
	entries, tuples int64
	maint           time.Duration
}

// damage is one locked view's purge record for a batch.
type damage struct {
	v    *core.View
	keys []string // bcps purged, in purge order, possibly repeated
	wide bool     // a purge failed: invalidate the whole view
}

// Plane is the batched write plane. Create with New, feed with Apply,
// stop with Close (which re-attaches per-statement maintenance).
type Plane struct {
	cfg   Config
	eng   *engine.Engine
	views []*core.View // sorted by name; lock order
	col   *collector

	queue   chan *request
	closing chan struct{}
	closed  sync.Once
	wg      sync.WaitGroup

	pending atomic.Int64 // requests ingested but not yet completed

	curMu sync.Mutex
	cur   *batchState

	statsMu sync.Mutex
	stats   wire.MaintStats
}

// New builds a Plane over src and switches its views from
// per-statement to batched maintenance: the views are unregistered
// from the engine's observer list and a collector observer takes
// their place. The flush worker starts immediately.
func New(cfg Config) (*Plane, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	views := append([]*core.View(nil), cfg.Source.Views()...)
	sort.Slice(views, func(i, j int) bool { return views[i].Name() < views[j].Name() })
	p := &Plane{
		cfg:     cfg,
		eng:     cfg.Source.Engine(),
		views:   views,
		queue:   make(chan *request, cfg.QueueDepth),
		closing: make(chan struct{}),
	}
	p.col = &collector{p: p}
	for _, v := range p.views {
		p.eng.UnregisterObserver(v)
	}
	p.eng.RegisterObserver(p.col)
	p.wg.Add(1)
	go p.run()
	return p, nil
}

// Close drains the queue, applies the final batch, and re-attaches
// per-statement maintenance. Requests that raced the shutdown fail
// with ErrClosed.
func (p *Plane) Close() error {
	p.closed.Do(func() { close(p.closing) })
	p.wg.Wait()
	for {
		select {
		case r := <-p.queue:
			r.err = ErrClosed
			p.pending.Add(-1)
			close(r.done)
		default:
			p.eng.UnregisterObserver(p.col)
			for _, v := range p.views {
				p.eng.RegisterObserver(v)
			}
			return nil
		}
	}
}

// Pending reports whether any ingested request has not completed yet.
// The snapshot manager gates on it: a snapshot must not capture a
// cache beside base data a queued batch is about to change.
func (p *Plane) Pending() bool { return p.pending.Load() > 0 }

// Apply enqueues ops and waits until their batch is applied, purged
// and synced. With wantKeys the Result carries the batch's damage
// report.
//
// A per-op engine failure does not abort the batch: the op is skipped,
// counted, and reported as this request's error; the other ops stand
// (the queue is not transactional — it is a maintenance conduit).
func (p *Plane) Apply(ctx context.Context, ops []wire.UpdateOp, wantKeys bool) (Result, error) {
	r := &request{ops: ops, done: make(chan struct{}), tr: obs.FromContext(ctx)}
	select {
	case <-p.closing:
		return Result{}, ErrClosed
	default:
	}
	p.pending.Add(1)
	select {
	case p.queue <- r:
	case <-p.closing:
		p.pending.Add(-1)
		return Result{}, ErrClosed
	case <-ctx.Done():
		p.pending.Add(-1)
		return Result{}, ctx.Err()
	}
	p.statsMu.Lock()
	p.stats.OpsIngested += int64(len(ops))
	p.statsMu.Unlock()

	select {
	case <-r.done:
	case <-ctx.Done():
		// The request is queued and WILL apply; the caller just stops
		// waiting. Report the interruption truthfully.
		return Result{}, ctx.Err()
	}
	res := Result{Applied: r.applied, Rows: r.rows}
	if wantKeys {
		res.Keys, res.Wide = r.keys, r.wide
	}
	return res, r.err
}

// Stats snapshots the plane's counters.
func (p *Plane) Stats() wire.MaintStats {
	p.statsMu.Lock()
	s := p.stats
	p.statsMu.Unlock()
	s.QueueDepth = int64(len(p.queue))
	s.QueueCap = int64(cap(p.queue))
	return s
}

// run is the flush worker: gather what is queued, apply it, repeat;
// on close, drain and exit.
func (p *Plane) run() {
	defer p.wg.Done()
	for {
		select {
		case r := <-p.queue:
			p.applyBatch(p.gather(r))
		case <-p.closing:
			for {
				select {
				case r := <-p.queue:
					p.applyBatch(p.gather(r))
				default:
					return
				}
			}
		}
	}
}

// gather takes first plus the requests already queued behind it until
// the batch holds BatchSize ops, and returns at once: group commit
// with no delay. A lone writer waits for its ack, so nothing could
// join its batch by waiting; concurrent writers queue behind the
// batch being applied and synced, and ride the next one together.
// SizeFlushes counts the batches cut at BatchSize with requests still
// queued, the one sign that the cap binds.
func (p *Plane) gather(first *request) []*request {
	batch := []*request{first}
	for n := len(first.ops); n < p.cfg.BatchSize; {
		select {
		case r := <-p.queue:
			batch = append(batch, r)
			n += len(r.ops)
		default:
			return batch
		}
	}
	if len(p.queue) > 0 {
		p.statsMu.Lock()
		p.stats.SizeFlushes++
		p.statsMu.Unlock()
	}
	return batch
}

// applyBatch is one group commit: X-lock every view, apply the ops
// (the collector purges each victim from the locked views), bump the
// views it could not maintain, release, sync, and complete the
// requests.
func (p *Plane) applyBatch(batch []*request) {
	nops := 0
	for _, r := range batch {
		nops += len(r.ops)
	}
	p.statsMu.Lock()
	p.stats.Batches++
	if int64(nops) > p.stats.MaxBatchOps {
		p.stats.MaxBatchOps = int64(nops)
	}
	p.statsMu.Unlock()

	// One X-lock window per view for the whole batch — the amortized
	// ChangeBarrier. A lock that cannot be had does not block the
	// batch; that view's cache is wholly invalidated after the apply
	// (readers mid-protocol there may fail their DS audit — loud, not
	// stale).
	lockStart := time.Now()
	st := &batchState{views: make([]damage, 0, len(p.views))}
	releases := make([]func(), 0, len(p.views))
	var unbarriered []*core.View
	for _, v := range p.views {
		release, err := v.LockForMaintenance()
		if err != nil {
			unbarriered = append(unbarriered, v)
			continue
		}
		releases = append(releases, release)
		st.views = append(st.views, damage{v: v})
	}
	lockWait := time.Since(lockStart)

	p.curMu.Lock()
	p.cur = st
	p.curMu.Unlock()

	// Apply in batch order, coalescing consecutive point ops on the
	// same relation+column into one engine statement: N updates cost
	// one barrier and one pass over the index or heap instead of N.
	applyStart := time.Now()
	refs := make([]opRef, 0, nops)
	for _, r := range batch {
		for i := range r.ops {
			refs = append(refs, opRef{r: r, op: &r.ops[i]})
		}
	}
	var applied, opErrs, coalesced int64
	for i := 0; i < len(refs); {
		j := i + 1
		if coalescable(refs[i].op) {
			for j < len(refs) && sameRun(refs[i].op, refs[j].op) {
				j++
			}
		}
		var a, e int64
		if j-i > 1 {
			a, e = p.applyRun(refs[i:j])
			coalesced += int64(j - i)
		} else {
			a, e = p.applySingle(refs[i])
		}
		applied += a
		opErrs += e
		i = j
	}
	applyDur := time.Since(applyStart)

	p.curMu.Lock()
	p.cur = nil
	p.curMu.Unlock()
	keys, wide := p.report(st, unbarriered)
	for i := len(releases) - 1; i >= 0; i-- {
		releases[i]()
	}

	// Group commit: one WAL sync covers the whole batch, so every
	// completed request is as durable as a SyncEveryOp statement at a
	// fraction of the fsync count. A failed sync fails the batch —
	// acking would promise durability the log cannot back.
	syncStart := time.Now()
	syncErr := p.eng.SyncWAL()
	syncDur := time.Since(syncStart)
	if syncErr != nil {
		for _, r := range batch {
			if r.err == nil {
				r.err = fmt.Errorf("maint: group commit sync: %w", syncErr)
			}
		}
		if p.cfg.Logf != nil {
			p.cfg.Logf("maint: group commit sync failed: %v", syncErr)
		}
	}

	p.statsMu.Lock()
	p.stats.OpsApplied += applied
	p.stats.OpErrors += opErrs
	p.stats.CoalescedOps += coalesced
	p.stats.GroupSyncs++
	p.stats.SyncNs += syncDur.Nanoseconds()
	p.stats.LockWaitNs += lockWait.Nanoseconds()
	p.stats.ApplyNs += applyDur.Nanoseconds()
	p.statsMu.Unlock()

	// Bill the shared fsync to every traced request in the batch —
	// each rider carries the full sync duration (they all waited for
	// it) and one attributed fsync, with N1 recording how many requests
	// shared the group commit. Delivered through AddSpans because the
	// flush worker is not the trace's owner goroutine, and before done
	// closes so the span is visible the moment Apply returns.
	for _, r := range batch {
		if r.tr != nil {
			r.tr.AddSpans(obs.Span{
				Kind:   obs.KindSync,
				Start:  syncStart.Sub(r.tr.Begin),
				Dur:    syncDur,
				N1:     int64(len(batch)),
				Fsyncs: 1,
			})
		}
		r.keys, r.wide = keys, wide
		p.pending.Add(-1)
		close(r.done)
	}
}

// report turns a batch's purge record into its damage report, still
// under the batch's X locks: per view the distinct bcps purged, and a
// whole-view invalidation for each view left unmaintained.
func (p *Plane) report(st *batchState, unbarriered []*core.View) (map[string][]string, map[string]bool) {
	keys := make(map[string][]string, len(st.views))
	wide := make(map[string]bool)
	var affected int64
	for _, d := range st.views {
		if d.wide {
			unbarriered = append(unbarriered, d.v)
			continue
		}
		slices.Sort(d.keys)
		d.keys = slices.Compact(d.keys)
		keys[d.v.Name()] = d.keys
		affected += int64(len(d.keys))
	}
	for _, v := range unbarriered {
		v.InvalidateAll()
		wide[v.Name()] = true
	}

	p.statsMu.Lock()
	p.stats.KeysAffected += affected
	p.stats.EntriesPurged += st.entries
	p.stats.TuplesPurged += st.tuples
	p.stats.WideGenBumps += int64(len(unbarriered))
	p.stats.MaintNs += st.maint.Nanoseconds()
	p.statsMu.Unlock()
	return keys, wide
}

// ApplyOp executes one ΔR statement through the engine's DML; a point
// delete or update finds its rows the way engine.EqSet says. The plane
// calls it under the views' X locks, so no per-statement barrier fires
// (the views are detached; the collector has none); a server without a
// plane calls it with the views attached, and each statement pays its
// own barrier and maintenance pass.
func ApplyOp(ctx context.Context, eng *engine.Engine, op *wire.UpdateOp) (int, error) {
	switch op.Kind {
	case wire.OpInsert:
		if err := eng.Insert(op.Rel, op.Tuple); err != nil {
			return 0, err
		}
		return 1, nil
	case wire.OpDelete:
		victims, err := eng.DeleteEqCtx(ctx, op.Rel, op.Col, engine.NewEqSet(op.Val))
		return len(victims), err
	case wire.OpUpdate:
		r, err := eng.Catalog().GetRelation(op.Rel)
		if err != nil {
			return 0, err
		}
		si := r.Schema.ColIndex(op.SetCol)
		if si < 0 {
			return 0, fmt.Errorf("maint: relation %s has no column %s", op.Rel, op.SetCol)
		}
		set := op.SetVal
		return eng.UpdateEqCtx(ctx, op.Rel, op.Col, engine.NewEqSet(op.Val), func(t value.Tuple) value.Tuple {
			t[si] = set
			return t
		})
	default:
		return 0, fmt.Errorf("maint: unknown op kind %d", op.Kind)
	}
}

// opRef ties one op back to the request it rode in, for per-request
// applied/rows accounting across coalesced runs.
type opRef struct {
	r  *request
	op *wire.UpdateOp
}

// coalescable reports whether an op may share an engine statement with
// its neighbours: point deletes always; point updates only when they
// leave their own match column untouched (an op that moves a tuple
// between match values must see the heap state its predecessors left).
func coalescable(op *wire.UpdateOp) bool {
	switch op.Kind {
	case wire.OpDelete:
		return true
	case wire.OpUpdate:
		return op.SetCol != op.Col
	}
	return false
}

// sameRun reports whether b can join a's run: same kind, relation, and
// match column, so one statement's value set covers both.
func sameRun(a, b *wire.UpdateOp) bool {
	return coalescable(b) && a.Kind == b.Kind && a.Rel == b.Rel && a.Col == b.Col
}

// applySingle runs one op through the per-op engine path.
func (p *Plane) applySingle(ref opRef) (applied, errs int64) {
	rows, err := ApplyOp(context.Background(), p.eng, ref.op)
	if err != nil {
		if ref.r.err == nil {
			ref.r.err = err
		}
		return 0, 1
	}
	ref.r.applied++
	ref.r.rows += rows
	return 1, 0
}

// applyRun executes a coalesced run — ≥2 point ops on the same
// relation and match column — as one engine statement over the run's
// match values. Equivalence with the sequential application holds
// because no op in a run changes its own match column (see
// coalescable), so the set of matching tuples is fixed for the whole
// run; ops hitting the same tuple apply in batch order on it. On an
// engine error the whole run is reported failed (the statement cannot
// say which ops landed).
func (p *Plane) applyRun(run []opRef) (applied, errs int64) {
	first := run[0].op
	rel, err := p.eng.Catalog().GetRelation(first.Rel)
	if err != nil {
		return p.failRun(run, err)
	}
	ci := rel.Schema.ColIndex(first.Col)
	if ci < 0 {
		return p.failRun(run, fmt.Errorf("maint: relation %s has no column %s", first.Rel, first.Col))
	}
	vals := make([]value.Value, len(run))
	for i, ref := range run {
		vals[i] = ref.op.Val
	}
	set := engine.NewEqSet(vals...)

	switch first.Kind {
	case wire.OpDelete:
		victims, derr := p.eng.DeleteEqCtx(context.Background(), first.Rel, first.Col, set)
		// A value dueling over several delete ops belongs to the first:
		// sequentially, later ops would find the tuples already gone.
		for _, t := range victims {
			run[set.Which(t[ci])[0]].r.rows++
		}
		if derr != nil {
			return p.failRun(run, derr)
		}
	case wire.OpUpdate:
		setIdx := make([]int, len(run))
		for i, ref := range run {
			if setIdx[i] = rel.Schema.ColIndex(ref.op.SetCol); setIdx[i] < 0 {
				return p.failRun(run, fmt.Errorf("maint: relation %s has no column %s", first.Rel, ref.op.SetCol))
			}
		}
		_, uerr := p.eng.UpdateEqCtx(context.Background(), first.Rel, first.Col, set, func(t value.Tuple) value.Tuple {
			for _, i := range set.Which(t[ci]) {
				t[setIdx[i]] = run[i].op.SetVal
				run[i].r.rows++
			}
			return t
		})
		if uerr != nil {
			return p.failRun(run, uerr)
		}
	}
	for _, ref := range run {
		ref.r.applied++
	}
	return int64(len(run)), 0
}

// failRun marks every request in the run with err.
func (p *Plane) failRun(run []opRef, err error) (applied, errs int64) {
	for _, ref := range run {
		if ref.r.err == nil {
			ref.r.err = err
		}
	}
	return 0, int64(len(run))
}

// collector is the engine observer standing in for the detached
// views. Inside a batch it purges each delete or update victim from
// every view the batch holds locked. It deliberately does NOT
// implement engine.ChangeBarrier — the plane already holds the views'
// X locks across the batch, and a barrier here would self-deadlock
// against them.
//
// Out-of-band DML (anything mutating the engine while a Plane is
// attached but outside its flush worker) has no batch to ride: an
// insert goes to every view's OnInsert, as inside a batch (it purges
// nothing, and ends the view's complete marks), but a
// delete/update wholesale-invalidates every view caching the relation —
// the safe degradation for writes that bypassed the plane.
type collector struct {
	p *Plane
}

func (c *collector) OnInsert(rel string, t value.Tuple) error {
	for _, v := range c.p.views {
		v.OnInsert(rel, t)
	}
	return nil
}

func (c *collector) OnDelete(rel string, t value.Tuple) error {
	return c.record(rel, t, nil)
}

func (c *collector) OnUpdate(rel string, old, new value.Tuple) error {
	return c.record(rel, old, new)
}

func (c *collector) record(rel string, old, new value.Tuple) error {
	p := c.p
	p.curMu.Lock()
	defer p.curMu.Unlock()
	if st := p.cur; st != nil {
		start := time.Now()
		for i := range st.views {
			d := &st.views[i]
			n0 := len(d.keys)
			n, err := d.v.Purge(rel, old, new, &d.keys)
			if err != nil {
				d.wide = true
			}
			st.entries += int64(len(d.keys) - n0)
			st.tuples += int64(n)
		}
		st.maint += time.Since(start)
		return nil
	}
	for _, v := range p.views {
		if v.InTemplate(rel) {
			v.InvalidateAll()
		}
	}
	if p.cfg.Logf != nil {
		p.cfg.Logf("maint: out-of-band %s mutation invalidated attached views", rel)
	}
	return nil
}
