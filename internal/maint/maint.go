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
// acked request per-statement durability at a fraction of the fsync
// count. View maintenance then runs after the ack:
//
//   - affected bcp keys are computed per victim via the view's delta
//     join (global keys — valid on any node caching them),
//   - each key is classified heavy/light against a sliding frequency
//     window,
//   - light keys are purged under a short X-lock grab, heavy keys get
//     an invalidation-generation bump (lazily discarded on next
//     probe), so a hot key's write burst never serializes against its
//     readers,
//   - unboundable damage (failed delta join, failed lock) degrades to
//     a view-wide generation bump — correctness by cache loss.
//
// While a Plane is attached the views are detached from the engine's
// observer list (a collector observer records victims instead), so
// per-statement purge work and its per-tuple X locks disappear from
// the write path entirely. Correctness never depends on any of the
// maintenance arriving: a stale entry that slips through is caught by
// the DS multiset audit at query time — a loud typed error, never a
// silently stale answer.
package maint

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pmv/internal/core"
	"pmv/internal/engine"
	"pmv/internal/freq"
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
	// BatchSize flushes a batch once it holds this many ops (default 64).
	BatchSize int
	// MaxDelay flushes a non-empty batch after this long even if small
	// (default 2ms) — the age trigger bounding write latency.
	MaxDelay time.Duration
	// QueueDepth bounds queued requests; Apply blocks (ctx-aware) when
	// full (default 1024).
	QueueDepth int
	// HeavyThreshold: a key touched at least this many times per
	// sliding window classifies heavy (default 32).
	HeavyThreshold int
	// WindowInterval is the classifier's bucket rotation (default 1s).
	WindowInterval time.Duration
	// Estimator, when set, supplies a read-side popularity estimate for
	// a bcp key; the classifier treats a key as heavy when either its
	// own write-touch count or the estimate clears HeavyThreshold, so a
	// read-hot key's writes take the gen-bump path instead of purging
	// under an X-lock its readers are contending for. Left nil, New
	// derives one from the views' frequency planes when present, so
	// both thresholds share one sliding estimator.
	Estimator func(key string) uint32
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
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.HeavyThreshold <= 0 {
		c.HeavyThreshold = 32
	}
	if c.WindowInterval <= 0 {
		c.WindowInterval = time.Second
	}
	return nil
}

// Result is one request's outcome. Keys/Wide cover the whole batch the
// request rode in (a superset of the request's own damage — harmless
// for invalidation, which is idempotent and monotone).
type Result struct {
	// Applied counts this request's ops that executed cleanly; Rows is
	// their total affected row count.
	Applied int
	Rows    int
	// Keys maps view name → affected bcp keys; Wide marks views whose
	// damage was unbounded. Populated only when Apply ran with
	// wantKeys (the maintenance stage was awaited).
	Keys map[string][]string
	Wide map[string]bool
}

// request is one Apply call in the queue.
type request struct {
	ops  []wire.UpdateOp
	ack  chan struct{} // closed after base apply (ops/rows/err valid)
	done chan struct{} // closed after maintenance (keys/wide valid)

	// tr is the caller's trace (nil when untraced). The flush worker
	// bills the group-commit fsync to it via the thread-safe AddSpans
	// sink, always before ack closes so the span is visible when Apply
	// returns.
	tr *obs.Trace

	applied int
	rows    int
	err     error
	keys    map[string][]string
	wide    map[string]bool
}

// victim is one recorded base-tuple casualty of a batch.
type victim struct {
	rel string
	old value.Tuple
	new value.Tuple // nil for deletes
}

// batchState is what the collector records while a batch applies.
type batchState struct {
	inserts []string // relation per insert
	victims []victim
}

// Plane is the batched write plane. Create with New, feed with Apply,
// stop with Close (which re-attaches per-statement maintenance).
type Plane struct {
	cfg   Config
	eng   *engine.Engine
	views []*core.View // sorted by name; lock order
	col   *collector
	class *classifier

	queue   chan *request
	closing chan struct{}
	closed  sync.Once
	wg      sync.WaitGroup

	pending atomic.Int64 // requests ingested but not yet maintained

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
	if cfg.Estimator == nil {
		var freqs []*freq.ViewFreq
		for _, v := range views {
			if f := v.Freq(); f != nil {
				freqs = append(freqs, f)
			}
		}
		if len(freqs) > 0 {
			cfg.Estimator = func(key string) uint32 {
				var m uint32
				for _, f := range freqs {
					if e := f.Sketch.Estimate(key); e > m {
						m = e
					}
				}
				return m
			}
		}
	}
	p := &Plane{
		cfg:     cfg,
		eng:     cfg.Source.Engine(),
		views:   views,
		class:   newClassifier(cfg.HeavyThreshold, cfg.WindowInterval, cfg.Estimator),
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
			close(r.ack)
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

// Pending reports whether any ingested batch has not finished its
// maintenance yet. The snapshot manager gates on it: a snapshot taken
// between base apply and invalidation would warm-boot a stale cache
// with matching staleness stamps.
func (p *Plane) Pending() bool { return p.pending.Load() > 0 }

// Apply enqueues ops and waits. With wantKeys false it returns at the
// ack stage — base data applied, maintenance still in flight — which
// is the replica path (invalidation arrives separately). With
// wantKeys true it waits for maintenance and the Result carries the
// batch's affected keys for fan-out.
//
// A per-op engine failure does not abort the batch: the op is skipped,
// counted, and reported as this request's error; the other ops stand
// (the queue is not transactional — it is a maintenance conduit).
func (p *Plane) Apply(ctx context.Context, ops []wire.UpdateOp, wantKeys bool) (Result, error) {
	r := &request{ops: ops, ack: make(chan struct{}), done: make(chan struct{}), tr: obs.FromContext(ctx)}
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

	wait := r.done
	if !wantKeys {
		wait = r.ack
	}
	select {
	case <-wait:
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

// run is the flush worker: gather a batch (size/age triggers), apply,
// maintain, repeat; on close, drain and exit.
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

// gather accumulates requests behind first until the batch reaches
// BatchSize ops (size flush) or MaxDelay passes (age flush).
func (p *Plane) gather(first *request) []*request {
	batch := []*request{first}
	n := len(first.ops)
	if n >= p.cfg.BatchSize {
		p.bumpFlush(true)
		return batch
	}
	timer := time.NewTimer(p.cfg.MaxDelay)
	defer timer.Stop()
	for n < p.cfg.BatchSize {
		select {
		case r := <-p.queue:
			batch = append(batch, r)
			n += len(r.ops)
		case <-timer.C:
			p.bumpFlush(false)
			return batch
		case <-p.closing:
			p.bumpFlush(false)
			return batch
		}
	}
	p.bumpFlush(true)
	return batch
}

func (p *Plane) bumpFlush(size bool) {
	p.statsMu.Lock()
	if size {
		p.stats.SizeFlushes++
	} else {
		p.stats.AgeFlushes++
	}
	p.statsMu.Unlock()
}

// applyBatch is one group commit: X-lock every view, apply the ops
// (the collector records victims), release, ack the writers, then run
// the maintenance phase and complete them.
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
	// batch; that view's cache is wholly invalidated afterwards
	// (readers mid-protocol there may fail their DS audit — loud, not
	// stale).
	lockStart := time.Now()
	releases := make([]func(), 0, len(p.views))
	var unbarriered []*core.View
	for _, v := range p.views {
		release, err := v.LockForMaintenance()
		if err != nil {
			unbarriered = append(unbarriered, v)
			continue
		}
		releases = append(releases, release)
	}
	lockWait := time.Since(lockStart)

	st := &batchState{}
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
	for i := len(releases) - 1; i >= 0; i-- {
		releases[i]()
	}

	// Group commit: one WAL sync covers the whole batch, so every
	// acked request is as durable as a SyncEveryOp statement at a
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
	// Bill the shared fsync to every traced request in the batch —
	// each rider carries the full sync duration (they all waited for
	// it) and one attributed fsync, with N1 recording how many requests
	// shared the group commit. Delivered through AddSpans because the
	// flush worker is not the trace's owner goroutine, and before ack
	// so the span is visible the moment Apply returns.
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
	}
	for _, r := range batch {
		close(r.ack)
	}

	keys, wide := p.maintain(st, unbarriered)

	p.statsMu.Lock()
	p.stats.OpsApplied += applied
	p.stats.OpErrors += opErrs
	p.stats.CoalescedOps += coalesced
	p.stats.GroupSyncs++
	p.stats.SyncNs += syncDur.Nanoseconds()
	p.stats.LockWaitNs += lockWait.Nanoseconds()
	p.stats.ApplyNs += applyDur.Nanoseconds()
	p.statsMu.Unlock()

	for _, r := range batch {
		r.keys, r.wide = keys, wide
		p.pending.Add(-1)
		close(r.done)
	}
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

// maintain runs the post-ack maintenance phase for one batch: compute
// affected keys per view, classify heavy/light, purge or bump.
func (p *Plane) maintain(st *batchState, unbarriered []*core.View) (map[string][]string, map[string]bool) {
	start := time.Now()
	keys := make(map[string][]string)
	wide := make(map[string]bool)
	for _, v := range unbarriered {
		wide[v.Name()] = true
	}
	var affected, heavyN, lightN, purgedE, purgedT, bumps, wides, degrades int64

	for _, v := range p.views {
		name := v.Name()
		for _, rel := range st.inserts {
			v.NoteInsert(rel)
		}
		seen := make(map[string]bool)
		var vkeys []string
		for i := range st.victims {
			vic := &st.victims[i]
			if !v.InTemplate(vic.rel) {
				continue
			}
			if vic.new != nil {
				changed, err := v.UpdateAffects(vic.rel, vic.old, vic.new)
				if err != nil {
					wide[name] = true
					continue
				}
				if !changed {
					continue
				}
			}
			v.NoteDelete(vic.rel)
			ks, w := v.AffectedKeys(vic.rel, vic.old)
			if w {
				wide[name] = true
				continue
			}
			for _, k := range ks {
				if !seen[k] {
					seen[k] = true
					vkeys = append(vkeys, k)
				}
			}
		}
		keys[name] = vkeys
		affected += int64(len(vkeys))

		if wide[name] {
			v.BumpAllGen()
			wides++
			continue
		}
		var light, heavy []string
		for _, k := range vkeys {
			if p.class.heavy(name + "\x00" + k) {
				heavy = append(heavy, k)
			} else {
				light = append(light, k)
			}
		}
		heavyN += int64(len(heavy))
		lightN += int64(len(light))
		if len(light) > 0 {
			e, t, degraded := v.PurgeKeys(light)
			purgedE += int64(e)
			purgedT += int64(t)
			if degraded {
				degrades++
				bumps += int64(len(light))
			}
		}
		if len(heavy) > 0 {
			v.BumpKeyGens(heavy)
			bumps += int64(len(heavy))
		}
	}

	p.statsMu.Lock()
	p.stats.KeysAffected += affected
	p.stats.HeavyKeys += heavyN
	p.stats.LightKeys += lightN
	p.stats.EntriesPurged += purgedE
	p.stats.TuplesPurged += purgedT
	p.stats.KeyGenBumps += bumps
	p.stats.WideGenBumps += wides
	p.stats.PurgeDegrades += degrades
	p.stats.MaintNs += time.Since(start).Nanoseconds()
	p.statsMu.Unlock()
	return keys, wide
}

// collector is the engine observer standing in for the detached
// views: it records each mutation into the current batch state. It
// deliberately does NOT implement engine.ChangeBarrier — the plane
// already holds the views' X locks across the batch, and a barrier
// here would self-deadlock against them.
//
// Out-of-band DML (anything mutating the engine while a Plane is
// attached but outside its flush worker) has no batch to ride: an
// insert is harmless (inserts never invalidate), but a delete/update
// wholesale-invalidates every view caching the relation — the safe
// degradation for writes that bypassed the plane.
type collector struct {
	p *Plane
}

func (c *collector) OnInsert(rel string, _ value.Tuple) error {
	p := c.p
	p.curMu.Lock()
	if p.cur != nil {
		p.cur.inserts = append(p.cur.inserts, rel)
		p.curMu.Unlock()
		return nil
	}
	p.curMu.Unlock()
	for _, v := range p.views {
		v.NoteInsert(rel)
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
	if p.cur != nil {
		p.cur.victims = append(p.cur.victims, victim{rel: rel, old: old.Clone(), new: cloneOrNil(new)})
		p.curMu.Unlock()
		return nil
	}
	p.curMu.Unlock()
	for _, v := range p.views {
		if v.InTemplate(rel) {
			v.BumpAllGen()
		}
	}
	if p.cfg.Logf != nil {
		p.cfg.Logf("maint: out-of-band %s mutation invalidated attached views", rel)
	}
	return nil
}

func cloneOrNil(t value.Tuple) value.Tuple {
	if t == nil {
		return nil
	}
	return t.Clone()
}
