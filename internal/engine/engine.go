// Package engine is the embedded relational engine the PMV layer runs
// inside: it owns the disk manager, buffer pool, catalog, and lock
// manager, and exposes DDL, DML (with secondary-index maintenance and
// change notification), and template-query execution.
//
// The engine substitutes for the paper's PostgreSQL 7.3.4 host: it
// provides the same ingredients the PMV method needs — blocking
// index-driven plans, a page buffer pool, and hooks on every base-
// relation change for deferred view maintenance.
package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pmv/internal/buffer"
	"pmv/internal/catalog"
	"pmv/internal/exec"
	"pmv/internal/expr"
	"pmv/internal/lock"
	"pmv/internal/obs"
	"pmv/internal/storage"
	"pmv/internal/value"
	"pmv/internal/vfs"
	"pmv/internal/wal"
)

// ErrCorrupt wraps persistent-state corruption detected while reading
// back durable data: WAL records that fail to decode, and page
// checksum mismatches surfaced during recovery. Callers distinguish it
// from transient I/O errors with errors.Is.
var ErrCorrupt = errors.New("engine: persistent state corrupted")

// Options configures an engine instance.
type Options struct {
	// BufferPoolPages is the number of 8 KiB frames. The default (1000)
	// matches the paper's PostgreSQL setting.
	BufferPoolPages int
	// LockTimeout bounds lock waits (deadlock resolution by timeout).
	LockTimeout time.Duration
	// EnableWAL turns on write-ahead logging and crash recovery for
	// heap data (see internal/engine/wal.go for the guarantees).
	EnableWAL bool
	// SyncEveryOp fsyncs the log after every statement (durable on
	// return). Off, durability is batched at page write-back,
	// checkpoint, and Close.
	SyncEveryOp bool
	// CheckpointEvery starts a background checkpointer with the given
	// period (0 = checkpoint only on Close). Requires EnableWAL.
	CheckpointEvery time.Duration
	// FS routes every persisted byte (page files, WAL, JSON metadata)
	// through an alternate filesystem. Nil means the real OS; the
	// torture harness installs a fault-injecting vfs here.
	FS vfs.FS
	// LockAttempts bounds how many times AcquireLock tries before
	// giving up (each attempt waits up to LockTimeout). Default 3.
	LockAttempts int
	// LockRetryBackoff is the base delay between lock attempts; actual
	// delays grow exponentially with up to 100% random jitter. Default
	// 2ms.
	LockRetryBackoff time.Duration
}

func (o *Options) fill() {
	if o.BufferPoolPages <= 0 {
		o.BufferPoolPages = 1000
	}
	if o.LockTimeout <= 0 {
		o.LockTimeout = 5 * time.Second
	}
	if o.LockAttempts <= 0 {
		o.LockAttempts = 3
	}
	if o.LockRetryBackoff <= 0 {
		o.LockRetryBackoff = 2 * time.Millisecond
	}
}

// Stats is a snapshot of the engine's counters.
type Stats struct {
	// LockRetries counts lock attempts that timed out and were retried
	// after backoff; LockTimeouts counts acquisitions that exhausted
	// every attempt.
	LockRetries  int64
	LockTimeouts int64
	// DegradedQueries counts queries answered without the PMV because
	// its lock could not be acquired in time (graceful degradation).
	DegradedQueries int64
	// TornPageRepairs counts torn trailing partial pages truncated when
	// a page file was opened after a crash.
	TornPageRepairs int64
	// DMLLocated counts DELETE/UPDATE statements that found their rows
	// through an index, DMLScanned those that scanned the heap: every
	// closure-predicate statement, and an equality statement with no
	// index led by its column or a value an index cannot enumerate.
	DMLLocated int64
	DMLScanned int64
}

// ChangeObserver receives base-relation change notifications. The PMV
// manager registers one to implement Section 3.4 deferred maintenance.
type ChangeObserver interface {
	// OnInsert is called after t is inserted into rel.
	OnInsert(rel string, t value.Tuple) error
	// OnDelete is called after t is deleted from rel.
	OnDelete(rel string, t value.Tuple) error
	// OnUpdate is called after old is replaced by new in rel.
	OnUpdate(rel string, old, new value.Tuple) error
}

// CtxChangeObserver is optionally implemented by change observers that
// want the statement's context — in practice, to record maintenance
// work into an obs.Trace the mutator attached. The engine prefers the
// ctx variants when an observer provides them; plain observers keep
// working unchanged.
type CtxChangeObserver interface {
	OnDeleteCtx(ctx context.Context, rel string, t value.Tuple) error
	OnUpdateCtx(ctx context.Context, rel string, old, new value.Tuple) error
}

// ChangeBarrier is implemented by observers that must serialize
// destructive base-relation changes against their own readers — the
// paper's Section 3.6 protocol, where a transaction that would have to
// update a PMV acquires the view's X lock before its change becomes
// visible. The engine calls BeforeChange before the first heap
// modification of a delete/update statement and invokes the returned
// release after the last notification. (Inserts need no barrier: they
// cannot invalidate results a reader has already received.)
type ChangeBarrier interface {
	BeforeChange(rel string) (release func(), err error)
}

// changeBarrier acquires every registered observer's barrier for rel,
// returning a combined release.
func (e *Engine) changeBarrier(rel string) (func(), error) {
	e.obsMu.RLock()
	obs := e.observers
	e.obsMu.RUnlock()
	var releases []func()
	for _, o := range obs {
		cb, ok := o.(ChangeBarrier)
		if !ok {
			continue
		}
		rel, err := cb.BeforeChange(rel)
		if err != nil {
			for _, r := range releases {
				r()
			}
			return nil, err
		}
		if rel != nil {
			releases = append(releases, rel)
		}
	}
	return func() {
		for _, r := range releases {
			r()
		}
	}, nil
}

// Engine is one open database.
type Engine struct {
	dir   string
	mgr   *storage.Manager
	pool  *buffer.Pool
	cat   *catalog.Catalog
	locks *lock.Manager
	opts  Options

	obsMu     sync.RWMutex
	observers []ChangeObserver

	nextTxn atomic.Uint64

	wal       *wal.Log
	opSeq     atomic.Uint64
	recovered int

	lockRetries  atomic.Int64
	lockTimeouts atomic.Int64
	degraded     atomic.Int64
	dmlLocated   atomic.Int64
	dmlScanned   atomic.Int64

	// chkMu quiesces writers during a checkpoint: DML holds the read
	// side, Checkpoint the write side, so FlushAll never races a page
	// mutation.
	chkMu   sync.RWMutex
	stopChk chan struct{}
	chkWG   sync.WaitGroup
}

// Open opens (creating if needed) a database directory.
func Open(dir string, opts Options) (*Engine, error) {
	opts.fill()
	mgr, err := storage.NewManagerFS(dir, opts.FS)
	if err != nil {
		return nil, err
	}
	pool := buffer.NewPool(mgr, opts.BufferPoolPages)
	cat, err := catalog.Open(dir, pool, mgr)
	if err != nil {
		mgr.Close()
		return nil, err
	}
	lm := lock.New()
	lm.DefaultTimeout = opts.LockTimeout
	e := &Engine{dir: dir, mgr: mgr, pool: pool, cat: cat, locks: lm, opts: opts}
	if opts.EnableWAL {
		if err := e.initWAL(); err != nil {
			mgr.Close()
			return nil, err
		}
		if opts.CheckpointEvery > 0 {
			e.startCheckpointer(opts.CheckpointEvery)
		}
	}
	return e, nil
}

// Close checkpoints (flushing dirty pages and truncating the WAL) and
// releases files. Every handle is closed even when the checkpoint
// fails (e.g. after an injected crash); the first error is returned.
func (e *Engine) Close() error {
	if e.stopChk != nil {
		close(e.stopChk)
		e.chkWG.Wait()
		e.stopChk = nil
	}
	first := e.Checkpoint()
	if e.wal != nil {
		if err := e.wal.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := e.mgr.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// Dir returns the database directory.
func (e *Engine) Dir() string { return e.dir }

// Catalog exposes the metadata root.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Locks exposes the lock manager (used by the PMV layer for the
// Section 3.6 S/X protocol).
func (e *Engine) Locks() *lock.Manager { return e.locks }

// Pool exposes the buffer pool for statistics.
func (e *Engine) Pool() *buffer.Pool { return e.pool }

// IOStats returns cumulative physical reads and writes.
func (e *Engine) IOStats() (reads, writes int64) { return e.mgr.Stats.Snapshot() }

// FS returns the filesystem all persistence flows through (the
// metadata files of higher layers should use it too, so fault
// injection covers them).
func (e *Engine) FS() vfs.FS { return e.mgr.FS() }

// DataStamp identifies the base data's mutation state: the WAL
// operation sequence number. With WAL enabled it advances on every
// logged statement (and is restored across restarts), so equal stamps
// mean no base-relation change happened in between. With WAL disabled
// it is always zero — callers that compare stamps across restarts get
// a trivially-true match and must rely on coarser checks.
func (e *Engine) DataStamp() uint64 { return e.opSeq.Load() }

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		LockRetries:     e.lockRetries.Load(),
		LockTimeouts:    e.lockTimeouts.Load(),
		DegradedQueries: e.degraded.Load(),
		TornPageRepairs: e.mgr.Stats.Repairs.Load(),
		DMLLocated:      e.dmlLocated.Load(),
		DMLScanned:      e.dmlScanned.Load(),
	}
}

// NoteDegraded records one query answered in degraded mode (the PMV
// layer calls this when it bypasses the view after a lock timeout).
func (e *Engine) NoteDegraded() { e.degraded.Add(1) }

// AcquireLock takes res for txn in mode with bounded retry: a timed-out
// attempt backs off (exponential with full jitter) and tries again, up
// to Options.LockAttempts attempts. Retries and exhausted acquisitions
// are counted in the engine stats; the final error still satisfies
// errors.Is(err, lock.ErrTimeout) so callers can degrade.
func (e *Engine) AcquireLock(txn uint64, res string, mode lock.Mode) error {
	var err error
	for attempt := 0; attempt < e.opts.LockAttempts; attempt++ {
		err = e.locks.Acquire(txn, res, mode, 0)
		if err == nil {
			return nil
		}
		if !errors.Is(err, lock.ErrTimeout) {
			return err
		}
		if attempt < e.opts.LockAttempts-1 {
			e.lockRetries.Add(1)
			sleep := e.opts.LockRetryBackoff << uint(attempt)
			sleep += time.Duration(rand.Int63n(int64(sleep) + 1))
			time.Sleep(sleep)
		}
	}
	e.lockTimeouts.Add(1)
	return err
}

// NewTxnID allocates a transaction identifier for the lock manager.
func (e *Engine) NewTxnID() uint64 { return e.nextTxn.Add(1) }

// RegisterObserver adds a change observer.
func (e *Engine) RegisterObserver(obs ChangeObserver) {
	e.obsMu.Lock()
	defer e.obsMu.Unlock()
	e.observers = append(e.observers, obs)
}

// UnregisterObserver removes a previously registered observer (used
// when a view is dropped).
func (e *Engine) UnregisterObserver(obs ChangeObserver) {
	e.obsMu.Lock()
	defer e.obsMu.Unlock()
	for i, o := range e.observers {
		if o == obs {
			e.observers = append(e.observers[:i], e.observers[i+1:]...)
			return
		}
	}
}

func (e *Engine) eachObserver(fn func(ChangeObserver) error) error {
	e.obsMu.RLock()
	obs := e.observers
	e.obsMu.RUnlock()
	for _, o := range obs {
		if err := fn(o); err != nil {
			return err
		}
	}
	return nil
}

// CreateRelation defines a relation.
func (e *Engine) CreateRelation(name string, schema catalog.Schema) (*catalog.Relation, error) {
	return e.cat.CreateRelation(name, schema)
}

// CreateIndex builds a secondary index named rel_col1_col2... if name
// is empty.
func (e *Engine) CreateIndex(name, rel string, cols ...string) (*catalog.Index, error) {
	// The backfill writes B+tree pages: like DML, it must not overlap a
	// checkpoint's FlushAll.
	e.chkMu.RLock()
	defer e.chkMu.RUnlock()
	if name == "" {
		name = rel
		for _, c := range cols {
			name += "_" + c
		}
	}
	return e.cat.CreateIndex(name, rel, cols...)
}

// Insert adds t to rel, maintains its indexes, and notifies observers.
func (e *Engine) Insert(rel string, t value.Tuple) error {
	e.chkMu.RLock()
	defer e.chkMu.RUnlock()
	r, err := e.cat.GetRelation(rel)
	if err != nil {
		return err
	}
	if len(t) != r.Schema.Arity() {
		return fmt.Errorf("engine: insert into %s: got %d values, want %d", rel, len(t), r.Schema.Arity())
	}
	rid, err := e.heapInsert(rel, r, t)
	if err != nil {
		return err
	}
	for _, ix := range r.Indexes {
		if err := ix.Insert(t, rid); err != nil {
			return fmt.Errorf("engine: index %s: %w", ix.Name, err)
		}
	}
	return e.eachObserver(func(o ChangeObserver) error { return o.OnInsert(rel, t) })
}

// heapInsert routes through the WAL when enabled.
func (e *Engine) heapInsert(rel string, r *catalog.Relation, t value.Tuple) (storage.RID, error) {
	if e.wal != nil {
		return e.walInsert(rel, r.Heap, t)
	}
	return r.Heap.Insert(t)
}

// InsertBulk loads many tuples without per-row observer dispatch
// overhead (observers are still notified once per tuple, but the
// relation lookup is amortized). Used by the data generators.
func (e *Engine) InsertBulk(rel string, tuples []value.Tuple, notify bool) error {
	e.chkMu.RLock()
	defer e.chkMu.RUnlock()
	r, err := e.cat.GetRelation(rel)
	if err != nil {
		return err
	}
	for _, t := range tuples {
		rid, err := e.heapInsert(rel, r, t)
		if err != nil {
			return err
		}
		for _, ix := range r.Indexes {
			if err := ix.Insert(t, rid); err != nil {
				return fmt.Errorf("engine: index %s: %w", ix.Name, err)
			}
		}
		if notify {
			if err := e.eachObserver(func(o ChangeObserver) error { return o.OnInsert(rel, t) }); err != nil {
				return err
			}
		}
	}
	return nil
}

// DeleteWhere removes every tuple of rel satisfying pred, returning the
// deleted tuples. Observers are notified per tuple after removal.
func (e *Engine) DeleteWhere(rel string, pred func(value.Tuple) bool) ([]value.Tuple, error) {
	return e.DeleteWhereCtx(context.Background(), rel, pred)
}

// DeleteWhereCtx is DeleteWhere carrying a context: observers that
// implement CtxChangeObserver receive it, so a trace attached with
// obs.WithTrace records the statement's maintenance purge work.
func (e *Engine) DeleteWhereCtx(ctx context.Context, rel string, pred func(value.Tuple) bool) ([]value.Tuple, error) {
	return e.deleteRows(ctx, rel, e.whereRows(pred))
}

// DeleteEqCtx removes every tuple of rel whose column col equals one of
// vals: DeleteWhereCtx for the predicate the engine can read, so an
// index led by col finds the rows (see eqRows).
func (e *Engine) DeleteEqCtx(ctx context.Context, rel, col string, vals *EqSet) ([]value.Tuple, error) {
	return e.deleteRows(ctx, rel, e.eqRows(col, vals))
}

// UpdateWhere replaces tuples satisfying pred with apply(t), returning
// the number updated.
func (e *Engine) UpdateWhere(rel string, pred func(value.Tuple) bool, apply func(value.Tuple) value.Tuple) (int, error) {
	return e.UpdateWhereCtx(context.Background(), rel, pred, apply)
}

// UpdateWhereCtx is UpdateWhere carrying a context for trace-aware
// observers (see DeleteWhereCtx).
func (e *Engine) UpdateWhereCtx(ctx context.Context, rel string, pred func(value.Tuple) bool, apply func(value.Tuple) value.Tuple) (int, error) {
	return e.updateRows(ctx, rel, e.whereRows(pred), apply)
}

// UpdateEqCtx replaces with apply(t) every tuple of rel whose column
// col equals one of vals, located like DeleteEqCtx.
func (e *Engine) UpdateEqCtx(ctx context.Context, rel, col string, vals *EqSet, apply func(value.Tuple) value.Tuple) (int, error) {
	return e.updateRows(ctx, rel, e.eqRows(col, vals), apply)
}

// dml runs one DELETE/UPDATE statement: find names its rows, apply
// changes one. It returns how many rows apply completed.
func (e *Engine) dml(rel string, find rowFinder, apply func(*catalog.Relation, row) error) (int, error) {
	e.chkMu.RLock()
	defer e.chkMu.RUnlock()
	r, err := e.cat.GetRelation(rel)
	if err != nil {
		return 0, err
	}
	// The barrier comes BEFORE the rows are located: locating first
	// would let a concurrent statement commit between locate and apply,
	// and the observers would then be notified with stale pre-images —
	// view maintenance would purge the wrong cache keys and leave stale
	// entries behind.
	release, err := e.changeBarrier(rel)
	if err != nil {
		return 0, err
	}
	defer release()
	rows, err := find(r)
	if err != nil {
		return 0, err
	}
	for i, h := range rows {
		if err := apply(r, h); err != nil {
			return i, err
		}
	}
	return len(rows), nil
}

// deleteRows is the apply half of DELETE: heap (through the WAL when
// enabled), index entries, observers. A tuple whose heap and index
// removal succeeded is reported even when an observer then fails.
func (e *Engine) deleteRows(ctx context.Context, rel string, find rowFinder) ([]value.Tuple, error) {
	var deleted []value.Tuple
	_, err := e.dml(rel, find, func(r *catalog.Relation, v row) error {
		var err error
		if e.wal != nil {
			err = e.walDelete(rel, r.Heap, v.rid)
		} else {
			err = r.Heap.Delete(v.rid)
		}
		if err != nil {
			return err
		}
		for _, ix := range r.Indexes {
			if err := ix.Delete(v.t, v.rid); err != nil {
				return fmt.Errorf("engine: index %s: %w", ix.Name, err)
			}
		}
		deleted = append(deleted, v.t)
		return e.eachObserver(func(o ChangeObserver) error {
			if co, ok := o.(CtxChangeObserver); ok {
				return co.OnDeleteCtx(ctx, rel, v.t)
			}
			return o.OnDelete(rel, v.t)
		})
	})
	return deleted, err
}

// updateRows is the apply half of UPDATE: heap (through the WAL when
// enabled), the index entries the change moved, observers.
func (e *Engine) updateRows(ctx context.Context, rel string, find rowFinder, apply func(value.Tuple) value.Tuple) (int, error) {
	return e.dml(rel, find, func(r *catalog.Relation, h row) error {
		newT := apply(h.t.Clone())
		if len(newT) != r.Schema.Arity() {
			return fmt.Errorf("engine: update of %s produced %d values, want %d", rel, len(newT), r.Schema.Arity())
		}
		var newRID storage.RID
		var err error
		if e.wal != nil {
			newRID, err = e.walUpdate(rel, r.Heap, h.rid, newT)
		} else {
			newRID, err = r.Heap.Update(h.rid, newT)
		}
		if err != nil {
			return err
		}
		for _, ix := range r.Indexes {
			// An entry is key ++ RID: a row that kept its place and
			// this index's columns has nothing to rewrite.
			if newRID == h.rid && bytes.Equal(ix.KeyFor(h.t), ix.KeyFor(newT)) {
				continue
			}
			if err := ix.Delete(h.t, h.rid); err != nil {
				return fmt.Errorf("engine: index %s: %w", ix.Name, err)
			}
			if err := ix.Insert(newT, newRID); err != nil {
				return fmt.Errorf("engine: index %s: %w", ix.Name, err)
			}
		}
		return e.eachObserver(func(o ChangeObserver) error {
			if co, ok := o.(CtxChangeObserver); ok {
				return co.OnUpdateCtx(ctx, rel, h.t, newT)
			}
			return o.OnUpdate(rel, h.t, newT)
		})
	})
}

// Analyze recomputes optimizer statistics for one relation.
func (e *Engine) Analyze(rel string) error {
	_, err := e.cat.Analyze(rel)
	return err
}

// AnalyzeAll recomputes optimizer statistics for every relation, like
// the paper's "statistics collection program" run before experiments.
func (e *Engine) AnalyzeAll() error { return e.cat.AnalyzeAll() }

// Plan compiles a bound template query.
func (e *Engine) Plan(q *expr.Query) (*exec.Plan, error) {
	return exec.PlanQuery(e.cat, q)
}

// Execute runs q and streams the full concatenated rows to fn. The
// expanded select list of the PMV layer (Ls′) is applied by the caller.
func (e *Engine) Execute(q *expr.Query, fn func(value.Tuple) error) error {
	return e.ExecuteCtx(context.Background(), q, fn)
}

// ExecuteCtx is Execute with cancellation: the plan is wrapped in an
// exec.Guard so a cancelled or deadline-expired ctx aborts between
// rows with ctx.Err().
func (e *Engine) ExecuteCtx(ctx context.Context, q *expr.Query, fn func(value.Tuple) error) error {
	plan, err := e.Plan(q)
	if err != nil {
		return err
	}
	return exec.ForEach(guarded(ctx, plan.Root), fn)
}

// ExecuteProject runs q projecting the given column refs.
func (e *Engine) ExecuteProject(q *expr.Query, cols []expr.ColumnRef, fn func(value.Tuple) error) error {
	return e.ExecuteProjectCtx(context.Background(), q, cols, fn)
}

// ExecuteProjectCtx is ExecuteProject with cancellation, the seam the
// service layer uses to enforce per-query deadlines: when ctx expires
// mid-plan the iterator chain stops and ctx.Err() propagates up, so
// the PMV layer can return the partial results it already delivered.
// A trace attached with obs.WithTrace gets a plan span (optimizer
// time) and an exec span counting the rows the plan produced.
func (e *Engine) ExecuteProjectCtx(ctx context.Context, q *expr.Query, cols []expr.ColumnRef, fn func(value.Tuple) error) error {
	tr := obs.FromContext(ctx)
	var planStart time.Time
	if tr != nil {
		planStart = time.Now()
	}
	plan, err := e.Plan(q)
	if err != nil {
		return err
	}
	tr.Span(obs.KindPlan, planStart, 0, 0, 0)
	positions := make([]int, len(cols))
	for i, c := range cols {
		p, err := plan.Schema.MustIndex(c)
		if err != nil {
			return err
		}
		positions[i] = p
	}
	root := guarded(ctx, plan.Root)
	var tally *exec.Tally
	if tr != nil {
		tally = &exec.Tally{Child: root}
		root = tally
	}
	proj := &exec.Project{Child: root, Cols: positions}
	var execStart time.Time
	if tr != nil {
		execStart = time.Now()
	}
	err = exec.ForEach(proj, fn)
	if tally != nil {
		tr.Span(obs.KindExec, execStart, tally.N, 0, 0)
	}
	return err
}

// guarded wraps root with a cancellation Guard unless ctx can never be
// cancelled (context.Background and friends), keeping the uncancellable
// hot path check-free.
func guarded(ctx context.Context, root exec.Iterator) exec.Iterator {
	if ctx == nil || ctx.Done() == nil {
		return root
	}
	return &exec.Guard{Child: root, Check: ctx.Err}
}
