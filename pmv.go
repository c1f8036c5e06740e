// Package pmv is an embedded relational engine with partial
// materialized views, reproducing "Partial Materialized Views"
// (Gang Luo, ICDE 2007).
//
// A partial materialized view (PMV) caches the hottest results of a
// parameterized query template, keyed by basic condition part. When a
// query arrives, cached partial results are delivered immediately
// (typically in microseconds); the full query then executes and the
// remaining results follow, each result delivered exactly once. The
// view refreshes itself for free from query results, needs no work on
// base-relation inserts, and purges invalidated entries on deletes and
// updates.
//
// Quick start:
//
//	db, _ := pmv.Open(dir, pmv.Options{})
//	db.CreateRelation("orders", pmv.Col("orderkey", pmv.TypeInt), ...)
//	db.CreateIndex("orders", "orderdate")
//	tpl, _ := pmv.NewTemplate("t1").
//		From("orders", "lineitem").
//		Select("orders.orderkey", "lineitem.suppkey").
//		Join("orders.orderkey", "lineitem.orderkey").
//		WhereEq("orders.orderdate").
//		WhereEq("lineitem.suppkey").
//		Build()
//	view, _ := db.CreatePartialView(tpl, pmv.ViewOptions{MaxEntries: 20000, TuplesPerBCP: 3})
//	q := pmv.NewQuery(tpl).In(0, pmv.Date(d1), pmv.Date(d2)).In(1, pmv.Int(7)).Query()
//	view.ExecutePartial(q, func(r pmv.Result) error { ... })
package pmv

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"time"

	"pmv/internal/buffer"
	"pmv/internal/cache"
	"pmv/internal/catalog"
	"pmv/internal/core"
	"pmv/internal/engine"
	"pmv/internal/exec"
	"pmv/internal/expr"
	"pmv/internal/freq"
	"pmv/internal/lock"
	"pmv/internal/obs"
	"pmv/internal/value"
	"pmv/internal/vfs"
	"pmv/internal/wal"
)

// Re-exported value types and constructors.
type (
	// Value is one typed scalar.
	Value = value.Value
	// Tuple is one row.
	Tuple = value.Tuple
	// Type is a column type.
	Type = value.Type
	// Column describes a relation attribute.
	Column = catalog.Column
)

// Column type constants.
const (
	TypeInt    = value.TypeInt
	TypeFloat  = value.TypeFloat
	TypeString = value.TypeString
	TypeDate   = value.TypeDate
	TypeBool   = value.TypeBool
)

// Value constructors.
var (
	// Int builds an integer value.
	Int = value.Int
	// Float builds a floating-point value.
	Float = value.Float
	// Str builds a string value.
	Str = value.Str
	// Bool builds a boolean value.
	Bool = value.Bool
	// Date builds a date value from days since the Unix epoch.
	Date = value.Date
	// DateFromString parses a YYYY-MM-DD date.
	DateFromString = value.DateFromString
	// Null is the NULL value.
	Null = value.Null
	// Col builds a Column.
	Col = catalog.Col
)

// Core re-exports.
type (
	// Template is a parameterized query template (qt in the paper).
	Template = expr.Template
	// Query is a bound template instance.
	Query = expr.Query
	// Interval is one selection interval.
	Interval = expr.Interval
	// View is a live partial materialized view.
	View = core.View
	// Result is one delivered result tuple (Partial marks tuples
	// served from the view before execution).
	Result = core.Result
	// QueryReport summarizes one partial execution.
	QueryReport = core.QueryReport
	// ViewStats is a view's cumulative counters.
	ViewStats = core.Stats
	// EngineStats is the engine's counters (lock retries, degraded
	// queries, torn-page repairs, DML statements located or scanned).
	EngineStats = engine.Stats
	// FS is the filesystem seam every persisted byte flows through;
	// supply one in Options.FS to intercept I/O (fault injection).
	FS = vfs.FS
	// GroupResult is one partial/final aggregate group.
	GroupResult = core.GroupResult
	// AggSpec selects an aggregate function and column.
	AggSpec = exec.AggSpec
	// SortKey is one ORDER BY term.
	SortKey = exec.SortKey
	// Trace is a per-query span recorder; attach one to a context with
	// WithTrace and pass it to the *Ctx entry points.
	Trace = obs.Trace
	// TraceSpan is one recorded trace span.
	TraceSpan = obs.Span
)

// Tracing helpers, re-exported from internal/obs.
var (
	// NewTrace builds an enabled trace with an id and label.
	NewTrace = obs.New
	// WithTrace attaches a trace to a context (no-op for nil traces).
	WithTrace = obs.WithTrace
	// TraceFromContext recovers the trace, or nil.
	TraceFromContext = obs.FromContext
)

// Aggregate functions.
const (
	Count = exec.AggCount
	Sum   = exec.AggSum
	Min   = exec.AggMin
	Max   = exec.AggMax
	Avg   = exec.AggAvg
)

// Failure sentinels, re-exported so callers can classify errors with
// errors.Is and decide how to degrade.
var (
	// ErrCorruptPage marks a page whose checksum failed verification.
	ErrCorruptPage = buffer.ErrCorruptPage
	// ErrCorrupt marks persistent-state corruption found in recovery.
	ErrCorrupt = engine.ErrCorrupt
	// ErrLockTimeout marks a lock wait that exhausted its retries.
	ErrLockTimeout = lock.ErrTimeout
	// ErrSyncFailed marks the WAL's sticky fsync failure: durability of
	// recent statements is unknown and the database should be reopened.
	ErrSyncFailed = wal.ErrSyncFailed
)

// Policy names for ViewOptions.
const (
	// PolicyCLOCK is the paper's default entry management (Section 3.2).
	PolicyCLOCK = cache.PolicyCLOCK
	// Policy2Q is the simplified 2Q of Section 3.5.
	Policy2Q = cache.Policy2Q
	// PolicyLRU is an extra baseline.
	PolicyLRU = cache.PolicyLRU
)

// Options configures Open.
type Options struct {
	// BufferPoolPages sizes the page cache (default 1000 frames of
	// 8 KiB, matching the paper's PostgreSQL setup).
	BufferPoolPages int
	// LockTimeout bounds lock waits (default 5s).
	LockTimeout time.Duration
	// EnableWAL turns on write-ahead logging: heap data survives
	// crashes (replayed on the next Open), at the cost of logging every
	// statement. PMV contents are a cache and are rebuilt from queries
	// either way.
	EnableWAL bool
	// SyncEveryOp makes each statement durable before it returns
	// (fsync per statement). Requires EnableWAL.
	SyncEveryOp bool
	// CheckpointEvery runs a background checkpoint (flush + WAL
	// truncation) on this period; 0 checkpoints only on Close.
	// Requires EnableWAL.
	CheckpointEvery time.Duration
	// FS intercepts all file I/O (nil = the real OS). Used by the
	// crash-recovery torture harness to inject faults.
	FS FS
}

// FreqConfig tunes the frequency plane (see internal/freq).
type FreqConfig = freq.Config

// DB is one open database.
type DB struct {
	eng   *engine.Engine
	views map[string]*View
	// freqCfg, when set, attaches a frequency plane to every view —
	// existing and future.
	freqCfg *FreqConfig
}

// EnableFreq attaches a frequency plane (windowed popularity sketch,
// presence filter, admission gate) to every view, including ones
// created later. Call once after Open; a view that already caches
// entries keeps serving them.
func (db *DB) EnableFreq(cfg FreqConfig) {
	db.freqCfg = &cfg
	for _, v := range db.views {
		v.EnableFreq(cfg)
	}
}

// FreqEnabled reports whether EnableFreq was called on this database —
// views created later will carry a frequency plane even if none exists
// yet.
func (db *DB) FreqEnabled() bool {
	return db.freqCfg != nil
}

// Open opens (creating if needed) a database directory.
func Open(dir string, opts Options) (*DB, error) {
	eng, err := engine.Open(dir, engine.Options{
		BufferPoolPages: opts.BufferPoolPages,
		LockTimeout:     opts.LockTimeout,
		EnableWAL:       opts.EnableWAL,
		SyncEveryOp:     opts.SyncEveryOp,
		CheckpointEvery: opts.CheckpointEvery,
		FS:              opts.FS,
	})
	if err != nil {
		return nil, err
	}
	db := &DB{eng: eng, views: make(map[string]*View)}
	if err := db.loadViews(); err != nil {
		eng.Close()
		return nil, err
	}
	return db, nil
}

// Close flushes and closes the database.
func (db *DB) Close() error { return db.eng.Close() }

// Engine exposes the underlying engine for advanced use (experiment
// harnesses, statistics).
func (db *DB) Engine() *engine.Engine { return db.eng }

// EngineStats snapshots the engine's counters.
func (db *DB) EngineStats() EngineStats { return db.eng.Stats() }

// CreateRelation defines a base relation.
func (db *DB) CreateRelation(name string, cols ...Column) error {
	_, err := db.eng.CreateRelation(name, catalog.NewSchema(cols...))
	return err
}

// CreateIndex builds a secondary index on the given columns.
func (db *DB) CreateIndex(rel string, cols ...string) error {
	_, err := db.eng.CreateIndex("", rel, cols...)
	return err
}

// Insert adds one tuple.
func (db *DB) Insert(rel string, vals ...Value) error {
	return db.eng.Insert(rel, Tuple(vals))
}

// Delete removes tuples satisfying pred, returning how many. pred is
// asked of every tuple by a heap scan that reuses one row: the tuple it
// sees is valid only during the call, so a pred that keeps it (or a
// slice of it) clones it first.
func (db *DB) Delete(rel string, pred func(Tuple) bool) (int, error) {
	deleted, err := db.eng.DeleteWhere(rel, pred)
	return len(deleted), err
}

// DeleteCtx is Delete with a context: a trace attached via WithTrace
// records the view maintenance (purge) work the delete triggers. pred
// sees a tuple valid only during the call (see Delete).
func (db *DB) DeleteCtx(ctx context.Context, rel string, pred func(Tuple) bool) (int, error) {
	deleted, err := db.eng.DeleteWhereCtx(ctx, rel, pred)
	return len(deleted), err
}

// Update rewrites tuples satisfying pred, returning how many. pred sees
// a tuple valid only during the call (see Delete); apply gets a copy of
// each matching tuple that it may change and return.
func (db *DB) Update(rel string, pred func(Tuple) bool, apply func(Tuple) Tuple) (int, error) {
	return db.eng.UpdateWhere(rel, pred, apply)
}

// UpdateCtx is Update with a context (see DeleteCtx); pred sees a tuple
// valid only during the call.
func (db *DB) UpdateCtx(ctx context.Context, rel string, pred func(Tuple) bool, apply func(Tuple) Tuple) (int, error) {
	return db.eng.UpdateWhereCtx(ctx, rel, pred, apply)
}

// Checkpoint makes all data durable and truncates the write-ahead log.
func (db *DB) Checkpoint() error { return db.eng.Checkpoint() }

// Analyze recomputes optimizer statistics for every relation; run it
// after bulk loads so the planner can pick the most selective driving
// relation.
func (db *DB) Analyze() error { return db.eng.AnalyzeAll() }

// Execute runs a bound query without any PMV involvement, streaming
// the template's select list.
func (db *DB) Execute(q *Query, fn func(Tuple) error) error {
	return db.eng.ExecuteProject(q, q.Template.Select, fn)
}

// ViewOptions configures CreatePartialView.
type ViewOptions struct {
	// MaxEntries bounds stored basic condition parts (L). Default
	// 10000.
	MaxEntries int
	// TuplesPerBCP is F: cached result tuples per basic condition
	// part. Default 2.
	TuplesPerBCP int
	// Policy selects entry replacement (default CLOCK).
	Policy cache.PolicyKind
	// Dividers supplies dividing values per interval-form condition
	// index (required for interval-form conditions).
	Dividers map[int][]Value
	// MaxConditionParts caps Operation O1 (default 4096).
	MaxConditionParts int
}

// CreatePartialView defines a PMV over the template and registers it
// for automatic deferred maintenance.
//
// A view knows the only query shape it will ever run, so creating one
// also creates the access paths that shape needs: for every join
// predicate whose two relations both carry a selection condition, a
// composite index on each side keyed (condition column, join column)
// and carrying the side's other columns the template reads, unless the
// catalog already has one. With both present and statistics collected
// (Analyze), the planner answers the join from the two indexes alone
// and reads a heap row only for a value too long to carry. They are
// ordinary catalog indexes named rel_cond_join_carried...: they
// persist, are maintained by every write, and are shared by views
// whose templates name the same condition and join columns.
func (db *DB) CreatePartialView(tpl *Template, opts ViewOptions) (*View, error) {
	v, err := core.NewView(db.eng, core.Config{
		Name:              "pmv_" + tpl.Name,
		Template:          tpl,
		MaxEntries:        opts.MaxEntries,
		TuplesPerBCP:      opts.TuplesPerBCP,
		Policy:            opts.Policy,
		Dividers:          opts.Dividers,
		MaxConditionParts: opts.MaxConditionParts,
	})
	if err != nil {
		return nil, err
	}
	if _, dup := db.views[v.Name()]; dup {
		v.Drop()
		return nil, fmt.Errorf("pmv: view %q already exists", v.Name())
	}
	if err := db.deriveIndexes(tpl); err != nil {
		v.Drop()
		return nil, fmt.Errorf("pmv: view %q: %w", v.Name(), err)
	}
	next := maps.Clone(db.views)
	next[v.Name()] = v
	if err := db.saveViews(next); err != nil {
		v.Drop()
		return nil, err
	}
	db.views = next
	if db.freqCfg != nil {
		v.EnableFreq(*db.freqCfg)
	}
	return v, nil
}

// deriveIndexes creates the composite indexes CreatePartialView
// promises for tpl. A relation with several conditions gets one index,
// on its first. A side that already has an index keyed (condition,
// join) keeps it, whatever it carries, so every write maintains one
// such index per pair however many views share it; the first view's
// columns are the ones carried. A new index carries the side's other
// template columns only while their widest encodings
// (catalog.CoveredWidth) fit catalog.MaxCoveredBytes; otherwise it is
// the bare (condition, join) key and the join reads the side's heap.
func (db *DB) deriveIndexes(tpl *Template) error {
	firstCond := func(rel string) string {
		for _, c := range tpl.Conds {
			if c.Col.Rel == rel {
				return c.Col.Col
			}
		}
		return ""
	}
	for _, jp := range tpl.Join {
		if jp.Left.Rel == jp.Right.Rel || firstCond(jp.Left.Rel) == "" || firstCond(jp.Right.Rel) == "" {
			continue
		}
		for _, side := range []expr.ColumnRef{jp.Left, jp.Right} {
			rel, err := db.eng.Catalog().GetRelation(side.Rel)
			if err != nil {
				return err
			}
			cond := firstCond(side.Rel)
			if cond == side.Col {
				continue
			}
			key := []int{rel.Schema.ColIndex(cond), rel.Schema.ColIndex(side.Col)}
			if rel.CoveringIndex(key, nil) != nil {
				continue
			}
			var covered []string
			width := 0
			tpl.EachColumn(func(c expr.ColumnRef) {
				ci := rel.Schema.ColIndex(c.Col)
				if c.Rel == side.Rel && ci >= 0 && !slices.Contains(key, ci) && !slices.Contains(covered, c.Col) {
					covered = append(covered, c.Col)
					width += catalog.CoveredWidth(rel.Schema.Columns[ci].Type)
				}
			})
			if width > catalog.MaxCoveredBytes {
				covered = nil
			}
			if _, err := db.eng.CreateCoveringIndex("", side.Rel, []string{cond, side.Col}, covered); err != nil {
				return err
			}
		}
	}
	return nil
}

// ViewByName returns a previously created view.
func (db *DB) ViewByName(name string) (*View, bool) {
	v, ok := db.views[name]
	return v, ok
}

// LearnDividers derives interval dividing values from a trace of query
// intervals (Section 3.1's discretization-from-traces fallback).
var LearnDividers = core.LearnDividers
