// driver.go runs the paper's query protocol (Section 3.3) once for
// every place a view lives: O1 breaks Cselect into condition parts, O2
// serves the cached tuples and records them in DS, O3 executes the
// residual query, which leaves out the parts O2 served whole, consumes
// DS for every duplicate and stages the rest, and then the staged rows
// are committed to the view or, when DS has tokens left, the
// exactly-once audit fails and nothing is committed. With no part
// served whole the residual query is the query.
// A local View and a router over shards are two Sources of the same
// run, so a protocol change is one edit here.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"pmv/internal/expr"
	"pmv/internal/obs"
	"pmv/internal/value"
)

// Source is where one query's PMV lives: a local view under its S
// lock, or a router's shards. Run calls its methods from one goroutine.
type Source interface {
	// Parts runs Operation O1 over q, building the parts in buf.
	// ErrTooManyParts makes the query skip the PMV (O2 gets no parts).
	Parts(buf *PartBuf, q *expr.Query) ([]ConditionPart, error)
	// Probe runs Operation O2 over parts, calling emit once per cached
	// Ls′ tuple with the bcp key it is cached under. Calls to emit must
	// not overlap. It may mark a part Whole (see ConditionPart); a
	// source that cannot tell leaves every part unmarked.
	Probe(ctx context.Context, parts []ConditionPart, emit func(t value.Tuple, key string) error) (ProbeReport, error)
	// Exec makes attempt i of Operation O3 over q, the residual query,
	// emitting every Ls′ result row dup does not take, and reports
	// whether an attempt i+1 exists.
	// dup is DS's check: Exec hands it each row's keycodec encoding in
	// Ls′ order, once, before emitting the row, and drops the row when
	// dup reports true. dup is nil when DS is empty. An attempt that
	// ended with the deadline returns an error matching
	// context.DeadlineExceeded.
	Exec(ctx context.Context, i int, q *expr.Query, dup func(key []byte) bool, emit func(value.Tuple) error) (more bool, err error)
	// Fill stages every O3 row DS did not suppress, before it is
	// emitted; t is the plan's own row. It writes no entry.
	Fill(t value.Tuple)
	// Refill commits what Fill staged. Run calls it only after a passed
	// audit or an O3 that ran out of time, never after a failed audit;
	// served holds the bcp keys that delivered a partial (a key may
	// repeat).
	Refill(served []string)
	// Invalidate drops the entries of keys after a failed audit.
	Invalidate(keys []string)
}

// ProbeReport summarizes one Operation O2.
type ProbeReport struct {
	// Hit is true when any probed bcp was tracked by the view.
	Hit bool
	// PartHits counts probed parts whose bcp was present.
	PartHits int
	// PartialTuples counts Ls′ tuples emitted.
	PartialTuples int
}

// driver is one run's state. Drivers are pooled with their row
// callbacks bound once and O1's part buffer, so a warm run allocates
// nothing of its own but the bcp keys' string.
type driver struct {
	src      Source
	emit     func(Result) error
	userCols int
	ds       *dsTable
	rep      QueryReport
	parts    PartBuf
	res      residualBuf
	// served holds the bcp key of every partial, written once per run
	// of equal keys.
	served []string
	// O3's counters for the attempt that ended it: rows emitted,
	// duplicates suppressed.
	fresh, dups int64
	o3Overhead  time.Duration

	partial func(value.Tuple, string) error
	row     func(value.Tuple) error
	dup     func([]byte) bool
}

var drivers = sync.Pool{New: func() any {
	d := new(driver)
	d.partial, d.row, d.dup = d.partialRow, d.o3Row, d.takeKey
	return d
}}

// Run answers q from src with the PMV protocol. emit receives
// every result exactly once, projected to its first userCols columns
// (Ls); O2's results come flagged Partial. With partialOnly set only
// O1 and O2 run. endO2, when non-nil, runs after O2's last partial and
// before O3 starts; its error aborts the query.
//
// A context that is cancelled ends the query with ctx.Err(). A deadline
// that runs out does not fail it: the partials delivered stand, O3
// stops or never starts, and the report comes back with
// DeadlineExpired set. O3 fails over to the source's next attempt only
// while none of its rows went out, with DS as O2 left it.
func Run(ctx context.Context, src Source, q *expr.Query, userCols int, partialOnly bool, emit func(Result) error, endO2 func() error) (QueryReport, error) {
	d := drivers.Get().(*driver)
	d.src, d.emit, d.userCols, d.ds = src, emit, userCols, newDS()
	defer d.release()
	return d.run(ctx, q, partialOnly, endO2)
}

func (d *driver) release() {
	d.ds.release()
	d.res.release()
	clear(d.served)
	*d = driver{parts: d.parts, res: d.res, served: d.served[:0], partial: d.partial, row: d.row, dup: d.dup}
	drivers.Put(d)
}

func (d *driver) run(ctx context.Context, q *expr.Query, partialOnly bool, endO2 func() error) (QueryReport, error) {
	tr := obs.FromContext(ctx)
	rep := &d.rep

	// --- Operation O1 ---
	var o1Start time.Time
	var o1Mark int64
	if tr != nil {
		o1Start, o1Mark = time.Now(), tr.AllocMark()
	}
	parts, err := d.src.Parts(&d.parts, q)
	if errors.Is(err, ErrTooManyParts) {
		rep.Skipped, parts = true, nil
	} else if err != nil {
		return *rep, err
	}
	if tr != nil {
		var inexact int64
		for i := range parts {
			if !parts[i].Exact {
				inexact++
			}
		}
		tr.SpanCost(obs.KindO1, o1Start, int64(len(parts)), inexact, 0,
			obs.Cost{Allocs: tr.AllocMark() - o1Mark})
	}
	rep.ConditionParts = len(parts)

	// --- Operation O2 ---
	start := time.Now()
	pr, err := d.src.Probe(ctx, parts, d.partial)
	rep.Hit, rep.PartHits = pr.Hit, pr.PartHits
	if err != nil {
		return *rep, err
	}
	for i := range parts {
		if parts[i].Whole {
			rep.CompleteParts++
		}
	}
	rep.PartialLatency = time.Since(start)
	if partialOnly {
		rep.Overhead, rep.TotalTuples, rep.PartialOnly = rep.PartialLatency, rep.PartialTuples, true
		return *rep, nil
	}
	if endO2 != nil {
		if err := endO2(); err != nil {
			return *rep, err
		}
	}
	// A deadline that expired while O2 streamed still delivered the hot
	// partials: skip O3 rather than fail.
	if err := ctx.Err(); err != nil {
		return d.truncated(err)
	}

	// --- Operation O3, over the residual query ---
	execStart := time.Now()
	var execMark int64
	if tr != nil {
		execMark = tr.AllocMark()
	}
	// The partials of parts the residual query leaves out are delivered
	// and not audited: no O3 row can take their tokens.
	rq, run := d.res.residual(q, parts)
	d.ds.forget(d.res.skipped)
	dup := d.dup
	if d.ds.left == 0 {
		dup = nil // O2 delivered nothing O3 can repeat
	}
	for i := 0; run; i++ {
		var more bool
		more, err = d.src.Exec(ctx, i, rq, dup, d.row)
		// Fail over only while no O3 row went out: a second attempt could
		// repeat one, so the query fails typed instead.
		if err == nil || d.fresh > 0 || !more || isTruncation(ctx, err) {
			break
		}
		// The failed attempt may have taken tokens for duplicates it
		// dropped; the next one starts from O2's DS.
		d.ds.restore()
		d.dups = 0
	}
	rep.TotalTuples = rep.PartialTuples + int(d.fresh)
	rep.ExecLatency = time.Since(execStart)
	rep.Overhead = rep.PartialLatency + d.o3Overhead
	if tr != nil {
		tr.SpanCost(obs.KindO3, execStart, int64(d.res.inside), d.fresh, d.dups,
			obs.Cost{Allocs: tr.AllocMark() - execMark})
	}
	if err != nil {
		if isTruncation(ctx, err) {
			d.src.Refill(d.served)
			return d.truncated(err)
		}
		return *rep, err
	}

	// After O3 every DS token must have been taken: the partials were a
	// subset of the full result. The tokens left came from entries that
	// served this query; invalidate those, so that the retry this error
	// invites runs against the base data instead of meeting the same
	// stale entries until their purge arrives.
	if d.ds.left != 0 {
		keys := slices.Clone(d.served)
		slices.Sort(keys)
		d.src.Invalidate(slices.Compact(keys))
		return *rep, fmt.Errorf("core: %d partial tuples not found during execution (consistency violation)", d.ds.left)
	}
	d.src.Refill(d.served)
	return *rep, nil
}

// partialRow records one O2 tuple in DS before the caller sees it, so
// O3 can always consume it.
func (d *driver) partialRow(t value.Tuple, key string) error {
	d.ds.add(t)
	d.rep.PartialTuples++
	if n := len(d.served); n == 0 || d.served[n-1] != key {
		d.served = append(d.served, key)
	}
	return d.emit(Result{Tuple: t[:d.userCols], Partial: true})
}

// takeKey is O3's duplicate check (Source.Exec's dup): a row whose
// encoding is k takes a DS token when DS holds one, because it was
// delivered in O2, and the token keeps duplicate result tuples
// delivered the right number of times (the paper's multiset argument).
func (d *driver) takeKey(k []byte) bool {
	if d.ds.left == 0 {
		return false
	}
	start := time.Now()
	took := d.ds.takeKey(k)
	if took {
		d.dups++
	}
	d.o3Overhead += time.Since(start)
	return took
}

// o3Row delivers one O3 row DS did not take, after the source saw it
// for its refill.
func (d *driver) o3Row(t value.Tuple) error {
	start := time.Now()
	d.src.Fill(t)
	d.o3Overhead += time.Since(start)
	d.fresh++
	return d.emit(Result{Tuple: t[:d.userCols]})
}

// isTruncation reports whether err ended O3 because time ran out or
// the caller gave up.
func isTruncation(ctx context.Context, err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	ctxErr := ctx.Err()
	return ctxErr != nil && errors.Is(err, ctxErr)
}

// truncated ends a query cut short by err. Deadline expiry is the
// service contract — the results delivered stand, DeadlineExpired is
// flagged, no error. Cancellation aborts with its error.
func (d *driver) truncated(err error) (QueryReport, error) {
	rep := d.rep
	rep.TotalTuples = max(rep.TotalTuples, rep.PartialTuples)
	if !errors.Is(err, context.DeadlineExceeded) {
		return rep, err
	}
	rep.DeadlineExpired = true
	return rep, nil
}
