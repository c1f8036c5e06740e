package core

import (
	"context"
	"testing"
	"time"

	"pmv/internal/lock"
	"pmv/internal/obs"
	"pmv/internal/value"
)

// TestStatsO3Time pins the new cumulative O3Time counter: every
// completed query adds its execution latency.
func TestStatsO3Time(t *testing.T) {
	eng, tpl := testDB(t)
	loadFig1(t, eng, 4, 4, 3)
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 50, TuplesPerBCP: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := eqQuery(tpl, []int64{1}, []int64{2})
	runPartial(t, v, q)
	runPartial(t, v, q)
	st := v.Stats()
	if st.O3Time <= 0 {
		t.Fatalf("O3Time = %v after two queries, want > 0", st.O3Time)
	}
	if st.Queries != 2 {
		t.Fatalf("Queries = %d, want 2", st.Queries)
	}

	// The degraded path executes too; its latency must also count.
	before := st.O3Time
	evict := eng.NewTxnID()
	if err := eng.AcquireLock(evict, v.lockRes(), lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	if _, err := v.ExecutePartial(q, func(Result) error { return nil }); err != nil {
		t.Fatal(err)
	}
	eng.Locks().ReleaseAll(evict)
	st = v.Stats()
	if st.DegradedQueries != 1 {
		t.Fatalf("DegradedQueries = %d, want 1 (lock was held exclusively)", st.DegradedQueries)
	}
	if st.O3Time <= before {
		t.Fatalf("O3Time did not grow on the degraded path: %v -> %v", before, st.O3Time)
	}
}

// TestStatsLockWaitTime pins LockWaitTime: a query that blocks on the
// view's S lock behind a held X lock accumulates the wait.
func TestStatsLockWaitTime(t *testing.T) {
	eng, tpl := testDB(t)
	loadFig1(t, eng, 4, 4, 3)
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 50, TuplesPerBCP: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := eqQuery(tpl, []int64{1}, []int64{2})
	runPartial(t, v, q)
	if w := v.Stats().LockWaitTime; w < 0 {
		t.Fatalf("negative LockWaitTime %v", w)
	}

	// Hold the X lock, start a query, release after a beat: the query's
	// S acquire must wait and the wait must land in LockWaitTime.
	const hold = 60 * time.Millisecond
	writer := eng.NewTxnID()
	if err := eng.AcquireLock(writer, v.lockRes(), lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := v.ExecutePartial(q, func(Result) error { return nil })
		done <- err
	}()
	time.Sleep(hold)
	eng.Locks().ReleaseAll(writer)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := v.Stats()
	if st.DegradedQueries != 0 {
		t.Fatalf("query degraded instead of waiting (DegradedQueries=%d)", st.DegradedQueries)
	}
	if st.LockWaitTime < hold/2 {
		t.Fatalf("LockWaitTime = %v after a ~%v blocked acquire", st.LockWaitTime, hold)
	}
}

// TestTraceSpansReconcile drives a traced query through the full PMV
// protocol and checks that the recorded spans agree with the report:
// O1's part count, O2's served tuples, O3's emitted/suppressed split.
func TestTraceSpansReconcile(t *testing.T) {
	eng, tpl := testDB(t)
	// F below each bcp's 3 results: no entry is complete, so O3 runs
	// over every part and every partial reappears.
	loadFig1(t, eng, 4, 4, 3)
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 50, TuplesPerBCP: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := eqQuery(tpl, []int64{1, 2}, []int64{2, 3})
	runPartial(t, v, q) // warm so the traced run has O2 hits

	tr := obs.New(1, "core_test")
	ctx := obs.WithTrace(context.Background(), tr)
	rep, err := v.ExecutePartialCtx(ctx, q, func(Result) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Hit || rep.PartialTuples == 0 {
		t.Fatalf("warmed query should hit: %+v", rep)
	}

	lw, ok := tr.Find(obs.KindLockWait)
	if !ok || lw.N1 != 1 {
		t.Fatalf("lock-wait span = %+v, ok=%v (want acquired flag)", lw, ok)
	}
	o1, ok := tr.Find(obs.KindO1)
	if !ok || o1.N1 != int64(rep.ConditionParts) {
		t.Fatalf("O1 span parts=%d, report says %d", o1.N1, rep.ConditionParts)
	}
	var probes, served int64
	for _, sp := range tr.Spans() {
		if sp.Kind == obs.KindO2Probe {
			probes++
			served += sp.N2
		}
	}
	if probes != int64(rep.ConditionParts) {
		t.Fatalf("%d probe spans for %d condition parts", probes, rep.ConditionParts)
	}
	if served != int64(rep.PartialTuples) {
		t.Fatalf("probe spans served %d tuples, report says %d", served, rep.PartialTuples)
	}
	o3, ok := tr.Find(obs.KindO3)
	if !ok {
		t.Fatal("no O3 span")
	}
	if o3.N1 != int64(rep.ConditionParts) {
		t.Fatalf("O3 ran over %d residual parts, want all %d", o3.N1, rep.ConditionParts)
	}
	if o3.N2 != int64(rep.TotalTuples-rep.PartialTuples) {
		t.Fatalf("O3 emitted %d, report implies %d", o3.N2, rep.TotalTuples-rep.PartialTuples)
	}
	if o3.N3 != int64(rep.PartialTuples) {
		t.Fatalf("O3 suppressed %d duplicates, want %d (every partial reappears)", o3.N3, rep.PartialTuples)
	}
	if _, ok := tr.Find(obs.KindPlan); !ok {
		t.Fatal("no plan span")
	}
	ex, ok := tr.Find(obs.KindExec)
	if !ok {
		t.Fatal("no exec span")
	}
	if ex.N1 != o3.N2+o3.N3 {
		t.Fatalf("executor produced %d rows, O3 saw %d", ex.N1, o3.N2+o3.N3)
	}
	if _, ok := tr.Find(obs.KindRefill); !ok {
		t.Fatal("no refill event")
	}
}

// TestTraceMaintenanceSpan checks that a traced delete records the
// maintenance purge work it triggered.
func TestTraceMaintenanceSpan(t *testing.T) {
	eng, tpl := testDB(t)
	loadFig1(t, eng, 4, 4, 3)
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 50, TuplesPerBCP: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := eqQuery(tpl, []int64{1}, []int64{2})
	runPartial(t, v, q) // cache tuples for (f=1, g=2)
	if v.TupleCount() == 0 {
		t.Fatal("nothing cached")
	}

	tr := obs.New(2, "delete")
	ctx := obs.WithTrace(context.Background(), tr)
	// Deleting the (f=1, g=2) join partner purges the cached tuples.
	if _, err := eng.DeleteWhereCtx(ctx, "S", func(tu value.Tuple) bool {
		return tu[0].Int64() == 1002
	}); err != nil {
		t.Fatal(err)
	}
	m, ok := tr.Find(obs.KindMaint)
	if !ok {
		t.Fatalf("no maintenance span; trace:\n%s", tr)
	}
	if m.N1 == 0 {
		t.Fatal("maintenance span reports zero purged tuples")
	}
	if st := v.Stats(); st.TuplesPurged != m.N1 {
		t.Fatalf("span purged %d, stats say %d", m.N1, st.TuplesPurged)
	}
}
