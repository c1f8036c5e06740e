package pmv_test

import (
	"context"
	"slices"
	"sort"
	"testing"

	"pmv"
	"pmv/internal/expr"
	"pmv/internal/value"
)

// TestT1PreparedMatchesPlanQuery replays the head of embed-hot's query
// stream (BenchmarkPMVT1's) through a prepared T1 plan and through
// PlanQuery: every query of the stream is one binding class (2 dates ×
// 2 suppliers), equality conditions cost from their number of values,
// so the prepared plan must be PlanQuery's — operator, indexes and
// build side — and return its rows. And the view's answer, partials
// and O3 rows together, must be the full query's.
func TestT1PreparedMatchesPlanQuery(t *testing.T) {
	db, view, queries := t1Fixture(t)
	eng := db.Engine()
	tpl := view.Config().Template
	prep := eng.Prepare(tpl, view.SelectPlus())
	for i, q := range queries[:300] {
		plan, err := eng.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := prep.Bind(q)
		if err != nil {
			t.Fatal(err)
		}
		shape, right := b.String(), b.BuildRight()
		b.Release()
		if shape != plan.String() || right != plan.BuildRight() {
			t.Fatalf("query %d: prepared\n%s(build right %v), PlanQuery\n%s(build right %v)", i, shape, right, plan, plan.BuildRight())
		}
		var want, got, full []string
		if err := eng.ExecuteProject(q, view.SelectPlus(), func(tu value.Tuple) error {
			want = append(want, tu.String())
			full = append(full, tu[:len(tpl.Select)].String())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := eng.ExecutePreparedCtx(context.Background(), prep, q, nil, func(tu value.Tuple) error {
			got = append(got, tu.String())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		sort.Strings(want)
		sort.Strings(got)
		if !slices.Equal(got, want) {
			t.Fatalf("query %d: prepared plan returned %d rows, PlanQuery %d", i, len(got), len(want))
		}
		var served []string
		if _, err := view.ExecutePartial(q, func(r pmv.Result) error {
			served = append(served, r.Tuple.String())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		sort.Strings(full)
		sort.Strings(served)
		if !slices.Equal(served, full) {
			t.Fatalf("query %d: the view served %d rows, the query has %d", i, len(served), len(full))
		}
	}
}

// t1WarmAllocs is the most allocations a warm T1 View.ExecutePartial
// may make on embed-hot's stream, averaged over the stream. Measured:
// 9 (2 cores, go1.24): the bcp keys' string, a few user-row clones and
// the refill's copies. It was 124 before the view prepared its O3.
const t1WarmAllocs = 14

// TestT1WarmAllocs pins a warm T1 query's allocations at t1WarmAllocs.
func TestT1WarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random; allocation counts do not repeat")
	}
	_, view, queries := t1Fixture(t)
	run := func(q *expr.Query) {
		if _, err := view.ExecutePartial(q, func(pmv.Result) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range queries {
		run(q)
	}
	i := 0
	got := testing.AllocsPerRun(len(queries), func() {
		run(queries[i%len(queries)])
		i++
	})
	t.Logf("%.1f allocations per warm T1 query", got)
	if got > t1WarmAllocs {
		t.Fatalf("a warm T1 query allocates %.1f times, pinned at %d", got, t1WarmAllocs)
	}
}
