package core

import (
	"context"
	"math"
	"testing"
	"time"

	"pmv/internal/catalog"
	"pmv/internal/engine"
	"pmv/internal/expr"
	"pmv/internal/obs"
	"pmv/internal/value"
)

// completeOf reports whether the view holds a complete entry for the
// bcp (f, g) of testDB's template.
func completeOf(v *View, f, g int64) bool {
	key := v.coder.KeyFromCondValues([]value.Value{value.Int(f), value.Int(g)})
	v.mu.Lock()
	defer v.mu.Unlock()
	e, ok := v.entries[key]
	return ok && v.completeLocked(e)
}

// completeView loads Figure 1's data with perPair results per bcp and
// returns a view whose entries hold up to 5 tuples, with the bcp (1, 2)
// complete.
func completeView(t *testing.T, perPair int) (*View, *expr.Query) {
	t.Helper()
	eng, tpl := testDB(t)
	loadFig1(t, eng, 4, 4, perPair)
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 100, TuplesPerBCP: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := eqQuery(tpl, []int64{1}, []int64{2})
	runPartial(t, v, q)
	if !completeOf(v, 1, 2) {
		t.Fatal("a miss whose O3 found 2 of F=5 tuples left its entry incomplete")
	}
	return v, q
}

// checkAnswer runs q through the view and requires the full answer.
func checkAnswer(t *testing.T, v *View, q *expr.Query) QueryReport {
	t.Helper()
	got, rep := runPartial(t, v, q)
	if want := runFull(t, v.eng, v.cfg.Template, q); !equalStrings(got, want) {
		t.Fatalf("view delivered\n %v\nwant\n %v", got, want)
	}
	if rep.TotalTuples != len(got) {
		t.Fatalf("report counts %d tuples, %d delivered", rep.TotalTuples, len(got))
	}
	return rep
}

// TestCompleteQuerySkipsO3: a query whose every part is complete is
// answered from the view alone; one with some complete parts runs O3
// over the rest only; an entry that could not hold its bcp's answer
// is never complete.
func TestCompleteQuerySkipsO3(t *testing.T) {
	v, q := completeView(t, 2)
	rep := checkAnswer(t, v, q)
	if rep.CompleteParts != 1 || rep.PartialTuples != 2 || rep.Skipped || rep.PartialOnly {
		t.Fatalf("complete query's report %+v, want 1 complete part, 2 partials, not skipped", rep)
	}
	if st := v.Stats(); st.O3Skipped != 1 || st.CompleteParts != 1 {
		t.Fatalf("stats count %d O3 skips and %d complete parts, want 1 and 1", st.O3Skipped, st.CompleteParts)
	}

	// (1, 2) is complete and (2, 2) not: O3 runs over (2, 2) alone.
	q2 := eqQuery(v.cfg.Template, []int64{1, 2}, []int64{2})
	tr := obs.New(1, "core_test")
	var got []string
	rep, err := v.ExecutePartialCtx(obs.WithTrace(context.Background(), tr), q2, func(r Result) error {
		got = append(got, r.Tuple.String())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalTuples != len(got) || rep.TotalTuples != len(runFull(t, v.eng, v.cfg.Template, q2)) {
		t.Fatalf("residual query delivered %d tuples, reported %d", len(got), rep.TotalTuples)
	}
	if o3, ok := tr.Find(obs.KindO3); !ok || o3.N1 != 1 || o3.N3 != 0 {
		t.Fatalf("O3 span %+v, want 1 residual part and no duplicate", o3)
	}
	if rep := checkAnswer(t, v, q2); rep.CompleteParts != 2 {
		t.Fatalf("second run served %d parts whole, want both", rep.CompleteParts)
	}

	// F = 1 under a bcp of 2 results: the fresh row that did not fit
	// keeps the entry incomplete.
	v1, err := NewView(v.eng, Config{Name: "f1", Template: v.cfg.Template, MaxEntries: 100, TuplesPerBCP: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkAnswer(t, v1, q)
	if completeOf(v1, 1, 2) {
		t.Fatal("an entry holding 1 of its bcp's 2 results was marked complete")
	}
	if rep := checkAnswer(t, v1, q); rep.CompleteParts != 0 {
		t.Fatalf("a full entry was served whole: %+v", rep)
	}
}

// TestInsertIntoCompleteBCP: an insert into either relation that adds a
// result row to a complete bcp ends its mark, so the next query runs
// O3 over the bcp and delivers the new row.
func TestInsertIntoCompleteBCP(t *testing.T) {
	for _, c := range []struct {
		rel string
		tup value.Tuple
	}{
		{"R", value.Tuple{value.Int(99999), value.Int(1002), value.Int(1)}}, // joins S 1002
		{"S", value.Tuple{value.Int(1002), value.Int(5), value.Int(2)}},     // joins R's c = 1002
	} {
		t.Run(c.rel, func(t *testing.T) {
			v, q := completeView(t, 2)
			if err := v.eng.Insert(c.rel, c.tup); err != nil {
				t.Fatal(err)
			}
			if completeOf(v, 1, 2) {
				t.Fatal("an insert into a complete bcp left it complete")
			}
			if rep := checkAnswer(t, v, q); rep.CompleteParts != 0 {
				t.Fatalf("query after the insert served %d parts whole", rep.CompleteParts)
			}
		})
	}
}

// TestUpdateMovesIntoCompleteBCP: an update that moves a row's
// condition or join value into a complete bcp counts as an insert of
// its new image.
func TestUpdateMovesIntoCompleteBCP(t *testing.T) {
	for _, c := range []struct {
		name string
		// match picks an R row outside the bcp (1, 2); set moves it in.
		match func(value.Tuple) bool
		set   func(value.Tuple) value.Tuple
	}{
		{"condition", // pair (3, 2): f 3 → 1 joins it into (1, 2)
			func(tu value.Tuple) bool { return tu[1].Int64() == 3002 },
			func(tu value.Tuple) value.Tuple { tu[2] = value.Int(1); return tu }},
		{"join", // pair (1, 3): c 1003 → 1002 joins it into (1, 2)
			func(tu value.Tuple) bool { return tu[1].Int64() == 1003 },
			func(tu value.Tuple) value.Tuple { tu[1] = value.Int(1002); return tu }},
	} {
		t.Run(c.name, func(t *testing.T) {
			v, q := completeView(t, 2)
			if n, err := v.eng.UpdateWhere("R", c.match, c.set); err != nil || n != 2 {
				t.Fatalf("updated %d rows: %v", n, err)
			}
			if completeOf(v, 1, 2) {
				t.Fatal("an update moving rows into a complete bcp left it complete")
			}
			if got := checkAnswer(t, v, q).TotalTuples; got != 4 {
				t.Fatalf("bcp answer has %d rows after the update, want 4", got)
			}
		})
	}
}

// TestDeleteFromCompleteBCP: the purge clears the mark of every entry it
// touches. Deleting one of two identical rows purges both cached copies
// (the maintenance index cannot tell them apart), so an entry left
// complete would lose the surviving row.
func TestDeleteFromCompleteBCP(t *testing.T) {
	eng, tpl := testDB(t)
	loadFig1(t, eng, 4, 4, 2)
	if err := eng.Insert("R", value.Tuple{value.Int(10020), value.Int(1002), value.Int(1)}); err != nil {
		t.Fatal(err)
	}
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 100, TuplesPerBCP: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := eqQuery(tpl, []int64{1}, []int64{2})
	checkAnswer(t, v, q)
	if !completeOf(v, 1, 2) {
		t.Fatal("warm-up left (1, 2) incomplete")
	}
	deleted := false
	if _, err := eng.DeleteWhere("R", func(tu value.Tuple) bool {
		if deleted || tu[0].Int64() != 10020 {
			return false
		}
		deleted = true
		return true
	}); err != nil || !deleted {
		t.Fatalf("delete: %v", err)
	}
	if completeOf(v, 1, 2) {
		t.Fatal("the purge left its entry complete")
	}
	if got := checkAnswer(t, v, q).TotalTuples; got != 2 {
		t.Fatalf("bcp answer has %d rows after the delete, want 2", got)
	}
}

// TestInsertDuringO3MarksNothing: an insert that lands while a reader's
// O3 runs, after the scan passed its row, keeps that reader's commit
// from marking the bcp complete; otherwise the entry would be complete
// without the new row.
func TestInsertDuringO3MarksNothing(t *testing.T) {
	eng, tpl := testDB(t)
	loadFig1(t, eng, 4, 4, 2)
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 100, TuplesPerBCP: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := eqQuery(tpl, []int64{1}, []int64{2})
	before := len(runFull(t, eng, tpl, q))
	inserted, rows := false, 0
	if _, err := v.ExecutePartial(q, func(r Result) error {
		rows++
		if r.Partial || inserted {
			return nil
		}
		inserted = true
		return eng.Insert("R", value.Tuple{value.Int(99999), value.Int(1002), value.Int(1)})
	}); err != nil {
		t.Fatal(err)
	}
	if !inserted || rows != before {
		t.Fatalf("reader delivered %d rows around the insert, want the %d before it", rows, before)
	}
	if completeOf(v, 1, 2) {
		t.Fatal("a commit whose O3 raced an insert marked the bcp complete")
	}
	if got := checkAnswer(t, v, q).TotalTuples; got != before+1 {
		t.Fatalf("next query delivered %d rows, want %d", got, before+1)
	}
}

// TestTruncatedO3MarksNothing: an O3 cut short by the deadline commits
// what it staged but marks nothing complete.
func TestTruncatedO3MarksNothing(t *testing.T) {
	eng, tpl := testDB(t)
	loadFig1(t, eng, 4, 4, 2)
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 100, TuplesPerBCP: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := eqQuery(tpl, []int64{1}, []int64{2})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	rep, err := v.ExecutePartialCtx(ctx, q, func(r Result) error {
		<-ctx.Done()
		return nil
	})
	if err != nil || !rep.DeadlineExpired || rep.TotalTuples != 1 {
		t.Fatalf("truncated query: %+v, %v; want 1 row and DeadlineExpired", rep, err)
	}
	if v.TupleCount() != 1 || completeOf(v, 1, 2) {
		t.Fatalf("truncated O3 left %d tuples, complete=%v; want 1, false", v.TupleCount(), completeOf(v, 1, 2))
	}
	checkAnswer(t, v, q)
}

// TestSkippedQueryMarksNothing: a query O1 skips (too many parts) probes
// no part, so its commit marks nothing, even where its O3 covered only
// part of a bcp.
func TestSkippedQueryMarksNothing(t *testing.T) {
	eng, _ := testDB(t)
	loadFig1(t, eng, 4, 4, 2)
	tpl := &expr.Template{
		Name:      "eqt_iv",
		Relations: []string{"R", "S"},
		Select:    []expr.ColumnRef{{Rel: "R", Col: "a"}, {Rel: "S", Col: "e"}},
		Join: []expr.JoinPred{
			{Left: expr.ColumnRef{Rel: "R", Col: "c"}, Right: expr.ColumnRef{Rel: "S", Col: "d"}},
		},
		Conds: []expr.CondTemplate{
			{Col: expr.ColumnRef{Rel: "R", Col: "f"}, Form: expr.EqualityForm},
			{Col: expr.ColumnRef{Rel: "S", Col: "g"}, Form: expr.IntervalForm},
		},
	}
	v, err := NewView(eng, Config{
		Template: tpl, MaxEntries: 50, TuplesPerBCP: 5, MaxConditionParts: 1,
		Dividers: map[int][]value.Value{1: ints(2, 4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	mkQuery := func(fs []int64, lo, hi int64) *expr.Query {
		return &expr.Query{Template: tpl, Conds: []expr.CondInstance{
			{Values: ints(fs...)},
			{Intervals: []expr.Interval{{Lo: value.Int(lo), Hi: value.Int(hi), LoIncl: true}}},
		}}
	}
	// g in [2, 3) covers half of the basic interval [2, 4).
	if rep := checkAnswer(t, v, mkQuery([]int64{1, 2}, 2, 3)); !rep.Skipped {
		t.Fatalf("2 parts over a cap of 1 were not skipped: %+v", rep)
	}
	v.mu.Lock()
	for key, e := range v.entries {
		if v.completeLocked(e) {
			t.Errorf("skipped query marked %q complete", key)
		}
	}
	v.mu.Unlock()
	checkAnswer(t, v, mkQuery([]int64{1}, 2, 4))
}

// TestStrayRowMarksNothing: a row that satisfies a part's equality but
// keys to another bcp (-0 under a query for +0: value.Equal, yet other
// bits) keeps the commit from marking the part's entry complete, which
// would then lack that row.
func TestStrayRowMarksNothing(t *testing.T) {
	eng, err := engine.Open(t.TempDir(), engine.Options{BufferPoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if _, err := eng.CreateRelation("R", catalog.NewSchema(
		catalog.Col("a", value.TypeInt), catalog.Col("c", value.TypeInt), catalog.Col("f", value.TypeFloat))); err != nil {
		t.Fatal(err)
	}
	mustCreateRel(t, eng, "S", "d", "e", "g")
	mustIndex(t, eng, "S", "d")
	tpl := &expr.Template{
		Name:      "eqf",
		Relations: []string{"R", "S"},
		Select:    []expr.ColumnRef{{Rel: "R", Col: "a"}, {Rel: "S", Col: "e"}},
		Join: []expr.JoinPred{
			{Left: expr.ColumnRef{Rel: "R", Col: "c"}, Right: expr.ColumnRef{Rel: "S", Col: "d"}},
		},
		Conds: []expr.CondTemplate{
			{Col: expr.ColumnRef{Rel: "R", Col: "f"}, Form: expr.EqualityForm},
			{Col: expr.ColumnRef{Rel: "S", Col: "g"}, Form: expr.EqualityForm},
		},
	}
	for i, f := range []float64{0, math.Copysign(0, -1)} {
		if err := eng.Insert("R", value.Tuple{value.Int(int64(i)), value.Int(1), value.Float(f)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Insert("S", value.Tuple{value.Int(1), value.Int(7), value.Int(2)}); err != nil {
		t.Fatal(err)
	}
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 10, TuplesPerBCP: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := &expr.Query{Template: tpl, Conds: []expr.CondInstance{
		{Values: []value.Value{value.Float(0)}}, {Values: ints(2)},
	}}
	if n := len(runFull(t, eng, tpl, q)); n != 2 {
		t.Fatalf("plain execution finds %d rows for f = 0, want both zeros", n)
	}
	for i := 0; i < 3; i++ {
		checkAnswer(t, v, q)
	}
}
