package core

import (
	"context"
	"fmt"
	"maps"
	"sort"
	"sync"
	"testing"

	"pmv/internal/exec"
	"pmv/internal/expr"
	"pmv/internal/value"
)

func TestDistinctDelivery(t *testing.T) {
	eng, tpl := testDB(t)
	// perPair = 3 identical-looking products per join key would give
	// duplicate (a, e) pairs only if a collides; construct explicit
	// duplicates instead: two R tuples with the same a and join key.
	for i := 0; i < 2; i++ {
		if err := eng.Insert("R", value.Tuple{value.Int(7), value.Int(1001), value.Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Insert("S", value.Tuple{value.Int(1001), value.Int(70), value.Int(1)}); err != nil {
		t.Fatal(err)
	}
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 10, TuplesPerBCP: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := eqQuery(tpl, []int64{1}, []int64{1})

	// Plain execution delivers the duplicate twice.
	var plain []string
	v.ExecutePartial(q, func(r Result) error {
		plain = append(plain, r.Tuple.String())
		return nil
	})
	if len(plain) != 2 {
		t.Fatalf("multiset delivery: %d tuples, want 2", len(plain))
	}

	// DISTINCT delivers it once, cold and hot.
	for run := 0; run < 2; run++ {
		var got []string
		_, err := v.ExecutePartialDistinct(q, func(r Result) error {
			got = append(got, r.Tuple.String())
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 {
			t.Fatalf("run %d: distinct delivered %d tuples: %v", run, len(got), got)
		}
	}
}

func TestPartialAggregate(t *testing.T) {
	eng, tpl := testDB(t)
	loadFig1(t, eng, 4, 4, 3)
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 100, TuplesPerBCP: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := eqQuery(tpl, []int64{1}, []int64{2})
	runPartial(t, v, q) // warm

	var partialGroups, finalGroups []GroupResult
	_, err = v.ExecutePartialAggregate(q,
		[]int{0}, // group by R.a
		[]exec.AggSpec{{Func: exec.AggCount}, {Func: exec.AggSum, Col: 1}},
		func(g GroupResult) error {
			if g.Partial {
				partialGroups = append(partialGroups, g)
			} else {
				finalGroups = append(finalGroups, g)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(partialGroups) == 0 {
		t.Error("no partial aggregates from a warm view")
	}
	if len(finalGroups) == 0 {
		t.Fatal("no final aggregates")
	}
	// Final counts must cover all 3 tuples per join key.
	var total int64
	for _, g := range finalGroups {
		total += g.Aggs[0].Int64()
	}
	if total != 3 {
		t.Errorf("final aggregate covers %d tuples, want 3", total)
	}
	// Partial totals can never exceed final totals.
	var partialTotal int64
	for _, g := range partialGroups {
		partialTotal += g.Aggs[0].Int64()
	}
	if partialTotal > total {
		t.Errorf("partial count %d exceeds final %d", partialTotal, total)
	}
}

func TestPartialOrdered(t *testing.T) {
	eng, tpl := testDB(t)
	loadFig1(t, eng, 4, 4, 5)
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 100, TuplesPerBCP: 3})
	if err != nil {
		t.Fatal(err)
	}
	q := eqQuery(tpl, []int64{2}, []int64{3})
	runPartial(t, v, q) // warm

	var partial, full []value.Tuple
	_, err = v.ExecutePartialOrdered(q, []exec.SortKey{{Col: 0}}, func(r Result) error {
		if r.Partial {
			partial = append(partial, r.Tuple)
		} else {
			full = append(full, r.Tuple)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sorted := func(rows []value.Tuple) bool {
		for i := 1; i < len(rows); i++ {
			if value.Compare(rows[i-1][0], rows[i][0]) > 0 {
				return false
			}
		}
		return true
	}
	if len(partial) == 0 {
		t.Error("no ordered partials")
	}
	if !sorted(partial) || !sorted(full) {
		t.Error("ordered delivery not sorted")
	}
	if len(full) != 5 {
		t.Errorf("full sorted stream has %d rows, want 5", len(full))
	}
}

func TestExecutePartialRanked(t *testing.T) {
	eng, tpl := testDB(t)
	loadFig1(t, eng, 4, 4, 2)
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 100, TuplesPerBCP: 5})
	if err != nil {
		t.Fatal(err)
	}
	hot := eqQuery(tpl, []int64{1}, []int64{1})
	cold := eqQuery(tpl, []int64{2}, []int64{2})
	runPartial(t, v, cold)
	for i := 0; i < 5; i++ {
		runPartial(t, v, hot) // (1,1) becomes much hotter than (2,2)
	}

	// A query touching both bcps must deliver the hot bcp's partials
	// first.
	q := eqQuery(tpl, []int64{1, 2}, []int64{1, 2})
	var partialOrder []string
	var total []string
	_, err = v.ExecutePartialRanked(q, func(r Result) error {
		total = append(total, r.Tuple.String())
		if r.Partial {
			partialOrder = append(partialOrder, r.Tuple.String())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(partialOrder) < 2 {
		t.Fatalf("too few partials to check ordering: %v", partialOrder)
	}
	// Results of (1,1) have R.a = 10010+k; of (2,2), R.a = 20020+k —
	// so hot rows start with "1".
	sawCold := false
	for _, s := range partialOrder {
		isHot := s[1] == '1' // "(1xxxx, ...)"
		if isHot && sawCold {
			t.Fatalf("hot partial after cold partial: %v", partialOrder)
		}
		if !isHot {
			sawCold = true
		}
	}
	// Exactly-once still holds.
	sortStrings(total)
	want := runFull(t, eng, tpl, q)
	if !equalStrings(total, want) {
		t.Fatalf("ranked delivery changed results: %d vs %d rows", len(total), len(want))
	}
}

func sortStrings(xs []string) {
	sort.Strings(xs)
}

func TestConcurrentQueriesAndDML(t *testing.T) {
	eng, tpl := testDB(t)
	loadFig1(t, eng, 6, 6, 2)
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 30, TuplesPerBCP: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	// Query workers.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				f := (seed + int64(i)) % 6
				g := (seed * int64(i+1)) % 6
				q := eqQuery(tpl, []int64{f}, []int64{g})
				if _, err := v.ExecutePartial(q, func(Result) error { return nil }); err != nil {
					errCh <- err
					return
				}
			}
		}(int64(w))
	}
	// DML workers.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				key := (seed*1000 + int64(i)*7) % 6006
				if _, err := eng.DeleteWhere("R", func(tu value.Tuple) bool {
					return tu[1].Int64() == key
				}); err != nil {
					errCh <- err
					return
				}
				if err := eng.Insert("R", value.Tuple{
					value.Int(seed*100000 + int64(i)), value.Int(key), value.Int(key / 1000),
				}); err != nil {
					errCh <- err
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	// After the dust settles, the view must still be consistent.
	q := eqQuery(tpl, []int64{1}, []int64{1})
	got, _ := runPartial(t, v, q)
	want := runFull(t, eng, tpl, q)
	if !equalStrings(got, want) {
		t.Errorf("post-concurrency mismatch:\n got %v\nwant %v", got, want)
	}
}

func TestViewWithIntervalCondition(t *testing.T) {
	eng, _ := testDB(t)
	loadFig1(t, eng, 8, 8, 2)
	// Template with g as an interval condition.
	tpl := &expr.Template{
		Name:      "eqt_iv",
		Relations: []string{"R", "S"},
		Select: []expr.ColumnRef{
			{Rel: "R", Col: "a"}, {Rel: "S", Col: "e"},
		},
		Join: []expr.JoinPred{
			{Left: expr.ColumnRef{Rel: "R", Col: "c"}, Right: expr.ColumnRef{Rel: "S", Col: "d"}},
		},
		Conds: []expr.CondTemplate{
			{Col: expr.ColumnRef{Rel: "R", Col: "f"}, Form: expr.EqualityForm},
			{Col: expr.ColumnRef{Rel: "S", Col: "g"}, Form: expr.IntervalForm},
		},
	}
	v, err := NewView(eng, Config{
		Template: tpl, MaxEntries: 50, TuplesPerBCP: 3,
		Dividers: map[int][]value.Value{1: ints(2, 4, 6)},
	})
	if err != nil {
		t.Fatal(err)
	}
	mkQuery := func(f, lo, hi int64) *expr.Query {
		return &expr.Query{Template: tpl, Conds: []expr.CondInstance{
			{Values: ints(f)},
			{Intervals: []expr.Interval{{Lo: value.Int(lo), Hi: value.Int(hi), LoIncl: true, HiIncl: false}}},
		}}
	}
	// Query [1, 5) crosses basic intervals (-inf,2), [2,4), [4,6).
	q := mkQuery(1, 1, 5)
	got, rep := runPartial(t, v, q)
	want := runFull(t, eng, tpl, q)
	if !equalStrings(got, want) {
		t.Fatalf("cold interval query mismatch:\n got %v\nwant %v", got, want)
	}
	if rep.ConditionParts != 3 {
		t.Errorf("O1 produced %d parts, want 3", rep.ConditionParts)
	}
	// Hot run serves partials; results still exact.
	got2, rep2 := runPartial(t, v, q)
	if !equalStrings(got2, want) {
		t.Fatalf("hot interval query mismatch")
	}
	if !rep2.Hit || rep2.PartialTuples == 0 {
		t.Errorf("hot interval query: hit=%v partials=%d", rep2.Hit, rep2.PartialTuples)
	}
	// A narrower query [2,3) is served from the same bcp [2,4) with
	// re-checking: cached tuples outside [2,3) must not leak.
	qn := mkQuery(1, 2, 3)
	gotN, _ := runPartial(t, v, qn)
	wantN := runFull(t, eng, tpl, qn)
	if !equalStrings(gotN, wantN) {
		t.Fatalf("narrow query mismatch:\n got %v\nwant %v", gotN, wantN)
	}

	// The routed O2 — ProbeBCPs over the parts a router renders — serves
	// the narrow query what the local O2 serves, and refuses a part
	// whose condition is not one component of its form.
	local := map[string]int{}
	if _, err := v.PartialOnly(qn, func(r Result) error { local[fmt.Sprint(r.Tuple)]++; return nil }); err != nil {
		t.Fatal(err)
	}
	coder, err := NewBCPCoder(tpl, map[int][]value.Value{1: ints(2, 4, 6)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cps, err := coder.BreakConditions(qn)
	if err != nil || len(cps) != 1 || cps[0].Exact {
		t.Fatalf("narrow query broke into %d parts (%v), want one inexact part", len(cps), err)
	}
	rp := RemotePart{Key: cps[0].BCPKey, Conds: cps[0].CondInstances()}
	routed := map[string]int{}
	if _, err := v.ProbeBCPs(context.Background(), []RemotePart{rp}, func(t value.Tuple) error {
		routed[fmt.Sprint(t[:len(tpl.Select)])]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(local) == 0 || !maps.Equal(local, routed) {
		t.Fatalf("routed O2 served %v, local O2 %v", routed, local)
	}
	rp.Conds = []expr.CondInstance{{Values: ints(1, 2)}, rp.Conds[1]}
	if _, err := v.ProbeBCPs(context.Background(), []RemotePart{rp}, nil); err == nil {
		t.Fatal("a two-value equality component was accepted")
	}
}

func TestIntervalViewRequiresDividers(t *testing.T) {
	eng, _ := testDB(t)
	tpl := &expr.Template{
		Name:      "iv_only",
		Relations: []string{"R"},
		Select:    []expr.ColumnRef{{Rel: "R", Col: "a"}},
		Conds: []expr.CondTemplate{
			{Col: expr.ColumnRef{Rel: "R", Col: "f"}, Form: expr.IntervalForm},
		},
	}
	if _, err := NewView(eng, Config{Template: tpl}); err == nil {
		t.Error("interval view without dividers accepted")
	}
}
