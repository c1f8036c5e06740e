package core

import (
	"math/rand"
	"sort"
	"testing"

	"pmv/internal/cache"
	"pmv/internal/catalog"
	"pmv/internal/engine"
	"pmv/internal/expr"
	"pmv/internal/value"
)

// testDB builds the paper's Figure 1 shape: R(a, c, f), S(d, e, g) with
// R.c = S.d, selection attributes R.f and S.g.
func testDB(t testing.TB) (*engine.Engine, *expr.Template) {
	t.Helper()
	return testDBOpts(t, engine.Options{BufferPoolPages: 64})
}

// testDBOpts is testDB with caller-chosen engine options (lock
// timeouts, fault-injecting filesystems, ...).
func testDBOpts(t testing.TB, opts engine.Options) (*engine.Engine, *expr.Template) {
	t.Helper()
	eng, err := engine.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatalf("open engine: %v", err)
	}
	t.Cleanup(func() { eng.Close() })

	mustCreateRel(t, eng, "R", "a", "c", "f")
	mustCreateRel(t, eng, "S", "d", "e", "g")
	mustIndex(t, eng, "R", "c")
	mustIndex(t, eng, "R", "f")
	mustIndex(t, eng, "S", "d")
	mustIndex(t, eng, "S", "g")

	tpl := &expr.Template{
		Name:      "eqt",
		Relations: []string{"R", "S"},
		Select: []expr.ColumnRef{
			{Rel: "R", Col: "a"}, {Rel: "S", Col: "e"},
		},
		Join: []expr.JoinPred{
			{Left: expr.ColumnRef{Rel: "R", Col: "c"}, Right: expr.ColumnRef{Rel: "S", Col: "d"}},
		},
		Conds: []expr.CondTemplate{
			{Col: expr.ColumnRef{Rel: "R", Col: "f"}, Form: expr.EqualityForm},
			{Col: expr.ColumnRef{Rel: "S", Col: "g"}, Form: expr.EqualityForm},
		},
	}
	if err := tpl.Validate(); err != nil {
		t.Fatalf("template: %v", err)
	}
	return eng, tpl
}

func mustCreateRel(t testing.TB, eng *engine.Engine, name string, cols ...string) {
	t.Helper()
	sc := make([]catalog.Column, len(cols))
	for i, c := range cols {
		sc[i] = catalog.Col(c, value.TypeInt)
	}
	if _, err := eng.CreateRelation(name, catalog.NewSchema(sc...)); err != nil {
		t.Fatalf("create relation %s: %v", name, err)
	}
}

func mustIndex(t testing.TB, eng *engine.Engine, rel string, cols ...string) {
	t.Helper()
	if _, err := eng.CreateIndex("", rel, cols...); err != nil {
		t.Fatalf("create index on %s(%v): %v", rel, cols, err)
	}
}

// loadFig1 populates R and S so that join results exist for
// (f, g) combinations in [0, nf) x [0, ng).
func loadFig1(t testing.TB, eng *engine.Engine, nf, ng, perPair int) {
	t.Helper()
	// Each (f, g) pair gets perPair join results via a dedicated join
	// key c = f*1000 + g.
	for f := 0; f < nf; f++ {
		for g := 0; g < ng; g++ {
			key := int64(f*1000 + g)
			for k := 0; k < perPair; k++ {
				if err := eng.Insert("R", value.Tuple{
					value.Int(key*10 + int64(k)), value.Int(key), value.Int(int64(f)),
				}); err != nil {
					t.Fatalf("insert R: %v", err)
				}
			}
			if err := eng.Insert("S", value.Tuple{
				value.Int(key), value.Int(key * 7), value.Int(int64(g)),
			}); err != nil {
				t.Fatalf("insert S: %v", err)
			}
		}
	}
}

// unmark inserts an S row that joins no R row, so the insert ends
// every complete mark and leaves every answer as it was. A part served
// whole is not audited; tests of the audit use this to keep their
// parts in O3.
func unmark(t testing.TB, eng *engine.Engine) {
	t.Helper()
	if err := eng.Insert("S", value.Tuple{value.Int(-1), value.Int(0), value.Int(0)}); err != nil {
		t.Fatalf("insert S: %v", err)
	}
}

func eqQuery(tpl *expr.Template, fs, gs []int64) *expr.Query {
	mk := func(vals []int64) expr.CondInstance {
		ci := expr.CondInstance{}
		for _, v := range vals {
			ci.Values = append(ci.Values, value.Int(v))
		}
		return ci
	}
	return &expr.Query{Template: tpl, Conds: []expr.CondInstance{mk(fs), mk(gs)}}
}

// runFull executes the query without any PMV and returns sorted
// user-visible result encodings.
func runFull(t testing.TB, eng *engine.Engine, tpl *expr.Template, q *expr.Query) []string {
	t.Helper()
	var out []string
	err := eng.ExecuteProject(q, tpl.Select, func(tu value.Tuple) error {
		out = append(out, tu.String())
		return nil
	})
	if err != nil {
		t.Fatalf("full execution: %v", err)
	}
	sort.Strings(out)
	return out
}

// runPartial executes via the view, asserting exactly-once delivery,
// and returns sorted result encodings plus the report.
func runPartial(t testing.TB, v *View, q *expr.Query) ([]string, QueryReport) {
	t.Helper()
	var out []string
	rep, err := v.ExecutePartial(q, func(r Result) error {
		out = append(out, r.Tuple.String())
		return nil
	})
	if err != nil {
		t.Fatalf("partial execution: %v", err)
	}
	sort.Strings(out)
	return out, rep
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestExactlyOnceDelivery(t *testing.T) {
	eng, tpl := testDB(t)
	loadFig1(t, eng, 6, 6, 3)
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 100, TuplesPerBCP: 2})
	if err != nil {
		t.Fatalf("new view: %v", err)
	}
	q := eqQuery(tpl, []int64{1, 3}, []int64{2, 4})
	want := runFull(t, eng, tpl, q)
	if len(want) == 0 {
		t.Fatal("test query has no results; data generator broken")
	}

	// First run: cold view, everything from execution.
	got, rep := runPartial(t, v, q)
	if !equalStrings(got, want) {
		t.Fatalf("cold run results differ:\n got %v\nwant %v", got, want)
	}
	if rep.Hit {
		t.Error("cold view reported a hit")
	}
	if rep.ConditionParts != 4 {
		t.Errorf("O1 produced %d parts, want 4", rep.ConditionParts)
	}

	// Second run: hot view serves partials, total delivery unchanged.
	got2, rep2 := runPartial(t, v, q)
	if !equalStrings(got2, want) {
		t.Fatalf("hot run results differ:\n got %v\nwant %v", got2, want)
	}
	if !rep2.Hit {
		t.Error("hot view reported a miss")
	}
	if rep2.PartialTuples == 0 {
		t.Error("hot view served no partial tuples")
	}
	if rep2.PartialTuples > rep2.TotalTuples {
		t.Errorf("partial %d > total %d", rep2.PartialTuples, rep2.TotalTuples)
	}
}

// TestPartHitsCountedLocally: the local O2 path counts the parts whose
// bcp is cached, in the report and in Stats, as the routed ProbeBCPs
// does. Two single-part queries cache (1,2) and (3,4); the 4-part query
// over f ∈ {1,3}, g ∈ {2,4} then finds exactly those two.
func TestPartHitsCountedLocally(t *testing.T) {
	eng, tpl := testDB(t)
	loadFig1(t, eng, 6, 6, 3)
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 100, TuplesPerBCP: 2})
	if err != nil {
		t.Fatalf("new view: %v", err)
	}
	runPartial(t, v, eqQuery(tpl, []int64{1}, []int64{2}))
	runPartial(t, v, eqQuery(tpl, []int64{3}, []int64{4}))
	v.ResetStats()
	_, rep := runPartial(t, v, eqQuery(tpl, []int64{1, 3}, []int64{2, 4}))
	if rep.ConditionParts != 4 || rep.PartHits != 2 {
		t.Errorf("report: %d parts, %d hits; want 4 parts, 2 hits", rep.ConditionParts, rep.PartHits)
	}
	if st := v.Stats(); st.PartsProbed != 4 || st.PartHits != 2 {
		t.Errorf("Stats: PartsProbed %d, PartHits %d; want 4, 2", st.PartsProbed, st.PartHits)
	}
}

func TestFBoundRespected(t *testing.T) {
	eng, tpl := testDB(t)
	loadFig1(t, eng, 3, 3, 5) // 5 results per (f,g) pair
	const F = 2
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 100, TuplesPerBCP: F})
	if err != nil {
		t.Fatalf("new view: %v", err)
	}
	q := eqQuery(tpl, []int64{1}, []int64{1})
	runPartial(t, v, q)
	if got := v.TupleCount(); got > F {
		t.Errorf("cached %d tuples for one bcp, F=%d", got, F)
	}
	_, rep := runPartial(t, v, q)
	if rep.PartialTuples != F {
		t.Errorf("hot query served %d partials, want F=%d", rep.PartialTuples, F)
	}
}

func TestMaxEntriesRespected(t *testing.T) {
	eng, tpl := testDB(t)
	loadFig1(t, eng, 8, 8, 1)
	const L = 5
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: L, TuplesPerBCP: 2})
	if err != nil {
		t.Fatalf("new view: %v", err)
	}
	for f := int64(0); f < 8; f++ {
		for g := int64(0); g < 8; g++ {
			runPartial(t, v, eqQuery(tpl, []int64{f}, []int64{g}))
		}
	}
	if got := v.Len(); got > L {
		t.Errorf("view holds %d entries, cap %d", got, L)
	}
}

// addJoinOnly adds T(h), one row per loadFig1 join key, and returns
// tpl extended by R.c = T.h: T only joins, so no column of its own is
// in Ls′ and its index key is read from R.c, which the layout appends.
func addJoinOnly(t *testing.T, eng *engine.Engine, tpl *expr.Template, nf, ng int) *expr.Template {
	t.Helper()
	mustCreateRel(t, eng, "T", "h")
	mustIndex(t, eng, "T", "h")
	for f := 0; f < nf; f++ {
		for g := 0; g < ng; g++ {
			if err := eng.Insert("T", value.Tuple{value.Int(int64(f*1000 + g))}); err != nil {
				t.Fatalf("insert T: %v", err)
			}
		}
	}
	out := *tpl
	out.Name = "eqt3"
	out.Relations = []string{"R", "S", "T"}
	out.Join = append(append([]expr.JoinPred(nil), tpl.Join...), expr.JoinPred{
		Left: expr.ColumnRef{Rel: "R", Col: "c"}, Right: expr.ColumnRef{Rel: "T", Col: "h"},
	})
	if err := out.Validate(); err != nil {
		t.Fatalf("template: %v", err)
	}
	return &out
}

// TestFailedAuditInvalidatesProbedEntries: with maintenance deferred (as
// under the write plane, between a batch's apply and its purge) a query
// can be handed a cached tuple the base data no longer produces. The DS
// audit fails that query loudly — and must leave the view so that the
// retry the error invites succeeds at once, not only after the purge
// arrives.
func TestFailedAuditInvalidatesProbedEntries(t *testing.T) {
	eng, tpl := testDB(t)
	loadFig1(t, eng, 4, 4, 2)
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 100, TuplesPerBCP: 5})
	if err != nil {
		t.Fatalf("new view: %v", err)
	}
	q := eqQuery(tpl, []int64{1}, []int64{2})
	runPartial(t, v, q) // warm the cache
	unmark(t, eng)
	// Change a select-list column behind the view's back: detached, as
	// the write plane detaches views, it is told nothing.
	eng.UnregisterObserver(v)
	if _, err := eng.UpdateWhere("S",
		func(tu value.Tuple) bool { return tu[0].Int64() == 1002 },
		func(tu value.Tuple) value.Tuple { tu[1] = value.Int(-1); return tu }); err != nil {
		t.Fatalf("update: %v", err)
	}
	if _, err := v.ExecutePartial(q, func(Result) error { return nil }); err == nil {
		t.Fatal("stale cached tuples passed the DS audit")
	}
	got, rep := runPartial(t, v, q) // the retry
	if want := runFull(t, eng, tpl, q); !equalStrings(got, want) {
		t.Fatalf("retry results differ:\n got %v\nwant %v", got, want)
	}
	if rep.PartialTuples != 0 {
		t.Errorf("retry was served %d tuples from the entries the audit had just failed", rep.PartialTuples)
	}
}

func TestInsertRequiresNoMaintenance(t *testing.T) {
	eng, tpl := testDB(t)
	loadFig1(t, eng, 3, 3, 2)
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 100, TuplesPerBCP: 10})
	if err != nil {
		t.Fatalf("new view: %v", err)
	}
	q := eqQuery(tpl, []int64{1}, []int64{1})
	runPartial(t, v, q)
	before := v.TupleCount()

	// Insert a new R tuple creating one more (1,1) result.
	if err := eng.Insert("R", value.Tuple{value.Int(99999), value.Int(1001), value.Int(1)}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if got := v.TupleCount(); got != before {
		t.Errorf("insert changed cached tuples: %d -> %d", before, got)
	}
	// Correctness: new tuple delivered exactly once, old partials fine.
	got, _ := runPartial(t, v, q)
	want := runFull(t, eng, tpl, q)
	if !equalStrings(got, want) {
		t.Fatalf("post-insert results differ:\n got %v\nwant %v", got, want)
	}
}

func TestUpdateIrrelevantAttributeSkipsMaintenance(t *testing.T) {
	eng, tpl := testDB(t)
	loadFig1(t, eng, 3, 3, 2)
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 100, TuplesPerBCP: 10})
	if err != nil {
		t.Fatalf("new view: %v", err)
	}
	runPartial(t, v, eqQuery(tpl, []int64{1}, []int64{1}))

	// S.d (join), S.e (select), S.g (cond) are all relevant; there is
	// no irrelevant S column in this schema, so exercise the check via
	// an update that rewrites S.e to the same value — value-equal
	// updates must be skipped.
	n, err := eng.UpdateWhere("S", func(tu value.Tuple) bool {
		return tu[0].Int64() == 1001
	}, func(tu value.Tuple) value.Tuple {
		return tu // no-op rewrite
	})
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	if n == 0 {
		t.Fatal("update matched nothing")
	}
	st := v.Stats()
	if st.UpdatesSkipped != st.UpdatesSeen || st.UpdatesSeen == 0 {
		t.Errorf("updates seen=%d skipped=%d; want all skipped", st.UpdatesSeen, st.UpdatesSkipped)
	}
	if st.TuplesPurged != 0 {
		t.Errorf("no-op update purged %d tuples", st.TuplesPurged)
	}
}

func TestUpdateRelevantAttributePurges(t *testing.T) {
	eng, tpl := testDB(t)
	loadFig1(t, eng, 3, 3, 2)
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 100, TuplesPerBCP: 10})
	if err != nil {
		t.Fatalf("new view: %v", err)
	}
	q := eqQuery(tpl, []int64{1}, []int64{1})
	runPartial(t, v, q)

	// Rewrite S.e for the (1,1) feeder: cached tuples embed S.e and
	// must be purged.
	if _, err := eng.UpdateWhere("S", func(tu value.Tuple) bool {
		return tu[0].Int64() == 1001
	}, func(tu value.Tuple) value.Tuple {
		out := tu.Clone()
		out[1] = value.Int(tu[1].Int64() + 1)
		return out
	}); err != nil {
		t.Fatalf("update: %v", err)
	}
	got, rep := runPartial(t, v, q)
	want := runFull(t, eng, tpl, q)
	if !equalStrings(got, want) {
		t.Fatalf("post-update results differ:\n got %v\nwant %v", got, want)
	}
	if rep.PartialTuples != 0 {
		t.Errorf("served %d stale partials after relevant update", rep.PartialTuples)
	}
}

func TestRandomizedExactlyOnce(t *testing.T) {
	eng, tpl := testDB(t)
	loadFig1(t, eng, 10, 10, 3)
	v, err := NewView(eng, Config{
		Template: tpl, MaxEntries: 20, TuplesPerBCP: 2, Policy: cache.Policy2Q,
	})
	if err != nil {
		t.Fatalf("new view: %v", err)
	}
	rng := rand.New(rand.NewSource(42))
	pick := func(n, max int) []int64 {
		seen := map[int64]bool{}
		var out []int64
		for len(out) < n {
			x := int64(rng.Intn(max))
			if !seen[x] {
				seen[x] = true
				out = append(out, x)
			}
		}
		return out
	}
	for i := 0; i < 200; i++ {
		q := eqQuery(tpl, pick(1+rng.Intn(3), 10), pick(1+rng.Intn(3), 10))
		got, _ := runPartial(t, v, q)
		want := runFull(t, eng, tpl, q)
		if !equalStrings(got, want) {
			t.Fatalf("iteration %d: results differ:\n got %v\nwant %v", i, got, want)
		}
		// Occasionally mutate the data underneath the view.
		switch rng.Intn(10) {
		case 0:
			key := int64(rng.Intn(10)*1000 + rng.Intn(10))
			eng.DeleteWhere("R", func(tu value.Tuple) bool {
				return tu[1].Int64() == key && rng.Intn(2) == 0
			})
		case 1:
			key := int64(rng.Intn(10)*1000 + rng.Intn(10))
			eng.Insert("R", value.Tuple{
				value.Int(rng.Int63n(1 << 40)), value.Int(key), value.Int(key / 1000),
			})
		}
	}
	if v.Stats().QueryHits == 0 {
		t.Error("200 random queries produced zero hits; cache is inert")
	}
}

func TestHottestTuples(t *testing.T) {
	eng, tpl := testDB(t)
	loadFig1(t, eng, 4, 4, 1)
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 100, TuplesPerBCP: 5})
	if err != nil {
		t.Fatalf("new view: %v", err)
	}
	hot := eqQuery(tpl, []int64{1}, []int64{1})
	cold := eqQuery(tpl, []int64{2}, []int64{2})
	runPartial(t, v, cold)
	for i := 0; i < 5; i++ {
		runPartial(t, v, hot)
	}
	ranked := v.HottestTuples(10)
	if len(ranked) == 0 {
		t.Fatal("no ranked tuples")
	}
	if ranked[0].Accesses < ranked[len(ranked)-1].Accesses {
		t.Error("ranking not descending")
	}
	if ranked[0].Accesses == 0 {
		t.Error("hottest tuple has zero accesses")
	}
}

func TestExistsFast(t *testing.T) {
	eng, tpl := testDB(t)
	loadFig1(t, eng, 4, 4, 1)
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 100, TuplesPerBCP: 5})
	if err != nil {
		t.Fatalf("new view: %v", err)
	}
	q := eqQuery(tpl, []int64{1}, []int64{1})
	if _, proven, _ := v.ExistsFast(q); proven {
		t.Error("cold view proved existence")
	}
	runPartial(t, v, q)
	exists, proven, err := v.ExistsFast(q)
	if err != nil {
		t.Fatalf("exists: %v", err)
	}
	if !proven || !exists {
		t.Errorf("hot view: exists=%v proven=%v, want true/true", exists, proven)
	}
}

func TestSkipOnConditionPartExplosion(t *testing.T) {
	eng, tpl := testDB(t)
	loadFig1(t, eng, 10, 10, 1)
	v, err := NewView(eng, Config{
		Template: tpl, MaxEntries: 100, TuplesPerBCP: 2, MaxConditionParts: 4,
	})
	if err != nil {
		t.Fatalf("new view: %v", err)
	}
	q := eqQuery(tpl, []int64{0, 1, 2}, []int64{0, 1, 2}) // 9 parts > 4
	got, rep := runPartial(t, v, q)
	if !rep.Skipped {
		t.Error("query was not skipped despite exceeding the cap")
	}
	want := runFull(t, eng, tpl, q)
	if !equalStrings(got, want) {
		t.Fatalf("skipped query results differ:\n got %v\nwant %v", got, want)
	}
}

func BenchmarkExecutePartialHot(b *testing.B) {
	eng, tpl := testDB(b)
	loadFig1(b, eng, 10, 10, 2)
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 1000, TuplesPerBCP: 3})
	if err != nil {
		b.Fatalf("new view: %v", err)
	}
	q := eqQuery(tpl, []int64{1, 2}, []int64{3, 4})
	runPartial(b, v, q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := v.ExecutePartial(q, func(Result) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
	}
}
