package pmv_test

import (
	"sort"
	"strings"
	"testing"

	"pmv"
	"pmv/internal/workload"
)

func TestViewDefinitionsPersistAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := pmv.Open(dir, pmv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tpl := storefront(t, db)
	// A view exercising every persisted knob: policy, dividers, fixed
	// predicates, maintenance index.
	tpl2 := pmv.NewTemplate("discounted").
		From("product", "sale").
		Select("product.name").
		Join("product.pid", "sale.pid").
		Fixed("sale.discount", ">=", pmv.Int(10)).
		WhereEq("product.category").
		WhereInterval("sale.discount").
		MustBuild()
	if _, err := db.CreatePartialView(tpl, pmv.ViewOptions{
		MaxEntries: 77, TuplesPerBCP: 4, Policy: pmv.Policy2Q,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreatePartialView(tpl2, pmv.ViewOptions{
		MaxEntries:    33,
		TuplesPerBCP:  2,
		UseMaintIndex: true,
		Dividers:      map[int][]pmv.Value{1: {pmv.Int(10), pmv.Int(25)}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := pmv.Open(dir, pmv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	views := db2.Views()
	if len(views) != 2 {
		t.Fatalf("recovered %d views", len(views))
	}
	v, ok := db2.ViewByName("pmv_on_sale")
	if !ok {
		t.Fatal("pmv_on_sale lost")
	}
	cfg := v.Config()
	if cfg.MaxEntries != 77 || cfg.TuplesPerBCP != 4 || cfg.Policy != pmv.Policy2Q {
		t.Errorf("config lost: %+v", cfg)
	}
	v2, ok := db2.ViewByName("pmv_discounted")
	if !ok {
		t.Fatal("pmv_discounted lost")
	}
	c2 := v2.Config()
	if !c2.UseMaintIndex || len(c2.Dividers[1]) != 2 {
		t.Errorf("interval view config lost: %+v", c2)
	}
	if len(c2.Template.Fixed) != 1 || c2.Template.Fixed[0].Val.Int64() != 10 {
		t.Errorf("fixed predicate lost: %+v", c2.Template.Fixed)
	}

	// The recovered view is empty but functional: queries run, refill,
	// and hit on repetition.
	q := pmv.NewQuery(c2.Template).
		In(0, pmv.Int(1)).
		Between(1, pmv.Int(10), pmv.Int(25)).
		Query()
	n := 0
	if _, err := v2.ExecutePartial(q, func(pmv.Result) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	rep, err := v2.ExecutePartial(q, func(pmv.Result) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n > 0 && !rep.Hit {
		t.Error("recovered view did not refill")
	}
}

func TestDropPartialView(t *testing.T) {
	db := openDB(t)
	tpl := storefront(t, db)
	v, err := db.CreatePartialView(tpl, pmv.ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DropPartialView(v.Name()); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.ViewByName(v.Name()); ok {
		t.Error("dropped view still registered")
	}
	if err := db.DropPartialView("ghost"); err == nil {
		t.Error("dropping missing view succeeded")
	}
	// A dropped view no longer receives maintenance: deletes must not
	// fail even though the view was detached.
	if _, err := db.Delete("sale", func(tu pmv.Tuple) bool { return tu[0].Int64() == 1 }); err != nil {
		t.Fatal(err)
	}
	// And it can be recreated under the same name.
	if _, err := db.CreatePartialView(tpl, pmv.ViewOptions{}); err != nil {
		t.Fatal(err)
	}
}

// planAndRows returns the engine's plan for q as text and q's PMV-less
// answer as a sorted multiset.
func planAndRows(t *testing.T, db *pmv.DB, q *pmv.Query) (string, []string) {
	t.Helper()
	plan, err := db.Engine().Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	if err := db.Execute(q, func(tu pmv.Tuple) error {
		rows = append(rows, tu.String())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(rows)
	return plan.String(), rows
}

func indexNames(t *testing.T, db *pmv.DB, rels ...string) []string {
	t.Helper()
	var names []string
	for _, rel := range rels {
		r, err := db.Engine().Catalog().GetRelation(rel)
		if err != nil {
			t.Fatal(err)
		}
		for _, ix := range r.Indexes {
			names = append(names, ix.Name)
		}
	}
	sort.Strings(names)
	return names
}

// TestDerivedIndexesLifecycle: CreatePartialView derives the composite
// (condition column, join column) indexes its template's join needs;
// they make the planner take the key-only join, persist across reopen
// with the same plan and answers, are created once however many views
// share them, and outlive the view.
func TestDerivedIndexesLifecycle(t *testing.T) {
	dir := t.TempDir()
	db, err := pmv.Open(dir, pmv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tpl := storefront(t, db)
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	q := pmv.NewQuery(tpl).In(0, pmv.Int(1), pmv.Int(5)).In(1, pmv.Int(2)).Query()
	const indexJoin = "IndexJoin product via product_pid\n  IndexScan sale via sale_store\n"
	const keyJoin = "KeyJoin product via product_category_pid, sale via sale_store_pid\n"

	before, want := planAndRows(t, db, q)
	if before != indexJoin {
		t.Fatalf("plan before the view:\n%swant:\n%s", before, indexJoin)
	}
	if len(want) == 0 {
		t.Fatal("query empty; fixture broken")
	}
	if _, err := db.CreatePartialView(tpl, pmv.ViewOptions{}); err != nil {
		t.Fatal(err)
	}
	derived := []string{"product_category", "product_category_pid", "product_pid", "sale_pid", "sale_store", "sale_store_pid"}
	if got := indexNames(t, db, "product", "sale"); strings.Join(got, " ") != strings.Join(derived, " ") {
		t.Fatalf("indexes after CreatePartialView: %v, want %v", got, derived)
	}
	check := func(when string, db *pmv.DB) {
		t.Helper()
		plan, rows := planAndRows(t, db, q)
		if plan != keyJoin {
			t.Errorf("%s: plan:\n%swant:\n%s", when, plan, keyJoin)
		}
		if strings.Join(rows, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: %d rows, the IndexJoin plan returned %d", when, len(rows), len(want))
		}
	}
	check("created", db)

	// A second view over the same condition and join columns (another
	// name and select list) shares the indexes: none is built twice.
	tpl2 := pmv.NewTemplate("on_sale_names").
		From("product", "sale").
		Select("product.name", "sale.store").
		Join("product.pid", "sale.pid").
		WhereEq("product.category").
		WhereEq("sale.store").
		MustBuild()
	if _, err := db.CreatePartialView(tpl2, pmv.ViewOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := indexNames(t, db, "product", "sale"); len(got) != len(derived) {
		t.Errorf("indexes after a second view: %v, want the same %d", got, len(derived))
	}

	// Reopen: the indexes are catalog entries like any other.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = pmv.Open(dir, pmv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	check("reopened", db)

	// Dropping both views leaves the indexes, and so the plan.
	for _, name := range []string{"pmv_on_sale", "pmv_on_sale_names"} {
		if err := db.DropPartialView(name); err != nil {
			t.Fatal(err)
		}
	}
	if got := indexNames(t, db, "product", "sale"); len(got) != len(derived) {
		t.Errorf("indexes after dropping the views: %v, want the same %d", got, len(derived))
	}
	check("dropped", db)
}

// TestCreatePartialViewIndexFailureLeavesNoView: when a derived index
// cannot be built — here its name is taken by an index over another
// column — CreatePartialView fails and nothing of the view remains.
func TestCreatePartialViewIndexFailureLeavesNoView(t *testing.T) {
	db := openDB(t)
	tpl := storefront(t, db)
	if _, err := db.Engine().CreateIndex("sale_store_pid", "sale", "discount"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreatePartialView(tpl, pmv.ViewOptions{}); err == nil {
		t.Fatal("CreatePartialView succeeded although sale_store_pid could not be built")
	}
	if _, ok := db.ViewByName("pmv_on_sale"); ok || len(db.Views()) != 0 {
		t.Error("failed CreatePartialView left a registered view")
	}
	// No maintenance observer either: a delete touches no view.
	if _, err := db.Delete("sale", func(tu pmv.Tuple) bool { return tu[0].Int64() == 1 }); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); len(st.Views) != 0 {
		t.Errorf("stats list %d views", len(st.Views))
	}
}

// TestO3PageCountPin pins what the key-only join is for, on the
// benchmark of record's own set-up (bench/spec.go fullScale: TPC-R
// 0.005, 100 days × 100 suppliers, pool 2,048): a 2-date × 2-supplier
// T1 query against a warm pool touches at most 60 pages, all of them
// resident, where the IndexJoin plan over the paper's single-column
// indexes touches about a thousand — and returns the same rows. The
// counts are buffer-pool fetches and repeat exactly.
func TestO3PageCountPin(t *testing.T) {
	db, err := pmv.Open(t.TempDir(), pmv.Options{BufferPoolPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cfg, err := workload.LoadTPCR(db.Engine(), workload.TPCRConfig{
		ScaleFactor: 0.005, Days: 100, Suppliers: 100, Nations: 25, Seed: 1, Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	tpl := workload.TemplateT1()
	gen := workload.NewQueryGen(cfg, 3, 0.1)
	queries := make([]*pmv.Query, 20)
	for i := range queries {
		queries[i] = gen.T1Query(tpl, 2, 2, false)
	}
	// measure runs every query twice — once to warm the pool — and
	// returns the answers and the second pass's worst fetch counts.
	measure := func() (answers [][]string, maxHits, misses int64) {
		for pass := 0; pass < 2; pass++ {
			answers = answers[:0]
			maxHits, misses = 0, 0
			for _, q := range queries {
				h0, m0 := db.Engine().Pool().Stats()
				_, rows := planAndRows(t, db, q)
				h1, m1 := db.Engine().Pool().Stats()
				answers = append(answers, rows)
				if h1-h0 > maxHits {
					maxHits = h1 - h0
				}
				misses += m1 - m0
			}
		}
		return answers, maxHits, misses
	}
	want, hitsBefore, _ := measure()
	if hitsBefore < 500 {
		t.Fatalf("IndexJoin plan made only %d fetches; the fixture no longer shows the problem", hitsBefore)
	}
	if _, err := db.CreatePartialView(tpl, pmv.ViewOptions{MaxEntries: 5000, TuplesPerBCP: 3}); err != nil {
		t.Fatal(err)
	}
	got, hits, misses := measure()
	if hits > 60 || misses != 0 {
		t.Errorf("warm 2×2 query: %d pool hits (want <= 60, was %d without the composites) and %d misses (want 0)",
			hits, hitsBefore, misses)
	}
	rows := 0
	for i := range want {
		rows += len(want[i])
		if strings.Join(got[i], "\n") != strings.Join(want[i], "\n") {
			t.Errorf("query %d: key-only plan returned %d rows, IndexJoin plan %d", i, len(got[i]), len(want[i]))
		}
	}
	if rows == 0 {
		t.Fatal("every answer empty; fixture broken")
	}
}
