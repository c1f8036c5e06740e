package pmv_test

import (
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"pmv"
	"pmv/internal/catalog/catalogtest"
	"pmv/internal/expr"
	"pmv/internal/storage"
	"pmv/internal/value"
	"pmv/internal/workload"
)

// loadT1 opens a database in dir holding a small TPC-R instance,
// analyzed, and returns it with T1 and a query generator over it.
func loadT1(t *testing.T, dir string) (*pmv.DB, *expr.Template, *workload.QueryGen) {
	t.Helper()
	db, err := pmv.Open(dir, pmv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	cfg, err := workload.LoadTPCR(db.Engine(), workload.TPCRConfig{
		ScaleFactor: 0.002, Days: 20, Suppliers: 20, Nations: 5, Seed: 4, Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	return db, workload.TemplateT1(), workload.NewQueryGen(cfg, 9, 0.1)
}

// t1Answer runs q's O3 over T1's select list, as a view does, and
// returns the rows sorted, with the plan that produced them.
func t1Answer(t *testing.T, db *pmv.DB, tpl *expr.Template, q *expr.Query) (string, []string) {
	t.Helper()
	plan, err := db.Engine().Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	if err := db.Engine().ExecuteProject(q, tpl.Select, func(tu value.Tuple) error {
		rows = append(rows, tu.String())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(rows)
	return plan.String(), rows
}

// anOrder returns one order's key and date and the supplier of one of
// its lineitems: the T1 query on that date and supplier returns it.
func anOrder(t *testing.T, db *pmv.DB) (orderkey, date, supp value.Value) {
	t.Helper()
	cat := db.Engine().Catalog()
	orders, _ := cat.GetRelation("orders")
	lineitem, _ := cat.GetRelation("lineitem")
	ok, od := orders.Schema.ColIndex("orderkey"), orders.Schema.ColIndex("orderdate")
	lok, ls := lineitem.Schema.ColIndex("orderkey"), lineitem.Schema.ColIndex("suppkey")
	var found bool
	lineitem.Heap.Scan(func(_ storage.RID, li value.Tuple) error {
		if found {
			return nil
		}
		return orders.Heap.Scan(func(_ storage.RID, o value.Tuple) error {
			if !found && value.Equal(o[ok], li[lok]) {
				orderkey, date, supp, found = o[ok], o[od], li[ls], true
			}
			return nil
		})
	})
	if !found {
		t.Fatal("no order with a lineitem; fixture broken")
	}
	return orderkey, date, supp
}

// TestCoveredO3SeesUpdatedPrice: CreatePartialView derives covering
// indexes for T1, so O3 reads totalprice from orders' index entries;
// after UPDATE orders SET totalprice the same query returns the new
// price, through O3 and through the view, and every index still
// matches its heap.
func TestCoveredO3SeesUpdatedPrice(t *testing.T) {
	db, tpl, _ := loadT1(t, t.TempDir())
	view, err := db.CreatePartialView(tpl, pmv.ViewOptions{MaxEntries: 100, TuplesPerBCP: 3})
	if err != nil {
		t.Fatal(err)
	}
	orderkey, date, supp := anOrder(t, db)
	q := &expr.Query{Template: tpl, Conds: []expr.CondInstance{{Values: []value.Value{date}}, {Values: []value.Value{supp}}}}
	const wantPlan = "KeyJoin orders via orders_orderdate_orderkey_totalprice, lineitem via lineitem_suppkey_orderkey_extendedprice_shipmode\n"
	if plan, _ := t1Answer(t, db, tpl, q); plan != wantPlan {
		t.Fatalf("plan:\n%swant:\n%s", plan, wantPlan)
	}
	// Warm the view, so the update must also purge it.
	if _, err := view.ExecutePartial(q, func(pmv.Result) error { return nil }); err != nil {
		t.Fatal(err)
	}
	price := value.Float(123456.25)
	if n, err := db.Update("orders", func(tu pmv.Tuple) bool { return value.Equal(tu[0], orderkey) },
		func(tu pmv.Tuple) pmv.Tuple { tu[3] = price; return tu }); err != nil || n != 1 {
		t.Fatalf("update: %d rows, %v", n, err)
	}
	prices := func(rows []value.Tuple) []value.Value {
		var out []value.Value
		for _, r := range rows {
			if value.Equal(r[0], orderkey) {
				out = append(out, r[2])
			}
		}
		return out
	}
	var o3, viewRows []value.Tuple
	if err := db.Engine().ExecuteProject(q, tpl.Select, func(tu value.Tuple) error {
		o3 = append(o3, tu.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := view.ExecutePartial(q, func(r pmv.Result) error {
		viewRows = append(viewRows, r.Tuple.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]value.Value{"O3": prices(o3), "view": prices(viewRows)} {
		if len(got) == 0 {
			t.Fatalf("%s: order %v missing", name, orderkey)
		}
		for _, p := range got {
			if !value.Identical(p, price) {
				t.Errorf("%s: order %v has totalprice %v, want %v", name, orderkey, p, price)
			}
		}
	}
	if err := catalogtest.IndexesMatchHeap(db.Engine().Catalog()); err != nil {
		t.Fatal(err)
	}
}

// TestBareCompositeLayoutStillPlansKeyJoin: a catalog holding only the
// two-column (condition, join) indexes, the layout before derived
// indexes carried columns, still plans the key-only join, reading the
// heap for T1's other columns, and answers as the paper's IndexJoin
// plan over the same data does — before and after a reopen, whose
// catalog.json records no covered columns.
func TestBareCompositeLayoutStillPlansKeyJoin(t *testing.T) {
	ref, tpl, gen := loadT1(t, t.TempDir())
	dir := t.TempDir()
	db, _, _ := loadT1(t, dir)
	for _, ix := range [][3]string{{"orders", "orderdate", "orderkey"}, {"lineitem", "suppkey", "orderkey"}} {
		if _, err := db.Engine().CreateIndex("", ix[0], ix[1], ix[2]); err != nil {
			t.Fatal(err)
		}
	}
	var queries []*expr.Query
	for i := 0; i < 10; i++ {
		queries = append(queries, gen.T1Query(tpl, 2, 2, false))
	}
	check := func(when string, db *pmv.DB) {
		t.Helper()
		rows := 0
		for _, q := range queries {
			plan, got := t1Answer(t, db, tpl, q)
			if plan != "KeyJoin orders via orders_orderdate_orderkey, lineitem via lineitem_suppkey_orderkey\n" {
				t.Fatalf("%s: plan:\n%s", when, plan)
			}
			refPlan, want := t1Answer(t, ref, tpl, q)
			if !strings.HasPrefix(refPlan, "IndexJoin") {
				t.Fatalf("reference plan:\n%s", refPlan)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: %d rows, the IndexJoin plan %d", when, len(got), len(want))
			}
			rows += len(got)
		}
		if rows == 0 {
			t.Fatal("every query empty; fixture broken")
		}
	}
	check("created", db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	meta, err := os.ReadFile(filepath.Join(dir, "catalog.json"))
	if err != nil || strings.Contains(string(meta), "covered") {
		t.Fatalf("catalog.json (%v) names covered columns:\n%s", err, meta)
	}
	db, err = pmv.Open(dir, pmv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	check("reopened", db)
}
