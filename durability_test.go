package pmv_test

import (
	"slices"
	"sort"
	"testing"

	"pmv"
	"pmv/internal/catalog"
	"pmv/internal/catalog/catalogtest"
)

// TestCrashDurabilityEndToEnd exercises the public WAL surface: data
// written with SyncEveryOp survives an unclean shutdown, views are
// recreated from their persisted definitions, every index (the view's
// covering sale index included) matches its heap after recovery, and
// queries over the recovered database are exact.
func TestCrashDurabilityEndToEnd(t *testing.T) {
	dir := t.TempDir()
	db, err := pmv.Open(dir, pmv.Options{EnableWAL: true, SyncEveryOp: true})
	if err != nil {
		t.Fatal(err)
	}
	tpl := storefront(t, db)
	view, err := db.CreatePartialView(tpl, pmv.ViewOptions{MaxEntries: 50, TuplesPerBCP: 3})
	if err != nil {
		t.Fatal(err)
	}
	q := pmv.NewQuery(tpl).In(0, pmv.Int(1)).In(1, pmv.Int(2)).Query()
	var before []string
	if _, err := view.ExecutePartial(q, func(r pmv.Result) error {
		before = append(before, r.Tuple.String())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 {
		t.Fatal("fixture query empty")
	}
	// Post-query DML that must survive the crash, an update of the
	// column the view's derived sale index carries among it.
	if _, err := db.Delete("sale", func(tu pmv.Tuple) bool { return tu[0].Int64()%7 == 0 }); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Update("sale", func(tu pmv.Tuple) bool { return tu[0].Int64()%5 == 0 },
		func(tu pmv.Tuple) pmv.Tuple { tu[2] = pmv.Int(tu[2].Int64() + 100); return tu }); err != nil {
		t.Fatal(err)
	}
	var want []string
	if err := db.Execute(q, func(tu pmv.Tuple) error {
		want = append(want, tu.String())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(want)
	// Crash: abandon without Close.

	db2, err := pmv.Open(dir, pmv.Options{EnableWAL: true, SyncEveryOp: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Engine().Recovered() == 0 {
		t.Error("nothing was replayed after the crash")
	}
	// Recovery rebuilt every index from the heap, the covering one too.
	if err := catalogtest.IndexesMatchHeap(db2.Engine().Catalog()); err != nil {
		t.Fatal(err)
	}
	sale, err := db2.Engine().Catalog().GetRelation("sale")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(sale.Indexes, func(ix *catalog.Index) bool { return ix.Covered > 0 }) {
		t.Error("the view's derived sale index carries no column")
	}
	v2, ok := db2.ViewByName(view.Name())
	if !ok {
		t.Fatal("view definition lost")
	}
	var got []string
	if _, err := v2.ExecutePartial(q, func(r pmv.Result) error {
		got = append(got, r.Tuple.String())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("recovered query: %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d differs after recovery", i)
		}
	}
}

// TestCreateIndexDurableBeforeCatalog: an index catalog.json names must
// hold its entries on disk. After a checkpoint the WAL is empty, so an
// Open after a crash runs no recovery and trusts the index file as it
// finds it.
func TestCreateIndexDurableBeforeCatalog(t *testing.T) {
	dir := t.TempDir()
	db, err := pmv.Open(dir, pmv.Options{EnableWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateRelation("kv", pmv.Col("k", pmv.TypeInt), pmv.Col("v", pmv.TypeInt)); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 300; i++ {
		if err := db.Insert("kv", pmv.Int(i), pmv.Int(i*i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("kv", "k"); err != nil {
		t.Fatal(err)
	}
	// Crash: abandon without Close.

	db2, err := pmv.Open(dir, pmv.Options{EnableWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := catalogtest.IndexesMatchHeap(db2.Engine().Catalog()); err != nil {
		t.Fatal(err)
	}
	r, err := db2.Engine().Catalog().GetRelation("kv")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Indexes) != 1 || r.Heap.Count() != 300 {
		t.Fatalf("%d indexes over %d rows, want 1 over 300", len(r.Indexes), r.Heap.Count())
	}
}
