package catalog

import (
	"errors"
	"testing"

	"pmv/internal/buffer"
	"pmv/internal/storage"
	"pmv/internal/value"
)

func newCatalog(t *testing.T) (*Catalog, string, *buffer.Pool) {
	t.Helper()
	return newCatalogAt(t, t.TempDir())
}

func newCatalogAt(t *testing.T, dir string) (*Catalog, string, *buffer.Pool) {
	t.Helper()
	mgr, err := storage.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	pool := buffer.NewPool(mgr, 64)
	c, err := Open(dir, pool, mgr)
	if err != nil {
		t.Fatal(err)
	}
	return c, dir, pool
}

func itemsSchema() Schema {
	return NewSchema(
		Col("id", value.TypeInt),
		Col("name", value.TypeString),
		Col("price", value.TypeFloat),
	)
}

func TestSchemaColIndex(t *testing.T) {
	s := itemsSchema()
	if s.ColIndex("name") != 1 || s.ColIndex("missing") != -1 || s.Arity() != 3 {
		t.Error("schema lookups broken")
	}
	joined := s.Concat(NewSchema(Col("extra", value.TypeBool)))
	if joined.Arity() != 4 || joined.ColIndex("extra") != 3 {
		t.Error("Concat broken")
	}
}

func TestCreateAndGetRelation(t *testing.T) {
	c, _, _ := newCatalog(t)
	r, err := c.CreateRelation("items", itemsSchema())
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "items" || r.Heap == nil {
		t.Error("relation malformed")
	}
	if _, err := c.CreateRelation("items", itemsSchema()); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate create: %v", err)
	}
	got, err := c.GetRelation("items")
	if err != nil || got != r {
		t.Errorf("get: %v %v", got, err)
	}
	if _, err := c.GetRelation("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing get: %v", err)
	}
	if len(c.Relations()) != 1 {
		t.Error("Relations() wrong")
	}
}

func TestIndexInsertLookupDelete(t *testing.T) {
	c, _, _ := newCatalog(t)
	r, _ := c.CreateRelation("items", itemsSchema())
	ix, err := c.CreateIndex("items_id", "items", "id")
	if err != nil {
		t.Fatal(err)
	}
	var rids []storage.RID
	for i := 0; i < 20; i++ {
		tup := value.Tuple{value.Int(int64(i % 5)), value.Str("n"), value.Float(1)}
		rid, err := r.Heap.Insert(tup)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Insert(tup, rid); err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	// id = 2 appears 4 times (i = 2, 7, 12, 17).
	n := 0
	err = ix.LookupEq(ix.KeyFor(value.Tuple{value.Int(2), value.Null(), value.Null()}), func(storage.RID) error {
		n++
		return nil
	})
	if err != nil || n != 4 {
		t.Errorf("LookupEq found %d (err %v)", n, err)
	}
	// Delete one and re-count.
	tup := value.Tuple{value.Int(2), value.Str("n"), value.Float(1)}
	if err := ix.Delete(tup, rids[2]); err != nil {
		t.Fatal(err)
	}
	n = 0
	ix.LookupEq(ix.KeyFor(tup), func(storage.RID) error {
		n++
		return nil
	})
	if n != 3 {
		t.Errorf("after delete: %d", n)
	}
}

func TestCreateIndexBackfills(t *testing.T) {
	c, _, _ := newCatalog(t)
	r, _ := c.CreateRelation("items", itemsSchema())
	for i := 0; i < 10; i++ {
		r.Heap.Insert(value.Tuple{value.Int(int64(i)), value.Str("x"), value.Float(0)})
	}
	ix, err := c.CreateIndex("late", "items", "id")
	if err != nil {
		t.Fatal(err)
	}
	n, err := ix.Tree.Count()
	if err != nil || n != 10 {
		t.Errorf("backfill count = %d (%v)", n, err)
	}
}

func TestCreateIndexErrors(t *testing.T) {
	c, _, _ := newCatalog(t)
	c.CreateRelation("items", itemsSchema())
	if _, err := c.CreateIndex("i1", "nope", "id"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing relation: %v", err)
	}
	if _, err := c.CreateIndex("i1", "items", "ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing column: %v", err)
	}
	if _, err := c.CreateIndex("i1", "items", "id"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("i1", "items", "price"); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate index: %v", err)
	}
}

func TestIndexOn(t *testing.T) {
	c, _, _ := newCatalog(t)
	r, _ := c.CreateRelation("items", itemsSchema())
	c.CreateIndex("by_id", "items", "id")
	c.CreateIndex("by_name_price", "items", "name", "price")
	if r.IndexOn(0) == nil {
		t.Error("single-column index not found")
	}
	if r.IndexOn(1, 2) == nil {
		t.Error("composite index not found")
	}
	if r.IndexOn(2) != nil {
		t.Error("phantom index found")
	}
}

func TestIndexLedBy(t *testing.T) {
	c, _, _ := newCatalog(t)
	r, _ := c.CreateRelation("items", itemsSchema())
	c.CreateIndex("by_name_price", "items", "name", "price")
	c.CreateIndex("by_id_name", "items", "id", "name")
	c.CreateIndex("by_id", "items", "id")
	if ix := r.IndexLedBy(1); ix == nil || ix.Name != "by_name_price" {
		t.Errorf("column led by a composite only: got %v", ix)
	}
	if ix := r.IndexLedBy(0); ix == nil || ix.Name != "by_id" {
		t.Errorf("narrowest index led by id: got %v, want by_id", ix)
	}
	if ix := r.IndexLedBy(2); ix != nil {
		t.Errorf("price only trails a composite: got %s", ix.Name)
	}
}

func TestCatalogPersistence(t *testing.T) {
	dir := t.TempDir()
	mgr, _ := storage.NewManager(dir)
	pool := buffer.NewPool(mgr, 64)
	c, err := Open(dir, pool, mgr)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := c.CreateRelation("items", itemsSchema())
	c.CreateIndex("by_id", "items", "id")
	tup := value.Tuple{value.Int(7), value.Str("seven"), value.Float(7.7)}
	rid, _ := r.Heap.Insert(tup)
	r.Indexes[0].Insert(tup, rid)
	pool.FlushAll()
	mgr.Close()

	mgr2, _ := storage.NewManager(dir)
	defer mgr2.Close()
	pool2 := buffer.NewPool(mgr2, 64)
	c2, err := Open(dir, pool2, mgr2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c2.GetRelation("items")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Schema.Arity() != 3 || len(r2.Indexes) != 1 {
		t.Fatalf("metadata lost: arity=%d indexes=%d", r2.Schema.Arity(), len(r2.Indexes))
	}
	if r2.Heap.Count() != 1 {
		t.Errorf("heap count after reopen = %d", r2.Heap.Count())
	}
	n := 0
	r2.Indexes[0].LookupEq(r2.Indexes[0].KeyFor(tup), func(storage.RID) error {
		n++
		return nil
	})
	if n != 1 {
		t.Errorf("index content lost: %d", n)
	}
}

func TestLookupRange(t *testing.T) {
	c, _, _ := newCatalog(t)
	r, _ := c.CreateRelation("items", itemsSchema())
	ix, _ := c.CreateIndex("by_id", "items", "id")
	for i := 0; i < 100; i++ {
		tup := value.Tuple{value.Int(int64(i)), value.Str(""), value.Float(0)}
		rid, _ := r.Heap.Insert(tup)
		ix.Insert(tup, rid)
	}
	lo := ix.KeyFor(value.Tuple{value.Int(10)})
	hi := ix.KeyFor(value.Tuple{value.Int(20)})
	n := 0
	ix.LookupRange(lo, hi, func(storage.RID) error {
		n++
		return nil
	})
	if n != 10 {
		t.Errorf("range [10,20) found %d", n)
	}
}
