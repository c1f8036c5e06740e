package catalog_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pmv/internal/btree"
	"pmv/internal/buffer"
	"pmv/internal/catalog"
	"pmv/internal/catalog/catalogtest"
	"pmv/internal/storage"
	"pmv/internal/value"
)

// fixture is a catalog over relation r(k Int, s String) in dir.
type fixture struct {
	dir string
	cat *catalog.Catalog
	r   *catalog.Relation
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{dir: t.TempDir()}
	mgr, err := storage.NewManager(f.dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	if f.cat, err = catalog.Open(f.dir, buffer.NewPool(mgr, 32), mgr); err != nil {
		t.Fatal(err)
	}
	if f.r, err = f.cat.CreateRelation("r", catalog.NewSchema(
		catalog.Col("k", value.TypeInt), catalog.Col("s", value.TypeString))); err != nil {
		t.Fatal(err)
	}
	return f
}

// rows inserts n rows (i % 7, s(i)) into r's heap and returns their RIDs.
func (f *fixture) rows(t *testing.T, n int, s func(i int) string) []storage.RID {
	t.Helper()
	rids := make([]storage.RID, n)
	for i := range rids {
		rid, err := f.r.Heap.Insert(value.Tuple{value.Int(int64(i % 7)), value.Str(s(i))})
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	return rids
}

func (f *fixture) indexFileExists(t *testing.T, name string) bool {
	t.Helper()
	_, err := os.Stat(filepath.Join(f.dir, "idx."+name+".pg"))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	return err == nil
}

// TestBuiltIndexesMatchHeap: CreateIndex over a heap with duplicate
// keys, long and empty strings, and holes left by deletes, then
// RebuildIndexes after more rows arrive through Index.Insert, leave
// every index equal to its heap.
func TestBuiltIndexesMatchHeap(t *testing.T) {
	f := newFixture(t)
	rids := f.rows(t, 3000, func(i int) string { return strings.Repeat("x", i%300) })
	for i := 0; i < len(rids); i += 5 {
		if err := f.r.Heap.Delete(rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, cols := range [][]string{{"k"}, {"s"}, {"k", "s"}, {"s", "k"}} {
		if _, err := f.cat.CreateIndex("r_"+strings.Join(cols, "_"), "r", cols...); err != nil {
			t.Fatal(err)
		}
		if err := catalogtest.IndexesMatchHeap(f.cat); err != nil {
			t.Fatalf("after CreateIndex %v: %v", cols, err)
		}
	}
	for i := 0; i < 500; i++ {
		tu := value.Tuple{value.Int(int64(i)), value.Str("late")}
		rid, err := f.r.Heap.Insert(tu)
		if err != nil {
			t.Fatal(err)
		}
		for _, ix := range f.r.Indexes {
			if err := ix.Insert(tu, rid); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := catalogtest.IndexesMatchHeap(f.cat); err != nil {
		t.Fatalf("after inserts: %v", err)
	}
	if err := f.cat.RebuildIndexes(); err != nil {
		t.Fatal(err)
	}
	if err := catalogtest.IndexesMatchHeap(f.cat); err != nil {
		t.Fatalf("after RebuildIndexes: %v", err)
	}
}

// TestFailedIndexBuildCanBeRetried: a backfill that fails on a key too
// large for the tree leaves neither an index nor its file, and once the
// offending row is gone the same CreateIndex succeeds. (The partial
// file used to be reopened as it was left, and every retry failed with
// "key exists".)
func TestFailedIndexBuildCanBeRetried(t *testing.T) {
	f := newFixture(t)
	rids := f.rows(t, 100, func(i int) string {
		if i == 50 {
			return strings.Repeat("s", 2000)
		}
		return "short"
	})
	_, err := f.cat.CreateIndex("r_s", "r", "s")
	if !errors.Is(err, btree.ErrKeyTooLarge) || !strings.Contains(err.Error(), "r_s") {
		t.Fatalf("CreateIndex over a 2,000-byte key: %v", err)
	}
	if len(f.r.Indexes) != 0 || f.indexFileExists(t, "r_s") {
		t.Fatalf("failed build left %d indexes, file present %v", len(f.r.Indexes), f.indexFileExists(t, "r_s"))
	}
	if err := f.r.Heap.Delete(rids[50]); err != nil {
		t.Fatal(err)
	}
	if _, err := f.cat.CreateIndex("r_s", "r", "s"); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if err := catalogtest.IndexesMatchHeap(f.cat); err != nil {
		t.Fatal(err)
	}
}

// TestCreateIndexReplacesLeftoverFile: a file under the index's name
// that catalog.json does not list — a build a crash cut short before
// the catalog was saved — is not reopened: the index is built fresh.
func TestCreateIndexReplacesLeftoverFile(t *testing.T) {
	f := newFixture(t)
	f.rows(t, 200, func(i int) string { return "v" })
	mgr, err := storage.NewManager(f.dir)
	if err != nil {
		t.Fatal(err)
	}
	pool := buffer.NewPool(mgr, 8)
	stale, err := btree.Open(pool, mgr, "idx.r_k")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"stale", "entries"} {
		if err := stale.Insert([]byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	mgr.Close()

	if _, err := f.cat.CreateIndex("r_k", "r", "k"); err != nil {
		t.Fatal(err)
	}
	if err := catalogtest.IndexesMatchHeap(f.cat); err != nil {
		t.Fatal(err)
	}
}

// TestIndexNameTakenAcrossRelations: index files are named after the
// index alone, so a second relation cannot take a name in use.
func TestIndexNameTakenAcrossRelations(t *testing.T) {
	f := newFixture(t)
	f.rows(t, 10, func(i int) string { return "v" })
	if _, err := f.cat.CreateIndex("by_k", "r", "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.cat.CreateRelation("q", catalog.NewSchema(catalog.Col("k", value.TypeInt))); err != nil {
		t.Fatal(err)
	}
	if _, err := f.cat.CreateIndex("by_k", "q", "k"); !errors.Is(err, catalog.ErrExists) {
		t.Fatalf("second by_k on another relation: %v", err)
	}
	if err := catalogtest.IndexesMatchHeap(f.cat); err != nil {
		t.Fatal(err)
	}
}
