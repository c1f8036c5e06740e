package engine

import (
	"sort"
	"testing"

	"pmv/internal/catalog"
	"pmv/internal/catalog/catalogtest"
	"pmv/internal/storage"
	"pmv/internal/value"
)

// walEngine opens a WAL-enabled engine in dir.
func walEngine(t *testing.T, dir string, pool int) *Engine {
	t.Helper()
	e, err := Open(dir, Options{BufferPoolPages: pool, EnableWAL: true, SyncEveryOp: true})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// snapshot reads rel into sorted strings.
func snapshot(t *testing.T, e *Engine, rel string) []string {
	t.Helper()
	r, err := e.Catalog().GetRelation(rel)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	r.Heap.Scan(func(_ storage.RID, tu value.Tuple) error {
		out = append(out, tu.String())
		return nil
	})
	sort.Strings(out)
	return out
}

func TestCleanShutdownNeedsNoRecovery(t *testing.T) {
	dir := t.TempDir()
	e := walEngine(t, dir, 64)
	e.CreateRelation("kv", catalog.NewSchema(catalog.Col("k", value.TypeInt)))
	for i := 0; i < 50; i++ {
		e.Insert("kv", value.Tuple{value.Int(int64(i))})
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := walEngine(t, dir, 64)
	defer e2.Close()
	if e2.Recovered() != 0 {
		t.Errorf("clean shutdown replayed %d records", e2.Recovered())
	}
	if got := snapshot(t, e2, "kv"); len(got) != 50 {
		t.Errorf("%d rows after clean reopen", len(got))
	}
}

func TestCrashRecoveryReplaysInserts(t *testing.T) {
	dir := t.TempDir()
	e := walEngine(t, dir, 64)
	e.CreateRelation("kv", catalog.NewSchema(
		catalog.Col("k", value.TypeInt), catalog.Col("v", value.TypeString)))
	e.CreateIndex("", "kv", "k")
	for i := 0; i < 200; i++ {
		if err := e.Insert("kv", value.Tuple{value.Int(int64(i)), value.Str("payload")}); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: abandon the engine without Close — dirty pages die with it.

	e2 := walEngine(t, dir, 64)
	defer e2.Close()
	if e2.Recovered() == 0 {
		t.Error("no records replayed after crash")
	}
	got := snapshot(t, e2, "kv")
	if len(got) != 200 {
		t.Fatalf("%d rows after recovery, want 200", len(got))
	}
	// Indexes were rebuilt.
	r, _ := e2.Catalog().GetRelation("kv")
	n, err := r.Indexes[0].Tree.Count()
	if err != nil || n != 200 {
		t.Errorf("rebuilt index has %d entries (%v)", n, err)
	}
	if err := catalogtest.IndexesMatchHeap(e2.Catalog()); err != nil {
		t.Error(err)
	}
}

func TestCrashRecoveryMixedOps(t *testing.T) {
	dir := t.TempDir()
	e := walEngine(t, dir, 64)
	e.CreateRelation("kv", catalog.NewSchema(
		catalog.Col("k", value.TypeInt), catalog.Col("v", value.TypeString)))
	for _, cols := range [][]string{{"k"}, {"v", "k"}} {
		if _, err := e.CreateIndex("", "kv", cols...); err != nil {
			t.Fatal(err)
		}
	}
	shadow := map[int64]string{}
	for i := int64(0); i < 100; i++ {
		e.Insert("kv", value.Tuple{value.Int(i), value.Str("a")})
		shadow[i] = "a"
	}
	e.DeleteWhere("kv", func(tu value.Tuple) bool { return tu[0].Int64()%3 == 0 })
	for k := range shadow {
		if k%3 == 0 {
			delete(shadow, k)
		}
	}
	e.UpdateWhere("kv",
		func(tu value.Tuple) bool { return tu[0].Int64()%5 == 0 },
		func(tu value.Tuple) value.Tuple {
			out := tu.Clone()
			out[1] = value.Str("updated-with-a-much-longer-payload-to-force-moves")
			return out
		})
	for k := range shadow {
		if k%5 == 0 {
			shadow[k] = "updated-with-a-much-longer-payload-to-force-moves"
		}
	}
	// Crash.

	e2 := walEngine(t, dir, 64)
	defer e2.Close()
	r, _ := e2.Catalog().GetRelation("kv")
	got := map[int64]string{}
	r.Heap.Scan(func(_ storage.RID, tu value.Tuple) error {
		got[tu[0].Int64()] = tu[1].Str()
		return nil
	})
	if len(got) != len(shadow) {
		t.Fatalf("recovered %d rows, want %d", len(got), len(shadow))
	}
	for k, v := range shadow {
		if got[k] != v {
			t.Errorf("key %d: %q, want %q", k, got[k], v)
		}
	}
	if err := catalogtest.IndexesMatchHeap(e2.Catalog()); err != nil {
		t.Error(err)
	}
}

func TestRecoveryIdempotentAfterPartialFlush(t *testing.T) {
	dir := t.TempDir()
	// A tiny pool forces dirty-page write-backs mid-run, so some logged
	// operations are already on disk at crash time — the page-LSN guard
	// must skip exactly those during replay.
	e := walEngine(t, dir, 8)
	e.CreateRelation("kv", catalog.NewSchema(
		catalog.Col("k", value.TypeInt), catalog.Col("pad", value.TypeString)))
	pad := make([]byte, 300)
	for i := range pad {
		pad[i] = 'x'
	}
	const n = 500
	for i := 0; i < n; i++ {
		if err := e.Insert("kv", value.Tuple{value.Int(int64(i)), value.Str(string(pad))}); err != nil {
			t.Fatal(err)
		}
	}
	e.DeleteWhere("kv", func(tu value.Tuple) bool { return tu[0].Int64() < 100 })
	// Crash.

	e2 := walEngine(t, dir, 64)
	defer e2.Close()
	got := snapshot(t, e2, "kv")
	if len(got) != n-100 {
		t.Fatalf("recovered %d rows, want %d", len(got), n-100)
	}
	// No duplicates: distinct keys only.
	r, _ := e2.Catalog().GetRelation("kv")
	seen := map[int64]bool{}
	r.Heap.Scan(func(_ storage.RID, tu value.Tuple) error {
		k := tu[0].Int64()
		if seen[k] {
			t.Errorf("duplicate key %d after replay", k)
		}
		seen[k] = true
		return nil
	})
}

func TestRecoveryAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	e := walEngine(t, dir, 64)
	e.CreateRelation("kv", catalog.NewSchema(catalog.Col("k", value.TypeInt)))
	for i := 0; i < 50; i++ {
		e.Insert("kv", value.Tuple{value.Int(int64(i))})
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 50; i < 80; i++ {
		e.Insert("kv", value.Tuple{value.Int(int64(i))})
	}
	// Crash: only the last 30 inserts are log-only.

	e2 := walEngine(t, dir, 64)
	defer e2.Close()
	if e2.Recovered() == 0 || e2.Recovered() > 30 {
		t.Errorf("replayed %d records, want 1..30", e2.Recovered())
	}
	if got := snapshot(t, e2, "kv"); len(got) != 80 {
		t.Errorf("%d rows, want 80", len(got))
	}
}

func TestRecoveryTwiceInARow(t *testing.T) {
	dir := t.TempDir()
	e := walEngine(t, dir, 64)
	e.CreateRelation("kv", catalog.NewSchema(catalog.Col("k", value.TypeInt)))
	for i := 0; i < 40; i++ {
		e.Insert("kv", value.Tuple{value.Int(int64(i))})
	}
	// Crash once.
	e2 := walEngine(t, dir, 64)
	if got := snapshot(t, e2, "kv"); len(got) != 40 {
		t.Fatalf("first recovery: %d rows", len(got))
	}
	for i := 40; i < 60; i++ {
		e2.Insert("kv", value.Tuple{value.Int(int64(i))})
	}
	// Crash again without Close.
	e3 := walEngine(t, dir, 64)
	defer e3.Close()
	if got := snapshot(t, e3, "kv"); len(got) != 60 {
		t.Errorf("second recovery: %d rows, want 60", len(got))
	}
}

func TestWALDisabledStillWorks(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, Options{BufferPoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	e.CreateRelation("kv", catalog.NewSchema(catalog.Col("k", value.TypeInt)))
	e.Insert("kv", value.Tuple{value.Int(1)})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(dir, Options{BufferPoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := snapshot(t, e2, "kv"); len(got) != 1 {
		t.Errorf("%d rows", len(got))
	}
}
