package engine

import (
	"context"
	"sort"
	"testing"

	"pmv/internal/catalog"
	"pmv/internal/expr"
	"pmv/internal/storage"
	"pmv/internal/value"
)

func newEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := Open(t.TempDir(), Options{BufferPoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func simpleRel(t *testing.T, e *Engine) {
	t.Helper()
	_, err := e.CreateRelation("kv", catalog.NewSchema(
		catalog.Col("k", value.TypeInt), catalog.Col("v", value.TypeString)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateIndex("", "kv", "k"); err != nil {
		t.Fatal(err)
	}
}

func TestInsertMaintainsIndexes(t *testing.T) {
	e := newEngine(t)
	simpleRel(t, e)
	for i := 0; i < 100; i++ {
		if err := e.Insert("kv", value.Tuple{value.Int(int64(i % 10)), value.Str("x")}); err != nil {
			t.Fatal(err)
		}
	}
	r, _ := e.Catalog().GetRelation("kv")
	n, err := r.Indexes[0].Tree.Count()
	if err != nil || n != 100 {
		t.Errorf("index entries = %d (%v)", n, err)
	}
}

func TestInsertArityChecked(t *testing.T) {
	e := newEngine(t)
	simpleRel(t, e)
	if err := e.Insert("kv", value.Tuple{value.Int(1)}); err == nil {
		t.Error("short tuple accepted")
	}
	if err := e.Insert("ghost", value.Tuple{value.Int(1)}); err == nil {
		t.Error("insert into missing relation accepted")
	}
}

func TestDeleteWhereMaintainsIndexes(t *testing.T) {
	e := newEngine(t)
	simpleRel(t, e)
	for i := 0; i < 50; i++ {
		e.Insert("kv", value.Tuple{value.Int(int64(i)), value.Str("x")})
	}
	deleted, err := e.DeleteWhere("kv", func(tu value.Tuple) bool { return tu[0].Int64() < 20 })
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) != 20 {
		t.Errorf("deleted %d", len(deleted))
	}
	r, _ := e.Catalog().GetRelation("kv")
	if r.Heap.Count() != 30 {
		t.Errorf("heap count %d", r.Heap.Count())
	}
	n, _ := r.Indexes[0].Tree.Count()
	if n != 30 {
		t.Errorf("index count %d", n)
	}
}

func TestUpdateWhereMaintainsIndexes(t *testing.T) {
	e := newEngine(t)
	simpleRel(t, e)
	for i := 0; i < 10; i++ {
		e.Insert("kv", value.Tuple{value.Int(int64(i)), value.Str("old")})
	}
	n, err := e.UpdateWhere("kv",
		func(tu value.Tuple) bool { return tu[0].Int64() == 3 },
		func(tu value.Tuple) value.Tuple {
			out := tu.Clone()
			out[0] = value.Int(300)
			out[1] = value.Str("new")
			return out
		})
	if err != nil || n != 1 {
		t.Fatalf("updated %d (%v)", n, err)
	}
	// Index reflects the new key and not the old one.
	r, _ := e.Catalog().GetRelation("kv")
	ix := r.Indexes[0]
	count := func(k int64) int {
		c := 0
		ix.LookupEq(ix.KeyFor(value.Tuple{value.Int(k)}), func(storage.RID) error {
			c++
			return nil
		})
		return c
	}
	if count(3) != 0 || count(300) != 1 {
		t.Errorf("index keys: old=%d new=%d", count(3), count(300))
	}
}

// TestUpdateRewritesOnlyChangedIndexEntries: an index entry is key ++
// RID, so an update that keeps the row's RID and an index's columns has
// nothing to rewrite in that index. Three statements over a relation
// with three indexes: one that changes no indexed column dirties the
// heap page and nothing else; one that changes an indexed column and
// one that grows the row off its page (new RID) leave every index
// exact.
func TestUpdateRewritesOnlyChangedIndexEntries(t *testing.T) {
	e := newEngine(t)
	if _, err := e.CreateRelation("ord", catalog.NewSchema(
		catalog.Col("ok", value.TypeInt), catalog.Col("od", value.TypeInt),
		catalog.Col("price", value.TypeFloat), catalog.Col("pad", value.TypeString))); err != nil {
		t.Fatal(err)
	}
	const n = 400
	for i := 0; i < n; i++ {
		if err := e.Insert("ord", value.Tuple{
			value.Int(int64(i)), value.Int(int64(i % 20)), value.Float(1), value.Str("0123456789012345678901234567890123456789")}); err != nil {
			t.Fatal(err)
		}
	}
	for _, cols := range [][]string{{"ok"}, {"od"}, {"od", "ok"}} {
		if _, err := e.CreateIndex("", "ord", cols...); err != nil {
			t.Fatal(err)
		}
	}
	r, _ := e.Catalog().GetRelation("ord")
	// exact checks every index against the heap: same entry count, and
	// every row found under its own key at its own RID.
	exact := func(when string) {
		t.Helper()
		for _, ix := range r.Indexes {
			if c, err := ix.Tree.Count(); err != nil || int64(c) != r.Heap.Count() {
				t.Errorf("%s: index %s has %d entries, heap %d rows (%v)", when, ix.Name, c, r.Heap.Count(), err)
			}
		}
		err := r.Heap.Scan(func(rid storage.RID, tup value.Tuple) error {
			for _, ix := range r.Indexes {
				found := false
				ix.LookupEq(ix.KeyFor(tup), func(got storage.RID) error {
					found = found || got == rid
					return nil
				})
				if !found {
					t.Errorf("%s: index %s has no entry for row %v at %v", when, ix.Name, tup[:3], rid)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	lookups := func(ix *catalog.Index, vals ...int64) int {
		key := make(value.Tuple, r.Schema.Arity())
		for i, c := range ix.Cols {
			key[c] = value.Int(vals[i])
		}
		c := 0
		ix.LookupEq(ix.KeyFor(key), func(storage.RID) error { c++; return nil })
		return c
	}
	byOK := func(k int64) func(value.Tuple) bool {
		return func(tup value.Tuple) bool { return tup[0].Int64() == k }
	}

	// (1) No indexed column changes, the row stays put: after a flush
	// the statement must dirty exactly one page, the heap page.
	if err := e.Pool().FlushAll(); err != nil {
		t.Fatal(err)
	}
	_, w0 := e.IOStats()
	if got, err := e.UpdateWhere("ord", byOK(7), func(tup value.Tuple) value.Tuple {
		tup[2] = value.Float(99.5)
		return tup
	}); err != nil || got != 1 {
		t.Fatalf("price update: %d rows, %v", got, err)
	}
	if err := e.Pool().FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, w1 := e.IOStats(); w1-w0 != 1 {
		t.Errorf("price update wrote %d pages, want 1 (the heap page; no B+tree page)", w1-w0)
	}
	exact("after price update")

	// (2) An indexed column changes: od 8 → 19 for ok 8. The od and
	// (od, ok) entries move; the old keys are gone, the new ones there.
	if _, err := e.UpdateWhere("ord", byOK(8), func(tup value.Tuple) value.Tuple {
		tup[1] = value.Int(19)
		return tup
	}); err != nil {
		t.Fatal(err)
	}
	exact("after od update")
	if old, new := lookups(r.IndexOn(1, 0), 8, 8), lookups(r.IndexOn(1, 0), 19, 8); old != 0 || new != 1 {
		t.Errorf("(od, ok) index: old key %d entries, new key %d; want 0 and 1", old, new)
	}
	if old, new := lookups(r.IndexOn(1), 8), lookups(r.IndexOn(1), 19); old != n/20-1 || new != n/20+1 {
		t.Errorf("od index: od=8 %d entries, od=19 %d; want %d and %d", old, new, n/20-1, n/20+1)
	}

	// (3) No indexed column changes but the row outgrows its page: the
	// RID moves, so every index must follow it.
	var before, after storage.RID
	find := func(k int64) (rid storage.RID) {
		r.Heap.Scan(func(at storage.RID, tup value.Tuple) error {
			if tup[0].Int64() == k {
				rid = at
			}
			return nil
		})
		return rid
	}
	before = find(9)
	big := make([]byte, 6000)
	for i := range big {
		big[i] = 'z'
	}
	if _, err := e.UpdateWhere("ord", byOK(9), func(tup value.Tuple) value.Tuple {
		tup[3] = value.Str(string(big))
		return tup
	}); err != nil {
		t.Fatal(err)
	}
	if after = find(9); after == before {
		t.Fatalf("row did not move (still at %v); fixture broken", after)
	}
	exact("after RID move")
	r.IndexOn(0).LookupEq(r.IndexOn(0).KeyFor(value.Tuple{value.Int(9)}), func(got storage.RID) error {
		if got != after {
			t.Errorf("ok index points at %v, row is at %v", got, after)
		}
		return nil
	})
}

type recordingObserver struct {
	inserts, deletes, updates int
}

func (o *recordingObserver) OnInsert(string, value.Tuple) error { o.inserts++; return nil }
func (o *recordingObserver) OnDelete(string, value.Tuple) error { o.deletes++; return nil }
func (o *recordingObserver) OnUpdate(string, value.Tuple, value.Tuple) error {
	o.updates++
	return nil
}

func TestObserverNotifications(t *testing.T) {
	e := newEngine(t)
	simpleRel(t, e)
	obs := &recordingObserver{}
	e.RegisterObserver(obs)
	for i := 0; i < 5; i++ {
		e.Insert("kv", value.Tuple{value.Int(int64(i)), value.Str("x")})
	}
	e.UpdateWhere("kv",
		func(tu value.Tuple) bool { return tu[0].Int64() == 1 },
		func(tu value.Tuple) value.Tuple { return tu })
	e.DeleteWhere("kv", func(tu value.Tuple) bool { return tu[0].Int64() < 2 })
	if obs.inserts != 5 || obs.updates != 1 || obs.deletes != 2 {
		t.Errorf("observer saw i=%d u=%d d=%d", obs.inserts, obs.updates, obs.deletes)
	}
	e.UnregisterObserver(obs)
	e.Insert("kv", value.Tuple{value.Int(99), value.Str("x")})
	if obs.inserts != 5 {
		t.Error("unregistered observer still notified")
	}
}

type barrierObserver struct {
	recordingObserver
	held     bool
	acquired int
	// fetchesAtBarrier, when set, reads the pool's fetch count as the
	// barrier is taken; the reading lands in fetched.
	fetchesAtBarrier func() int64
	fetched          int64
}

func (o *barrierObserver) BeforeChange(string) (func(), error) {
	o.acquired++
	o.held = true
	if o.fetchesAtBarrier != nil {
		o.fetched = o.fetchesAtBarrier()
	}
	return func() { o.held = false }, nil
}

// TestChangeBarrierPrecedesScan pins the ordering that closes the
// lost-update window: delete/update statements must take the change
// barrier BEFORE scanning for victims — scanning first would let a
// concurrent statement commit in between, and observers would then be
// notified with stale pre-images.
func TestChangeBarrierPrecedesScan(t *testing.T) {
	e := newEngine(t)
	simpleRel(t, e)
	for i := 0; i < 5; i++ {
		e.Insert("kv", value.Tuple{value.Int(int64(i)), value.Str("x")})
	}
	obs := &barrierObserver{}
	e.RegisterObserver(obs)

	heldDuringScan := true
	pred := func(tu value.Tuple) bool {
		if !obs.held {
			heldDuringScan = false
		}
		return tu[0].Int64() == 3
	}
	if _, err := e.UpdateWhere("kv", pred, func(tu value.Tuple) value.Tuple { return tu }); err != nil {
		t.Fatal(err)
	}
	if !heldDuringScan {
		t.Error("update scanned the heap before acquiring the change barrier")
	}
	if _, err := e.DeleteWhere("kv", pred); err != nil {
		t.Fatal(err)
	}
	if !heldDuringScan {
		t.Error("delete scanned the heap before acquiring the change barrier")
	}

	// A located statement has no predicate to watch, but it reads pages:
	// none may be read before the barrier is held.
	obs.fetchesAtBarrier = func() int64 { h, m := e.Pool().Stats(); return h + m }
	before := obs.fetchesAtBarrier()
	if _, err := e.DeleteEqCtx(context.Background(), "kv", "k", NewEqSet(value.Int(4))); err != nil {
		t.Fatal(err)
	}
	if obs.fetched != before {
		t.Errorf("located delete fetched %d pages before acquiring the change barrier", obs.fetched-before)
	}

	// Zero-victim statements still take — and release — the barrier:
	// the barrier cannot be gated on the scan result without reopening
	// the window.
	acquired := obs.acquired
	if _, err := e.DeleteWhere("kv", func(value.Tuple) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if got := obs.acquired - acquired; got != 1 {
		t.Errorf("zero-victim delete acquired the barrier %d times, want 1", got)
	}
	if obs.held {
		t.Error("barrier still held after statement completed")
	}
}

func TestInsertBulkNotifyFlag(t *testing.T) {
	e := newEngine(t)
	simpleRel(t, e)
	obs := &recordingObserver{}
	e.RegisterObserver(obs)
	rows := []value.Tuple{
		{value.Int(1), value.Str("a")},
		{value.Int(2), value.Str("b")},
	}
	if err := e.InsertBulk("kv", rows, false); err != nil {
		t.Fatal(err)
	}
	if obs.inserts != 0 {
		t.Error("silent bulk load notified observers")
	}
	if err := e.InsertBulk("kv", rows[:1], true); err != nil {
		t.Fatal(err)
	}
	if obs.inserts != 1 {
		t.Error("notifying bulk load did not notify")
	}
}

func TestExecuteProject(t *testing.T) {
	e := newEngine(t)
	_, err := e.CreateRelation("a", catalog.NewSchema(
		catalog.Col("x", value.TypeInt), catalog.Col("y", value.TypeInt)))
	if err != nil {
		t.Fatal(err)
	}
	e.CreateIndex("", "a", "x")
	for i := 0; i < 10; i++ {
		e.Insert("a", value.Tuple{value.Int(int64(i % 3)), value.Int(int64(i))})
	}
	tpl := &expr.Template{
		Name:      "single",
		Relations: []string{"a"},
		Select:    []expr.ColumnRef{{Rel: "a", Col: "y"}},
		Conds: []expr.CondTemplate{
			{Col: expr.ColumnRef{Rel: "a", Col: "x"}, Form: expr.EqualityForm},
		},
	}
	q := &expr.Query{Template: tpl, Conds: []expr.CondInstance{
		{Values: []value.Value{value.Int(1)}},
	}}
	var ys []int64
	err = e.ExecuteProject(q, tpl.Select, func(tu value.Tuple) error {
		ys = append(ys, tu[0].Int64())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(ys, func(i, j int) bool { return ys[i] < ys[j] })
	want := []int64{1, 4, 7}
	if len(ys) != 3 || ys[0] != want[0] || ys[1] != want[1] || ys[2] != want[2] {
		t.Errorf("ys = %v", ys)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.CreateRelation("kv", catalog.NewSchema(
		catalog.Col("k", value.TypeInt), catalog.Col("v", value.TypeString)))
	e.CreateIndex("", "kv", "k")
	for i := 0; i < 20; i++ {
		e.Insert("kv", value.Tuple{value.Int(int64(i)), value.Str("persist")})
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	r, err := e2.Catalog().GetRelation("kv")
	if err != nil {
		t.Fatal(err)
	}
	if r.Heap.Count() != 20 {
		t.Errorf("recovered %d tuples", r.Heap.Count())
	}
	n, _ := r.Indexes[0].Tree.Count()
	if n != 20 {
		t.Errorf("recovered %d index entries", n)
	}
}

func TestIOStatsAdvance(t *testing.T) {
	e := newEngine(t)
	simpleRel(t, e)
	for i := 0; i < 1000; i++ {
		e.Insert("kv", value.Tuple{value.Int(int64(i)), value.Str("padding-padding-padding")})
	}
	_, w := e.IOStats()
	if w == 0 {
		t.Error("no writes counted")
	}
}
