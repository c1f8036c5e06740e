package maint_test

import (
	"context"
	"testing"
	"time"

	"pmv"
	"pmv/internal/maint"
	"pmv/internal/value"
	"pmv/internal/wire"
)

func openDB(t *testing.T) *pmv.DB {
	t.Helper()
	db, err := pmv.Open(t.TempDir(), pmv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// storefront is the quickstart-style fixture: product ⋈ sale with
// equality conditions on category and store.
func storefront(t *testing.T, db *pmv.DB) *pmv.Template {
	t.Helper()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check(db.CreateRelation("product",
		pmv.Col("pid", pmv.TypeInt),
		pmv.Col("category", pmv.TypeInt),
		pmv.Col("name", pmv.TypeString)))
	check(db.CreateRelation("sale",
		pmv.Col("pid", pmv.TypeInt),
		pmv.Col("store", pmv.TypeInt),
		pmv.Col("discount", pmv.TypeInt)))
	check(db.CreateIndex("product", "pid"))
	check(db.CreateIndex("sale", "pid"))
	for pid := int64(0); pid < 400; pid++ {
		check(db.Insert("product", pmv.Int(pid), pmv.Int(pid%8), pmv.Str("p")))
		check(db.Insert("sale", pmv.Int(pid), pmv.Int((pid/8)%5), pmv.Int(pid%50)))
	}
	return pmv.NewTemplate("on_sale").
		From("product", "sale").
		Select("product.pid", "sale.discount").
		Join("product.pid", "sale.pid").
		WhereEq("product.category").
		WhereEq("sale.store").
		MustBuild()
}

// runQuery executes the (category ∈ {1,2}, store = 3) query and
// returns the delivered pid set.
func runQuery(t *testing.T, view *pmv.View, tpl *pmv.Template) map[int64]bool {
	t.Helper()
	q := pmv.NewQuery(tpl).In(0, pmv.Int(1), pmv.Int(2)).In(1, pmv.Int(3)).Query()
	pids := make(map[int64]bool)
	_, err := view.ExecutePartial(q, func(r pmv.Result) error {
		pids[r.Tuple[0].Int64()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pids
}

func newPlane(t *testing.T, db *pmv.DB, cfg maint.Config) *maint.Plane {
	t.Helper()
	cfg.Source = db
	p, err := maint.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// TestBatchedDeletePurges pins the light-key path end to end: a
// batched delete's affected bcp key is computed, classified light,
// purged under the short X grab, and the next query is correct with a
// clean DS audit.
func TestBatchedDeletePurges(t *testing.T) {
	db := openDB(t)
	tpl := storefront(t, db)
	view, err := db.CreatePartialView(tpl, pmv.ViewOptions{MaxEntries: 50, TuplesPerBCP: 3})
	if err != nil {
		t.Fatal(err)
	}
	before := runQuery(t, view, tpl) // warm the cache
	if !before[25] {
		t.Fatal("fixture broken: pid 25 not in query result")
	}

	p := newPlane(t, db, maint.Config{MaxDelay: time.Millisecond})
	res, err := p.Apply(context.Background(), []wire.UpdateOp{
		{Kind: wire.OpDelete, Rel: "sale", Col: "pid", Val: value.Int(25)},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 || res.Rows != 1 {
		t.Fatalf("applied=%d rows=%d, want 1/1", res.Applied, res.Rows)
	}
	if len(res.Keys[view.Name()]) == 0 {
		t.Fatalf("no affected keys reported: %+v", res.Keys)
	}
	if res.Wide[view.Name()] {
		t.Fatal("single-victim delete reported wide damage")
	}

	after := runQuery(t, view, tpl)
	if after[25] {
		t.Fatal("deleted pid 25 still served")
	}
	if len(after) != len(before)-1 {
		t.Fatalf("result shrank by %d rows, want 1", len(before)-len(after))
	}
	st := p.Stats()
	if st.KeysAffected == 0 || st.LightKeys == 0 {
		t.Fatalf("classification did not run: %+v", st)
	}
	vs := view.Stats()
	if vs.EntriesPurged == 0 && vs.TuplesPurged == 0 {
		t.Fatalf("nothing purged: %+v", vs)
	}
	if err := view.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHeavyKeysInvalidateLazily forces every key heavy and pins the
// generation-bump path: no purge, the stale entry is discarded on its
// next probe, and results stay correct.
func TestHeavyKeysInvalidateLazily(t *testing.T) {
	db := openDB(t)
	tpl := storefront(t, db)
	view, err := db.CreatePartialView(tpl, pmv.ViewOptions{MaxEntries: 50, TuplesPerBCP: 3})
	if err != nil {
		t.Fatal(err)
	}
	before := runQuery(t, view, tpl)

	p := newPlane(t, db, maint.Config{MaxDelay: time.Millisecond, HeavyThreshold: 1})
	if _, err := p.Apply(context.Background(), []wire.UpdateOp{
		{Kind: wire.OpDelete, Rel: "sale", Col: "pid", Val: value.Int(25)},
	}, true); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.HeavyKeys == 0 || st.LightKeys != 0 {
		t.Fatalf("heavy=%d light=%d, want all heavy", st.HeavyKeys, st.LightKeys)
	}
	if st.EntriesPurged != 0 {
		t.Fatalf("heavy path purged %d entries", st.EntriesPurged)
	}

	after := runQuery(t, view, tpl)
	if after[25] {
		t.Fatal("deleted pid 25 still served after generation bump")
	}
	if len(after) != len(before)-1 {
		t.Fatalf("result shrank by %d rows, want 1", len(before)-len(after))
	}
	vs := view.Stats()
	if vs.KeyGenBumps == 0 {
		t.Fatalf("no generation bumps recorded: %+v", vs)
	}
	if vs.EntriesInvalidated == 0 {
		t.Fatalf("stale entry not lazily discarded: %+v", vs)
	}
	if err := view.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFlushTriggers pins the batcher's two flush reasons.
func TestFlushTriggers(t *testing.T) {
	db := openDB(t)
	tpl := storefront(t, db)
	if _, err := db.CreatePartialView(tpl, pmv.ViewOptions{MaxEntries: 50, TuplesPerBCP: 3}); err != nil {
		t.Fatal(err)
	}
	p := newPlane(t, db, maint.Config{BatchSize: 2, MaxDelay: 50 * time.Millisecond})

	// A single request carrying BatchSize ops flushes on size.
	if _, err := p.Apply(context.Background(), []wire.UpdateOp{
		{Kind: wire.OpInsert, Rel: "product", Tuple: value.Tuple{value.Int(1000), value.Int(1), value.Str("a")}},
		{Kind: wire.OpInsert, Rel: "product", Tuple: value.Tuple{value.Int(1001), value.Int(1), value.Str("b")}},
	}, false); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.SizeFlushes == 0 {
		t.Fatalf("no size flush recorded: %+v", st)
	}
	// A lone small request flushes on age.
	if _, err := p.Apply(context.Background(), []wire.UpdateOp{
		{Kind: wire.OpInsert, Rel: "product", Tuple: value.Tuple{value.Int(1002), value.Int(1), value.Str("c")}},
	}, false); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.AgeFlushes == 0 {
		t.Fatalf("no age flush recorded: %+v", st)
	}
	if st := p.Stats(); st.OpsApplied != 3 {
		t.Fatalf("ops applied = %d, want 3", st.OpsApplied)
	}
}

// TestUpdatesSkippedParity pins the accounting satellite: an update
// touching only an irrelevant column (product.name is outside Ls′ and
// Cjoin) bumps UpdatesSkipped on both the batched and the
// per-statement path, and purges nothing either way.
func TestUpdatesSkippedParity(t *testing.T) {
	db := openDB(t)
	tpl := storefront(t, db)
	view, err := db.CreatePartialView(tpl, pmv.ViewOptions{MaxEntries: 50, TuplesPerBCP: 3})
	if err != nil {
		t.Fatal(err)
	}
	runQuery(t, view, tpl)

	// Batched path.
	p := newPlane(t, db, maint.Config{MaxDelay: time.Millisecond})
	if _, err := p.Apply(context.Background(), []wire.UpdateOp{
		{Kind: wire.OpUpdate, Rel: "product", Col: "pid", Val: value.Int(25), SetCol: "name", SetVal: value.Str("renamed")},
	}, true); err != nil {
		t.Fatal(err)
	}
	vs := view.Stats()
	if vs.UpdatesSeen != 1 || vs.UpdatesSkipped != 1 {
		t.Fatalf("batched: seen=%d skipped=%d, want 1/1", vs.UpdatesSeen, vs.UpdatesSkipped)
	}
	if vs.TuplesPurged != 0 || vs.KeyGenBumps != 0 {
		t.Fatalf("irrelevant update caused maintenance: %+v", vs)
	}
	p.Close()

	// Per-statement path (plane closed → views re-attached).
	if _, err := db.Update("product",
		func(tu pmv.Tuple) bool { return tu[0] == pmv.Int(26) },
		func(tu pmv.Tuple) pmv.Tuple { tu[2] = pmv.Str("renamed"); return tu }); err != nil {
		t.Fatal(err)
	}
	vs = view.Stats()
	if vs.UpdatesSeen != 2 || vs.UpdatesSkipped != 2 {
		t.Fatalf("per-statement: seen=%d skipped=%d, want 2/2", vs.UpdatesSeen, vs.UpdatesSkipped)
	}

	// A relevant update (discount is in Ls′) purges on both paths.
	p = newPlane(t, db, maint.Config{MaxDelay: time.Millisecond})
	if _, err := p.Apply(context.Background(), []wire.UpdateOp{
		{Kind: wire.OpUpdate, Rel: "sale", Col: "pid", Val: value.Int(25), SetCol: "discount", SetVal: value.Int(49)},
	}, true); err != nil {
		t.Fatal(err)
	}
	vs = view.Stats()
	if vs.UpdatesSkipped != 2 {
		t.Fatalf("relevant update skipped: %+v", vs)
	}
	if vs.TuplesPurged == 0 && vs.KeyGenBumps == 0 && vs.EntriesPurged == 0 {
		t.Fatalf("relevant update caused no maintenance: %+v", vs)
	}
	after := runQuery(t, view, tpl)
	if !after[25] {
		t.Fatal("updated tuple vanished from results")
	}
}

// TestOutOfBandWritesDegradeWide: DML bypassing an attached plane must
// wholesale-invalidate rather than leave stale entries.
func TestOutOfBandWritesDegradeWide(t *testing.T) {
	db := openDB(t)
	tpl := storefront(t, db)
	view, err := db.CreatePartialView(tpl, pmv.ViewOptions{MaxEntries: 50, TuplesPerBCP: 3})
	if err != nil {
		t.Fatal(err)
	}
	before := runQuery(t, view, tpl)
	newPlane(t, db, maint.Config{MaxDelay: time.Millisecond})

	if _, err := db.Delete("sale", func(tu pmv.Tuple) bool { return tu[0] == pmv.Int(25) }); err != nil {
		t.Fatal(err)
	}
	if vs := view.Stats(); vs.ViewGenBumps == 0 {
		t.Fatalf("out-of-band delete did not bump the view generation: %+v", vs)
	}
	after := runQuery(t, view, tpl)
	if after[25] {
		t.Fatal("out-of-band delete left a stale served tuple")
	}
	if len(after) != len(before)-1 {
		t.Fatalf("result shrank by %d rows, want 1", len(before)-len(after))
	}
}

// TestCloseReattachesPerStatement: after Close, the classic observer
// path must be live again.
func TestCloseReattachesPerStatement(t *testing.T) {
	db := openDB(t)
	tpl := storefront(t, db)
	view, err := db.CreatePartialView(tpl, pmv.ViewOptions{MaxEntries: 50, TuplesPerBCP: 3})
	if err != nil {
		t.Fatal(err)
	}
	runQuery(t, view, tpl)
	p := newPlane(t, db, maint.Config{MaxDelay: time.Millisecond})
	p.Close()
	if _, err := p.Apply(context.Background(), nil, false); err == nil {
		t.Fatal("Apply after Close succeeded")
	}

	if _, err := db.Delete("sale", func(tu pmv.Tuple) bool { return tu[0] == pmv.Int(25) }); err != nil {
		t.Fatal(err)
	}
	vs := view.Stats()
	if vs.DeletesSeen == 0 {
		t.Fatalf("per-statement observer not re-attached: %+v", vs)
	}
	if vs.ViewGenBumps != 0 {
		t.Fatalf("post-Close delete treated as out-of-band: %+v", vs)
	}
	after := runQuery(t, view, tpl)
	if after[25] {
		t.Fatal("per-statement purge missed the deleted tuple")
	}
}

// TestCoalescedRunEquivalence pins the coalescing optimisation:
// consecutive point ops on the same relation+column apply as one
// engine statement, with batch order preserved inside the run and
// per-request row attribution identical to sequential application.
func TestCoalescedRunEquivalence(t *testing.T) {
	db := openDB(t)
	tpl := storefront(t, db)
	view, err := db.CreatePartialView(tpl, pmv.ViewOptions{MaxEntries: 50, TuplesPerBCP: 3})
	if err != nil {
		t.Fatal(err)
	}
	before := runQuery(t, view, tpl)

	p := newPlane(t, db, maint.Config{MaxDelay: time.Millisecond})
	// One request, one batch: an update run of 3 (pid 25 twice — the
	// later op must win) and a delete run of 2. pids 25/26/65/66 all
	// fall inside the warmed (category ∈ {1,2}, store 3) window.
	res, err := p.Apply(context.Background(), []wire.UpdateOp{
		{Kind: wire.OpUpdate, Rel: "sale", Col: "pid", Val: value.Int(25), SetCol: "discount", SetVal: value.Int(7)},
		{Kind: wire.OpUpdate, Rel: "sale", Col: "pid", Val: value.Int(26), SetCol: "discount", SetVal: value.Int(9)},
		{Kind: wire.OpUpdate, Rel: "sale", Col: "pid", Val: value.Int(25), SetCol: "discount", SetVal: value.Int(11)},
		{Kind: wire.OpDelete, Rel: "sale", Col: "pid", Val: value.Int(65)},
		{Kind: wire.OpDelete, Rel: "sale", Col: "pid", Val: value.Int(66)},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 5 || res.Rows != 5 {
		t.Fatalf("applied=%d rows=%d, want 5/5 (same attribution as sequential)", res.Applied, res.Rows)
	}
	st := p.Stats()
	if st.CoalescedOps != 5 {
		t.Fatalf("coalesced %d ops, want 5 (update run of 3 + delete run of 2)", st.CoalescedOps)
	}
	if st.GroupSyncs == 0 || st.GroupSyncs != st.Batches {
		t.Fatalf("group syncs %d for %d batches, want one per batch", st.GroupSyncs, st.Batches)
	}

	discounts := func() map[int64]int64 {
		t.Helper()
		q := pmv.NewQuery(tpl).In(0, pmv.Int(1), pmv.Int(2)).In(1, pmv.Int(3)).Query()
		disc := make(map[int64]int64)
		if _, err := view.ExecutePartial(q, func(r pmv.Result) error {
			disc[r.Tuple[0].Int64()] = r.Tuple[1].Int64()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return disc
	}
	disc := discounts()
	if disc[25] != 11 {
		t.Errorf("pid 25 discount = %d, want 11 (batch order inside the run)", disc[25])
	}
	if disc[26] != 9 {
		t.Errorf("pid 26 discount = %d, want 9", disc[26])
	}
	if _, ok := disc[65]; ok {
		t.Error("coalesced delete left pid 65 served")
	}
	if _, ok := disc[66]; ok {
		t.Error("coalesced delete left pid 66 served")
	}
	if len(disc) != len(before)-2 {
		t.Errorf("result shrank by %d rows, want 2", len(before)-len(disc))
	}

	// A run matches by the rule a single op does. value.Equal equates
	// Float(105) with the stored Int 105 while their key encodings
	// differ: the op must find its row alone and as one of a run.
	res, err = p.Apply(context.Background(), []wire.UpdateOp{
		{Kind: wire.OpUpdate, Rel: "sale", Col: "pid", Val: value.Float(105), SetCol: "discount", SetVal: value.Int(13)},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 || res.Rows != 1 {
		t.Fatalf("Float match value alone: applied=%d rows=%d, want 1/1", res.Applied, res.Rows)
	}
	res, err = p.Apply(context.Background(), []wire.UpdateOp{
		{Kind: wire.OpUpdate, Rel: "sale", Col: "pid", Val: value.Float(105), SetCol: "discount", SetVal: value.Int(15)},
		{Kind: wire.OpUpdate, Rel: "sale", Col: "pid", Val: value.Int(106), SetCol: "discount", SetVal: value.Int(17)},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 2 || res.Rows != 2 {
		t.Fatalf("Float match value in a run of two: applied=%d rows=%d, want 2/2 (alone it changed its row)", res.Applied, res.Rows)
	}
	if st := p.Stats(); st.CoalescedOps != 7 {
		t.Fatalf("coalesced %d ops, want 7 (the cross-type pair ran as a run)", st.CoalescedOps)
	}
	if disc = discounts(); disc[105] != 15 || disc[106] != 17 {
		t.Errorf("pid 105/106 discounts = %d/%d, want 15/17", disc[105], disc[106])
	}
	if es := db.EngineStats(); es.DMLScanned != 0 {
		t.Errorf("%d statements scanned the heap: sale.pid is indexed", es.DMLScanned)
	}
	if err := view.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSelfMatchUpdateNotCoalesced pins the coalescing guard: an update
// that rewrites its own match column must not share a scan, or a later
// op addressing the new value would miss the tuple.
func TestSelfMatchUpdateNotCoalesced(t *testing.T) {
	db := openDB(t)
	tpl := storefront(t, db)
	if _, err := db.CreatePartialView(tpl, pmv.ViewOptions{MaxEntries: 50, TuplesPerBCP: 3}); err != nil {
		t.Fatal(err)
	}
	p := newPlane(t, db, maint.Config{MaxDelay: time.Millisecond})
	res, err := p.Apply(context.Background(), []wire.UpdateOp{
		{Kind: wire.OpUpdate, Rel: "sale", Col: "pid", Val: value.Int(105), SetCol: "pid", SetVal: value.Int(2105)},
		{Kind: wire.OpUpdate, Rel: "sale", Col: "pid", Val: value.Int(2105), SetCol: "discount", SetVal: value.Int(21)},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	// The second op must see the first's rename: rows=2 only if the
	// rename applied singly before the follow-up scanned.
	if res.Applied != 2 || res.Rows != 2 {
		t.Fatalf("applied=%d rows=%d, want 2/2", res.Applied, res.Rows)
	}
	if st := p.Stats(); st.CoalescedOps != 0 {
		t.Fatalf("self-match update joined a coalesced run (%d ops)", st.CoalescedOps)
	}
}

// TestPendingGate: Pending must be true from ingest until maintenance
// completes — the snapshot manager's staleness gate.
func TestPendingGate(t *testing.T) {
	db := openDB(t)
	tpl := storefront(t, db)
	if _, err := db.CreatePartialView(tpl, pmv.ViewOptions{MaxEntries: 50, TuplesPerBCP: 3}); err != nil {
		t.Fatal(err)
	}
	p := newPlane(t, db, maint.Config{MaxDelay: time.Millisecond})
	if p.Pending() {
		t.Fatal("idle plane reports pending work")
	}
	if _, err := p.Apply(context.Background(), []wire.UpdateOp{
		{Kind: wire.OpDelete, Rel: "sale", Col: "pid", Val: value.Int(25)},
	}, true); err != nil {
		t.Fatal(err)
	}
	// wantKeys waited for maintenance, so the batch is fully settled.
	if p.Pending() {
		t.Fatal("settled plane reports pending work")
	}
}
