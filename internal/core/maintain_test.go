package core

import (
	"context"
	"fmt"
	"testing"

	"pmv/internal/engine"
	"pmv/internal/expr"
	"pmv/internal/storage"
	"pmv/internal/value"
	"pmv/internal/workload"
)

// checkMaintIndex rebuilds the maintenance index from v.entries and
// compares it with the live one: the same (handle, slot) postings under
// the same keys, well-linked lists, every back-pointer naming its own
// posting, every handle naming its entry, and no leaked handle or
// posting.
func checkMaintIndex(v *View) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	m := v.maint
	n := len(m.rels)
	type bucket struct{ r, b int }
	want := make(map[bucket]map[[2]int32]int)
	for name, e := range v.entries {
		if int(e.h) >= len(m.ents) || m.ents[e.h] != e {
			return fmt.Errorf("entry %q: handle %d does not name it", name, e.h)
		}
		if len(e.at) != n*len(e.tuples) {
			return fmt.Errorf("entry %q: %d back-pointers for %d tuples × %d relations", name, len(e.at), len(e.tuples), n)
		}
		for slot, t := range e.tuples {
			for r := range m.rels {
				ri := &m.rels[r]
				b := bucket{r, int(ri.key(t) & uint64(len(ri.heads)-1))}
				if want[b] == nil {
					want[b] = make(map[[2]int32]int)
				}
				want[b][[2]int32{e.h, int32(slot)}]++
				if p := m.posts[e.at[slot*n+r]]; p.h != e.h || int(p.slot) != slot {
					return fmt.Errorf("entry %q slot %d: %s back-pointer names (%d, %d)", name, slot, ri.rel, p.h, p.slot)
				}
			}
		}
	}
	live := 0
	for _, e := range m.ents {
		if e != nil {
			live++
		}
	}
	if live != len(v.entries) || live+len(m.free) != len(m.ents) {
		return fmt.Errorf("%d live handles, %d free, %d slots for %d entries", live, len(m.free), len(m.ents), len(v.entries))
	}
	linked, chains := 0, 0
	for r := range m.rels {
		ri := &m.rels[r]
		for b, i := range ri.heads {
			if i < 0 {
				continue
			}
			chains++
			got := make(map[[2]int32]int)
			for prev := int32(-b - 1); i >= 0; prev, i = i, m.posts[i].next {
				linked++
				if m.posts[i].prev != prev || linked > len(m.posts) {
					return fmt.Errorf("%s bucket %d: chain is broken at posting %d", ri.rel, b, i)
				}
				got[[2]int32{m.posts[i].h, m.posts[i].slot}]++
			}
			if fmt.Sprint(got) != fmt.Sprint(want[bucket{r, b}]) {
				return fmt.Errorf("%s bucket %d: postings %v, rebuild %v", ri.rel, b, got, want[bucket{r, b}])
			}
		}
	}
	if chains != len(want) {
		return fmt.Errorf("%d chains, rebuild has %d", chains, len(want))
	}
	spare := 0
	for i := m.spare; i >= 0 && spare <= len(m.posts); i = m.posts[i].next {
		spare++
	}
	if linked != m.live || linked+spare != len(m.posts) {
		return fmt.Errorf("%d linked (%d live) and %d spare postings of %d", linked, m.live, spare, len(m.posts))
	}
	return nil
}

// TestSelectPlusLayoutJoinColumns: Ls′ gains a join column only when no
// equal of it is already there, and only at the end.
func TestSelectPlusLayoutJoinColumns(t *testing.T) {
	t1 := workload.TemplateT1()
	sp, _ := SelectPlusLayout(t1)
	if len(sp) != len(t1.Select) {
		t.Errorf("T1 Ls′ = %v: orders.orderkey already carries lineitem.orderkey", sp)
	}

	eng, tpl := testDB(t)
	tpl = addJoinOnly(t, eng, tpl, 1, 1)
	sp, condPos := SelectPlusLayout(tpl)
	want := []expr.ColumnRef{{Rel: "R", Col: "a"}, {Rel: "S", Col: "e"}, {Rel: "R", Col: "f"}, {Rel: "S", Col: "g"}, {Rel: "R", Col: "c"}}
	if fmt.Sprint(sp) != fmt.Sprint(want) || fmt.Sprint(condPos) != "[2 3]" {
		t.Errorf("Ls′ = %v condPos %v, want %v [2 3]", sp, condPos, want)
	}
	m := newMaintIndex(tpl, sp, 2)
	for _, ri := range m.rels {
		if ri.rel == "T" && (fmt.Sprint(ri.slots) != "[4]" || fmt.Sprint(ri.cols) != "[h]") {
			t.Errorf("T keys on slots %v cols %v, want [4] [h]", ri.slots, ri.cols)
		}
	}
}

// TestDeleteMaintenancePurges: a delete from any template relation —
// one with Ls′ columns, a join-only one, one whose join key is not
// unique — purges exactly the cached tuples it fed. The queried bcp
// then matches a fresh execution with no stale partial, and a bcp the
// delete did not feed still serves its partials.
func TestDeleteMaintenancePurges(t *testing.T) {
	t.Run("R", func(t *testing.T) {
		eng, tpl := testDB(t)
		loadFig1(t, eng, 4, 4, 2)
		checkDeletePurges(t, eng, tpl, "R", func(tu value.Tuple) bool { return tu[1].Int64() == 1002 },
			eqQuery(tpl, []int64{1}, []int64{2}), eqQuery(tpl, []int64{2}, []int64{3}))
	})
	t.Run("T", func(t *testing.T) {
		// Red without the layout's appended R.c: T would have no key,
		// and its delete would purge the whole view or nothing.
		eng, tpl := testDB(t)
		loadFig1(t, eng, 4, 4, 2)
		tpl = addJoinOnly(t, eng, tpl, 4, 4)
		checkDeletePurges(t, eng, tpl, "T", func(tu value.Tuple) bool { return tu[0].Int64() == 1002 },
			eqQuery(tpl, []int64{1}, []int64{2}), eqQuery(tpl, []int64{2}, []int64{3}))
	})
	t.Run("lineitem", func(t *testing.T) {
		eng := openEngine(t)
		if _, err := workload.LoadTPCR(eng, workload.TPCRConfig{ScaleFactor: 0.0002, Days: 20, Suppliers: 10, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		// An order with two lineitems from different suppliers: delete
		// one, keep the other's bcp.
		dates := orderDates(t, eng)
		byOrder := make(map[int64][]value.Tuple)
		scanRel(t, eng, "lineitem", func(tu value.Tuple) { byOrder[tu[0].Int64()] = append(byOrder[tu[0].Int64()], tu.Clone()) })
		var victim, sibling value.Tuple
		for ok := int64(0); victim == nil && ok < int64(len(byOrder)); ok++ {
			ls := byOrder[ok]
			for i := 1; i < len(ls); i++ {
				if !value.Equal(ls[0][1], ls[i][1]) {
					victim, sibling = ls[0], ls[i]
					break
				}
			}
		}
		if victim == nil {
			t.Fatal("no order with two suppliers")
		}
		tpl := workload.TemplateT1()
		d := dates[victim[0].Int64()]
		q := func(supp value.Value) *expr.Query {
			return &expr.Query{Template: tpl, Conds: []expr.CondInstance{{Values: []value.Value{d}}, {Values: []value.Value{supp}}}}
		}
		checkDeletePurges(t, eng, tpl, "lineitem", func(tu value.Tuple) bool { return value.CompareTuples(tu, victim) == 0 },
			q(victim[1]), q(sibling[1]))
	})
}

// checkDeletePurges warms q and keep, deletes the rel rows match
// selects — which feed q and not keep — and requires q to match a fresh
// execution (a stale partial fails runPartial's DS audit), the purge to
// have removed something, and keep to still be served from the view.
func checkDeletePurges(t *testing.T, eng *engine.Engine, tpl *expr.Template, rel string, match func(value.Tuple) bool, q, keep *expr.Query) {
	t.Helper()
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 100, TuplesPerBCP: 5})
	if err != nil {
		t.Fatalf("new view: %v", err)
	}
	runPartial(t, v, q)
	runPartial(t, v, keep)
	if v.TupleCount() == 0 {
		t.Fatal("view did not cache anything")
	}
	if gone, err := eng.DeleteWhere(rel, match); err != nil || len(gone) == 0 {
		t.Fatalf("delete from %s: %d rows, %v", rel, len(gone), err)
	}
	if err := checkMaintIndex(v); err != nil {
		t.Fatal(err)
	}
	got, _ := runPartial(t, v, q)
	if want := runFull(t, eng, tpl, q); !equalStrings(got, want) {
		t.Fatalf("post-delete results differ:\n got %v\nwant %v", got, want)
	}
	if v.Stats().TuplesPurged == 0 {
		t.Errorf("maintenance purged nothing after deleting from %s", rel)
	}
	if _, rep := runPartial(t, v, keep); rep.PartialTuples == 0 {
		t.Errorf("deleting from %s purged a bcp it did not feed", rel)
	}
}

func openEngine(t testing.TB) *engine.Engine {
	t.Helper()
	eng, err := engine.Open(t.TempDir(), engine.Options{BufferPoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

func scanRel(t testing.TB, eng *engine.Engine, rel string, fn func(value.Tuple)) {
	t.Helper()
	r, err := eng.Catalog().GetRelation(rel)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Heap.Scan(func(_ storage.RID, tu value.Tuple) error { fn(tu); return nil }); err != nil {
		t.Fatal(err)
	}
}

// orderDates maps each orderkey to its orderdate.
func orderDates(t testing.TB, eng *engine.Engine) map[int64]value.Value {
	out := make(map[int64]value.Value)
	scanRel(t, eng, "orders", func(tu value.Tuple) { out[tu[0].Int64()] = tu[2] })
	return out
}

// TestPurgeByIndexNoMatchAllocs pins the common write: a delete that
// feeds no cached tuple costs a hash probe and allocates nothing.
func TestPurgeByIndexNoMatchAllocs(t *testing.T) {
	eng, tpl := testDB(t)
	loadFig1(t, eng, 4, 4, 2)
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 100, TuplesPerBCP: 5})
	if err != nil {
		t.Fatal(err)
	}
	runPartial(t, v, eqQuery(tpl, []int64{1}, []int64{2}))
	base := value.Tuple{value.Int(77), value.Int(3003), value.Int(3)} // R(a, c, f), cached nowhere
	allocs := testing.AllocsPerRun(100, func() {
		if n, err := v.purgeByIndex("R", base, nil); n != 0 || err != nil {
			t.Fatalf("purged %d, %v", n, err)
		}
	})
	if allocs != 0 {
		t.Errorf("purgeByIndex with no match: %.1f allocs, want 0", allocs)
	}
}

// BenchmarkEvictWithIndex times one admission that evicts one entry,
// with the view full at 500 and at 10,000 entries: unindexing the
// victim costs its own tuples, so the two must be within about 2×.
func BenchmarkEvictWithIndex(b *testing.B) {
	for _, size := range []int{500, 10000} {
		b.Run(fmt.Sprintf("entries=%d", size), func(b *testing.B) {
			eng, tpl := testDB(b)
			v, err := NewView(eng, Config{Template: tpl, MaxEntries: size, TuplesPerBCP: 2})
			if err != nil {
				b.Fatal(err)
			}
			// Ls′ is (R.a, S.e, R.f, S.g, R.c); bcp i is (f=i, g=0).
			admit := func(i int) {
				f := value.Int(int64(i))
				ts := []value.Tuple{
					{value.Int(int64(2 * i)), value.Int(1), f, value.Int(0), value.Int(int64(i))},
					{value.Int(int64(2*i + 1)), value.Int(2), f, value.Int(0), value.Int(int64(i))},
				}
				if _, err := v.WarmAdmit(v.coder.KeyFromCondValues(v.condValues(ts[0])), 0, ts); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < size; i++ {
				admit(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				admit(size + i)
			}
			b.StopTimer()
			if v.Len() != size {
				b.Fatalf("view holds %d entries, want %d", v.Len(), size)
			}
		})
	}
}

// BenchmarkUpdateMaintenance times one T1 orders.totalprice update's
// maintenance through OnUpdateCtx on the benchmark's data (scale 0.005,
// 7,500 orders) with a warmed view, cycling through every order.
func BenchmarkUpdateMaintenance(b *testing.B) {
	eng := openEngine(b)
	cfg, err := workload.LoadTPCR(eng, workload.TPCRConfig{ScaleFactor: 0.005, Days: 100, Suppliers: 100, Nations: 25, Seed: 1, Deterministic: true})
	if err != nil {
		b.Fatal(err)
	}
	tpl := workload.TemplateT1()
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 2000, TuplesPerBCP: 2})
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewQueryGen(cfg, 1, 0.1)
	for i := 0; i < 400; i++ {
		if _, err := v.ExecutePartial(gen.T1Query(tpl, 2, 2, i%2 == 0), func(Result) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
	var orders []value.Tuple
	scanRel(b, eng, "orders", func(tu value.Tuple) { orders = append(orders, tu.Clone()) })
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		old := orders[i%len(orders)]
		upd := old.Clone()
		upd[3] = value.Float(old[3].Float64() + 1)
		if err := v.OnUpdateCtx(ctx, "orders", old, upd); err != nil {
			b.Fatal(err)
		}
	}
}
