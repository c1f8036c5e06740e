package exec

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"pmv/internal/catalog"
	"pmv/internal/expr"
	"pmv/internal/storage"
	"pmv/internal/value"
)

func ivOf(lo, hi int64) expr.Interval {
	return expr.Interval{Lo: value.Int(lo), Hi: value.Int(hi), LoIncl: true, HiIncl: false}
}

// planDB builds R(a, c, f), S(d, e, g) with indexes, deterministic
// contents, and a brute-force oracle.
type planDB struct {
	cat   *catalog.Catalog
	rRows []value.Tuple
	sRows []value.Tuple
	tpl   *expr.Template
}

func newPlanDB(t *testing.T, withIndexes bool) *planDB {
	t.Helper()
	c := testCatalog(t)
	r, _ := c.CreateRelation("R", catalog.NewSchema(
		catalog.Col("a", value.TypeInt), catalog.Col("c", value.TypeInt), catalog.Col("f", value.TypeInt)))
	s, _ := c.CreateRelation("S", catalog.NewSchema(
		catalog.Col("d", value.TypeInt), catalog.Col("e", value.TypeInt), catalog.Col("g", value.TypeInt)))
	db := &planDB{cat: c}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		tup := value.Tuple{value.Int(int64(i)), value.Int(rng.Int63n(40)), value.Int(rng.Int63n(8))}
		r.Heap.Insert(tup)
		db.rRows = append(db.rRows, tup)
	}
	for i := 0; i < 120; i++ {
		tup := value.Tuple{value.Int(rng.Int63n(40)), value.Int(int64(1000 + i)), value.Int(rng.Int63n(8))}
		s.Heap.Insert(tup)
		db.sRows = append(db.sRows, tup)
	}
	if withIndexes {
		c.CreateIndex("", "R", "c")
		c.CreateIndex("r_f", "R", "f")
		c.CreateIndex("s_d", "S", "d")
		c.CreateIndex("s_g", "S", "g")
	}
	db.tpl = &expr.Template{
		Name:      "eqt",
		Relations: []string{"R", "S"},
		Select:    []expr.ColumnRef{{Rel: "R", Col: "a"}, {Rel: "S", Col: "e"}},
		Join: []expr.JoinPred{{
			Left:  expr.ColumnRef{Rel: "R", Col: "c"},
			Right: expr.ColumnRef{Rel: "S", Col: "d"},
		}},
		Conds: []expr.CondTemplate{
			{Col: expr.ColumnRef{Rel: "R", Col: "f"}, Form: expr.EqualityForm},
			{Col: expr.ColumnRef{Rel: "S", Col: "g"}, Form: expr.IntervalForm},
		},
	}
	return db
}

// oracle computes the join brute-force.
func (db *planDB) oracle(q *expr.Query) []string {
	var out []string
	for _, rt := range db.rRows {
		if !q.Conds[0].Matches(expr.EqualityForm, rt[2]) {
			continue
		}
		for _, st := range db.sRows {
			if !value.Equal(rt[1], st[0]) {
				continue
			}
			if !q.Conds[1].Matches(expr.IntervalForm, st[2]) {
				continue
			}
			out = append(out, value.Tuple{rt[0], st[1]}.String())
		}
	}
	sort.Strings(out)
	return out
}

func runPlan(t *testing.T, cat *catalog.Catalog, q *expr.Query) []string {
	t.Helper()
	plan, err := PlanQuery(cat, q)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	aPos, err := plan.Schema.MustIndex(expr.ColumnRef{Rel: "R", Col: "a"})
	if err != nil {
		t.Fatal(err)
	}
	ePos, err := plan.Schema.MustIndex(expr.ColumnRef{Rel: "S", Col: "e"})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	err = ForEach(&Project{Child: plan.Root, Cols: []int{aPos, ePos}}, func(tp value.Tuple) error {
		out = append(out, tp.String())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

func eqStrs(a, b []string) bool {
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

func TestPlannerMatchesOracle(t *testing.T) {
	for _, withIdx := range []bool{true, false} {
		name := "indexed"
		if !withIdx {
			name = "scans-only"
		}
		t.Run(name, func(t *testing.T) {
			db := newPlanDB(t, withIdx)
			rng := rand.New(rand.NewSource(99))
			for i := 0; i < 30; i++ {
				var fs []value.Value
				seen := map[int64]bool{}
				for n := 0; n < 1+rng.Intn(3); n++ {
					v := rng.Int63n(8)
					if seen[v] {
						continue
					}
					seen[v] = true
					fs = append(fs, value.Int(v))
				}
				lo := rng.Int63n(8)
				q := &expr.Query{
					Template: db.tpl,
					Conds: []expr.CondInstance{
						{Values: fs},
						{Intervals: []expr.Interval{ivOf(lo, lo+1+rng.Int63n(4))}},
					},
				}
				got := runPlan(t, db.cat, q)
				want := db.oracle(q)
				if !eqStrs(got, want) {
					t.Fatalf("query %d: got %d rows, oracle %d rows", i, len(got), len(want))
				}
			}
		})
	}
}

func TestPlannerMultipleIntervals(t *testing.T) {
	db := newPlanDB(t, true)
	q := &expr.Query{
		Template: db.tpl,
		Conds: []expr.CondInstance{
			{Values: []value.Value{value.Int(1), value.Int(3), value.Int(5)}},
			{Intervals: []expr.Interval{ivOf(0, 2), ivOf(5, 7)}},
		},
	}
	if got, want := runPlan(t, db.cat, q), db.oracle(q); !eqStrs(got, want) {
		t.Fatalf("got %d rows, oracle %d", len(got), len(want))
	}
}

func TestPlannerFixedPredicates(t *testing.T) {
	db := newPlanDB(t, true)
	db.tpl.Fixed = []expr.FixedPred{{
		Col: expr.ColumnRef{Rel: "R", Col: "a"}, Op: expr.OpLt, Val: value.Int(100),
	}}
	q := &expr.Query{
		Template: db.tpl,
		Conds: []expr.CondInstance{
			{Values: []value.Value{value.Int(2)}},
			{Intervals: []expr.Interval{ivOf(0, 8)}},
		},
	}
	got := runPlan(t, db.cat, q)
	// Oracle with the fixed predicate applied by hand.
	var want []string
	for _, rt := range db.rRows {
		if rt[0].Int64() >= 100 || rt[2].Int64() != 2 {
			continue
		}
		for _, st := range db.sRows {
			if value.Equal(rt[1], st[0]) && st[2].Int64() >= 0 && st[2].Int64() < 8 {
				want = append(want, value.Tuple{rt[0], st[1]}.String())
			}
		}
	}
	sort.Strings(want)
	if !eqStrs(got, want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
}

func TestPlannerThreeWayJoin(t *testing.T) {
	db := newPlanDB(t, true)
	// Add a third relation U(k, m) joined on S.e = U.k.
	u, _ := db.cat.CreateRelation("U", catalog.NewSchema(
		catalog.Col("k", value.TypeInt), catalog.Col("m", value.TypeInt)))
	var uRows []value.Tuple
	for i := 0; i < 60; i++ {
		tup := value.Tuple{value.Int(int64(1000 + i*2)), value.Int(int64(i))}
		u.Heap.Insert(tup)
		uRows = append(uRows, tup)
	}
	// Index after load: CreateIndex backfills from the heap.
	db.cat.CreateIndex("u_k", "U", "k")
	tpl := &expr.Template{
		Name:      "three",
		Relations: []string{"R", "S", "U"},
		Select:    []expr.ColumnRef{{Rel: "R", Col: "a"}, {Rel: "U", Col: "m"}},
		Join: []expr.JoinPred{
			{Left: expr.ColumnRef{Rel: "R", Col: "c"}, Right: expr.ColumnRef{Rel: "S", Col: "d"}},
			{Left: expr.ColumnRef{Rel: "S", Col: "e"}, Right: expr.ColumnRef{Rel: "U", Col: "k"}},
		},
		Conds: []expr.CondTemplate{
			{Col: expr.ColumnRef{Rel: "R", Col: "f"}, Form: expr.EqualityForm},
		},
	}
	q := &expr.Query{Template: tpl, Conds: []expr.CondInstance{
		{Values: []value.Value{value.Int(1), value.Int(4)}},
	}}
	plan, err := PlanQuery(db.cat, q)
	if err != nil {
		t.Fatal(err)
	}
	// No statistics: declared order, every step through its index.
	if got, want := plan.String(), "IndexJoin U via u_k\n  IndexJoin S via s_d\n    IndexScan R via r_f\n"; got != want {
		t.Errorf("plan shape:\n%swant:\n%s", got, want)
	}
	var got []string
	aPos, _ := plan.Schema.MustIndex(expr.ColumnRef{Rel: "R", Col: "a"})
	mPos, _ := plan.Schema.MustIndex(expr.ColumnRef{Rel: "U", Col: "m"})
	ForEach(&Project{Child: plan.Root, Cols: []int{aPos, mPos}}, func(tp value.Tuple) error {
		got = append(got, tp.String())
		return nil
	})
	sort.Strings(got)

	var want []string
	for _, rt := range db.rRows {
		if rt[2].Int64() != 1 && rt[2].Int64() != 4 {
			continue
		}
		for _, st := range db.sRows {
			if !value.Equal(rt[1], st[0]) {
				continue
			}
			for _, ut := range uRows {
				if value.Equal(st[1], ut[0]) {
					want = append(want, value.Tuple{rt[0], ut[1]}.String())
				}
			}
		}
	}
	sort.Strings(want)
	if !eqStrs(got, want) {
		t.Fatalf("three-way: got %d rows, want %d", len(got), len(want))
	}
	if len(want) == 0 {
		t.Fatal("three-way oracle empty; test data bad")
	}
}

func TestPlannerRejectsInvalidQuery(t *testing.T) {
	db := newPlanDB(t, true)
	bad := &expr.Query{Template: db.tpl, Conds: []expr.CondInstance{{Values: []value.Value{value.Int(1)}}}}
	if _, err := PlanQuery(db.cat, bad); err == nil {
		t.Error("invalid query planned")
	}
}

func TestPlannerUnknownRelation(t *testing.T) {
	db := newPlanDB(t, true)
	tpl := *db.tpl
	tpl.Relations = []string{"R", "GHOST"}
	q := &expr.Query{Template: &tpl, Conds: []expr.CondInstance{
		{Values: []value.Value{value.Int(1)}},
		{Intervals: []expr.Interval{ivOf(0, 1)}},
	}}
	if _, err := PlanQuery(db.cat, q); err == nil {
		t.Error("unknown relation planned")
	}
}

// diffDB is the differential fixture for the key-only plan: two
// catalogs loaded and mutated identically — one with the composite
// (condition column, join column) indexes pmv.DB.CreatePartialView
// derives, one with only the single-column indexes of the paper's
// set-up — plus the rows in memory for a brute-force oracle.
//
//	O(ok, ck, od, tp, pad)  orders-like:   ok join key, od condition, tp unique
//	L(ok, sk, q, pad)       lineitem-like: ok join key, sk condition
//	C(ck, nk)               customer-like: ck join key, nk condition
//
// ok repeats on both sides (about 500 distinct keys over 600 O rows and
// 2,400 L rows), so a key matches several rows of each relation.
type diffDB struct {
	t    *testing.T
	cats [2]*catalog.Catalog // [0] with composites, [1] without
	rows map[string][]value.Tuple
}

func newDiffDB(t *testing.T) *diffDB {
	t.Helper()
	db := &diffDB{t: t, rows: map[string][]value.Tuple{}}
	rng := rand.New(rand.NewSource(21))
	pad := strings.Repeat("x", 40)
	for i := 0; i < 600; i++ {
		db.rows["O"] = append(db.rows["O"], value.Tuple{
			value.Int(rng.Int63n(500)), value.Int(rng.Int63n(60)), value.Int(rng.Int63n(30)),
			value.Int(int64(i)), value.Str(pad)})
	}
	for i := 0; i < 2400; i++ {
		db.rows["L"] = append(db.rows["L"], value.Tuple{
			value.Int(rng.Int63n(500)), value.Int(rng.Int63n(40)), value.Int(rng.Int63n(10)), value.Str(pad)})
	}
	for i := 0; i < 60; i++ {
		db.rows["C"] = append(db.rows["C"], value.Tuple{value.Int(int64(i)), value.Int(int64(i % 6))})
	}
	for i := range db.cats {
		c := testCatalog(t)
		db.cats[i] = c
		c.CreateRelation("O", catalog.NewSchema(
			catalog.Col("ok", value.TypeInt), catalog.Col("ck", value.TypeInt), catalog.Col("od", value.TypeInt),
			catalog.Col("tp", value.TypeInt), catalog.Col("pad", value.TypeString)))
		c.CreateRelation("L", catalog.NewSchema(
			catalog.Col("ok", value.TypeInt), catalog.Col("sk", value.TypeInt), catalog.Col("q", value.TypeInt),
			catalog.Col("pad", value.TypeString)))
		c.CreateRelation("C", catalog.NewSchema(catalog.Col("ck", value.TypeInt), catalog.Col("nk", value.TypeInt)))
		for _, name := range []string{"O", "L", "C"} {
			r, _ := c.GetRelation(name)
			for _, tup := range db.rows[name] {
				if _, err := r.Heap.Insert(tup); err != nil {
					t.Fatal(err)
				}
			}
		}
		indexes := [][]string{{"O", "ok"}, {"O", "ck"}, {"O", "od"}, {"O", "tp"}, {"L", "ok"}, {"L", "sk"}, {"C", "ck"}, {"C", "nk"}}
		if i == 0 {
			indexes = append(indexes, []string{"O", "od", "ok"}, []string{"O", "tp", "ok"}, []string{"L", "sk", "ok"})
		}
		for _, ix := range indexes {
			if _, err := c.CreateIndex(strings.Join(ix, "_"), ix[0], ix[1:]...); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.AnalyzeAll(); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// mutate rewrites (apply != nil) or deletes (apply == nil) the rows of
// rel matching pred in both catalogs, maintaining every index the way
// the engine does, and in the oracle's copy. It returns how many rows
// changed RID.
func (db *diffDB) mutate(rel string, pred func(value.Tuple) bool, apply func(value.Tuple) value.Tuple) (moved int) {
	db.t.Helper()
	for _, c := range db.cats {
		r, _ := c.GetRelation(rel)
		type hit struct {
			rid storage.RID
			t   value.Tuple
		}
		var hits []hit
		r.Heap.Scan(func(rid storage.RID, tup value.Tuple) error {
			if pred(tup) {
				hits = append(hits, hit{rid, tup.Clone()})
			}
			return nil
		})
		for _, h := range hits {
			for _, ix := range r.Indexes {
				if err := ix.Delete(h.t, h.rid); err != nil {
					db.t.Fatal(err)
				}
			}
			if apply == nil {
				if err := r.Heap.Delete(h.rid); err != nil {
					db.t.Fatal(err)
				}
				continue
			}
			newT := apply(h.t.Clone())
			newRID, err := r.Heap.Update(h.rid, newT)
			if err != nil {
				db.t.Fatal(err)
			}
			if newRID != h.rid {
				moved++
			}
			for _, ix := range r.Indexes {
				if err := ix.Insert(newT, newRID); err != nil {
					db.t.Fatal(err)
				}
			}
		}
	}
	kept := db.rows[rel][:0]
	for _, tup := range db.rows[rel] {
		switch {
		case !pred(tup):
			kept = append(kept, tup)
		case apply != nil:
			kept = append(kept, apply(tup.Clone()))
		}
	}
	db.rows[rel] = kept
	return moved / len(db.cats)
}

// oracle evaluates q by brute force: filter each relation by its own
// conditions and fixed predicates, then test every combination against
// the join predicates. Rows are rendered as the template's select list.
func (db *diffDB) oracle(q *expr.Query) []string {
	tpl := q.Template
	c := db.cats[0]
	colOf := func(ref expr.ColumnRef) int {
		r, _ := c.GetRelation(ref.Rel)
		return r.Schema.ColIndex(ref.Col)
	}
	filtered := make([][]value.Tuple, len(tpl.Relations))
	for ri, name := range tpl.Relations {
	rows:
		for _, tup := range db.rows[name] {
			for ci, ct := range tpl.Conds {
				if ct.Col.Rel == name && !q.Conds[ci].Matches(ct.Form, tup[colOf(ct.Col)]) {
					continue rows
				}
			}
			for _, f := range tpl.Fixed {
				if f.Col.Rel == name && !f.Op.Eval(tup[colOf(f.Col)], f.Val) {
					continue rows
				}
			}
			filtered[ri] = append(filtered[ri], tup)
		}
	}
	var out []string
	pick := make(map[string]value.Tuple, len(tpl.Relations))
	var rec func(ri int)
	rec = func(ri int) {
		if ri == len(tpl.Relations) {
			for _, jp := range tpl.Join {
				if !value.Equal(pick[jp.Left.Rel][colOf(jp.Left)], pick[jp.Right.Rel][colOf(jp.Right)]) {
					return
				}
			}
			row := make(value.Tuple, len(tpl.Select))
			for i, ref := range tpl.Select {
				row[i] = pick[ref.Rel][colOf(ref)]
			}
			out = append(out, row.String())
			return
		}
		for _, tup := range filtered[ri] {
			pick[tpl.Relations[ri]] = tup
			rec(ri + 1)
		}
	}
	rec(0)
	sort.Strings(out)
	return out
}

// run plans q on catalog which and returns the plan's text and its
// answer as the sorted select list.
func (db *diffDB) run(which int, q *expr.Query) (string, []string) {
	db.t.Helper()
	plan, err := PlanQuery(db.cats[which], q)
	if err != nil {
		db.t.Fatalf("plan: %v", err)
	}
	cols := make([]int, len(q.Template.Select))
	for i, ref := range q.Template.Select {
		if cols[i], err = plan.Schema.MustIndex(ref); err != nil {
			db.t.Fatal(err)
		}
	}
	var out []string
	err = ForEach(&Project{Child: plan.Root, Cols: cols}, func(tp value.Tuple) error {
		out = append(out, tp.String())
		return nil
	})
	if err != nil {
		db.t.Fatalf("run:\n%s%v", plan, err)
	}
	sort.Strings(out)
	return plan.String(), out
}

// check runs q three ways — the plan over the composites (which must be
// wantShape), the plan without them (never a KeyJoin) and the oracle —
// and requires one multiset. It returns the answer's size.
func (db *diffDB) check(name string, q *expr.Query, wantShape string) int {
	db.t.Helper()
	want := db.oracle(q)
	shape, got := db.run(0, q)
	if shape != wantShape {
		db.t.Errorf("%s: plan over composites:\n%swant:\n%s", name, shape, wantShape)
	}
	if !eqStrs(got, want) {
		db.t.Errorf("%s: plan over composites returned %d rows, oracle %d\n%s", name, len(got), len(want), shape)
	}
	shape, got = db.run(1, q)
	if strings.Contains(shape, "KeyJoin") {
		db.t.Errorf("%s: KeyJoin planned without composite indexes:\n%s", name, shape)
	}
	if !eqStrs(got, want) {
		db.t.Errorf("%s: IndexJoin plan returned %d rows, oracle %d\n%s", name, len(got), len(want), shape)
	}
	return len(want)
}

func ref(rel, col string) expr.ColumnRef { return expr.ColumnRef{Rel: rel, Col: col} }

// diffTemplate is T1-shaped (O ⋈ L) or, with customer, T2-shaped
// (O ⋈ L ⋈ C); oForm and lForm pick each side's condition form.
func diffTemplate(oForm, lForm expr.CondForm, customer bool) *expr.Template {
	tpl := &expr.Template{
		Name:      "diff",
		Relations: []string{"O", "L"},
		Select:    []expr.ColumnRef{ref("O", "tp"), ref("O", "od"), ref("L", "sk"), ref("L", "q")},
		Join:      []expr.JoinPred{{Left: ref("O", "ok"), Right: ref("L", "ok")}},
		Conds:     []expr.CondTemplate{{Col: ref("O", "od"), Form: oForm}, {Col: ref("L", "sk"), Form: lForm}},
	}
	if customer {
		tpl.Relations = append(tpl.Relations, "C")
		tpl.Select = append(tpl.Select, ref("C", "nk"))
		tpl.Join = append(tpl.Join, expr.JoinPred{Left: ref("O", "ck"), Right: ref("C", "ck")})
		tpl.Conds = append(tpl.Conds, expr.CondTemplate{Col: ref("C", "nk"), Form: expr.EqualityForm})
	}
	return tpl
}

func intsOf(vs ...int64) expr.CondInstance {
	ci := expr.CondInstance{}
	for _, v := range vs {
		ci.Values = append(ci.Values, value.Int(v))
	}
	return ci
}

func ivsOf(bounds ...int64) expr.CondInstance {
	ci := expr.CondInstance{}
	for i := 0; i+1 < len(bounds); i += 2 {
		ci.Intervals = append(ci.Intervals, ivOf(bounds[i], bounds[i+1]))
	}
	return ci
}

const (
	shapeT1 = "KeyJoin O via O_od_ok, L via L_sk_ok\n"
	shapeT2 = "IndexJoin C via C_ck\n  " + shapeT1
)

// TestKeyJoinMatchesIndexJoinAndOracle is the differential test of the
// key-only plan: for T1- and T2-shaped templates, equality and interval
// forms, fixed predicates, empty ranges, join keys that repeat on both
// sides, and rows deleted and moved between queries, the KeyJoin plan,
// the IndexJoin plan over the same data without the composites, and a
// brute-force oracle return the same multiset.
func TestKeyJoinMatchesIndexJoinAndOracle(t *testing.T) {
	db := newDiffDB(t)
	eq, iv := expr.EqualityForm, expr.IntervalForm
	sweep := func(phase string) {
		t.Helper()
		rng := rand.New(rand.NewSource(5))
		rows := 0
		for i := 0; i < 12; i++ {
			od, sk := rng.Int63n(29), rng.Int63n(38)
			rows += db.check(phase+"/t1-eq", &expr.Query{Template: diffTemplate(eq, eq, false),
				Conds: []expr.CondInstance{intsOf(od, od+1), intsOf(sk, sk+2)}}, shapeT1)
			rows += db.check(phase+"/t1-interval", &expr.Query{Template: diffTemplate(iv, eq, false),
				Conds: []expr.CondInstance{ivsOf(od, od+2), intsOf(sk)}}, shapeT1)
			rows += db.check(phase+"/t1-intervals", &expr.Query{Template: diffTemplate(iv, iv, false),
				Conds: []expr.CondInstance{ivsOf(0, 1, od+1, od+2), ivsOf(sk, sk+3)}}, shapeT1)
			rows += db.check(phase+"/t2-eq", &expr.Query{Template: diffTemplate(eq, eq, true),
				Conds: []expr.CondInstance{intsOf(od, od+1), intsOf(sk, sk+1, sk+2), intsOf(rng.Int63n(6), 7)}}, shapeT2)
			rows += db.check(phase+"/t2-interval", &expr.Query{Template: diffTemplate(eq, iv, true),
				Conds: []expr.CondInstance{intsOf(od), ivsOf(sk, sk+4), intsOf(0, 1, 2)}}, shapeT2)
			fixed := diffTemplate(eq, eq, false)
			fixed.Fixed = []expr.FixedPred{
				{Col: ref("L", "q"), Op: expr.OpLt, Val: value.Int(5)},
				{Col: ref("O", "tp"), Op: expr.OpGe, Val: value.Int(100)},
			}
			rows += db.check(phase+"/t1-fixed", &expr.Query{Template: fixed,
				Conds: []expr.CondInstance{intsOf(od, od+1), intsOf(sk, sk+1, sk+2)}}, shapeT1)
		}
		if rows == 0 {
			t.Fatalf("%s: every answer empty; fixture broken", phase)
		}
		// Ranges no row falls in, on either side and on both.
		for _, conds := range [][]expr.CondInstance{
			{intsOf(999), intsOf(3)}, {intsOf(3), intsOf(999)}, {intsOf(-1), intsOf(-1)},
		} {
			if n := db.check(phase+"/empty-eq", &expr.Query{Template: diffTemplate(eq, eq, false), Conds: conds}, shapeT1); n != 0 {
				t.Errorf("%s: empty range returned %d rows", phase, n)
			}
		}
		// An interval inside the domain that no integer falls in: the
		// statistics expect rows, both index scans run, nothing matches.
		open := expr.CondInstance{Intervals: []expr.Interval{{Lo: value.Int(5), Hi: value.Int(6)}}}
		if n := db.check(phase+"/empty-interval", &expr.Query{Template: diffTemplate(iv, iv, false),
			Conds: []expr.CondInstance{open, ivsOf(3, 5)}}, shapeT1); n != 0 {
			t.Errorf("%s: empty interval returned %d rows", phase, n)
		}
		// An interval outside the domain: the statistics expect no row on
		// that side, and driving from it is the cheapest plan there is.
		if n := db.check(phase+"/outside-interval", &expr.Query{Template: diffTemplate(iv, iv, false),
			Conds: []expr.CondInstance{ivsOf(100, 200), ivsOf(3, 5)}}, "IndexJoin L via L_ok\n  IndexScan O via O_od\n"); n != 0 {
			t.Errorf("%s: interval outside the domain returned %d rows", phase, n)
		}
	}
	sweep("loaded")

	// Delete a slice of each side, then grow a band of rows on each side
	// past what their pages can hold so they change RID; a plan that
	// trusted a stale index entry would now fetch the wrong row or none.
	db.mutate("L", func(tup value.Tuple) bool { return tup[0].Int64()%7 == 0 }, nil)
	db.mutate("O", func(tup value.Tuple) bool { return tup[3].Int64()%11 == 0 }, nil)
	grow := func(padCol int) func(value.Tuple) value.Tuple {
		return func(tup value.Tuple) value.Tuple {
			tup[padCol] = value.Str(strings.Repeat("y", 900))
			return tup
		}
	}
	movedO := db.mutate("O", func(tup value.Tuple) bool { return tup[3].Int64()%5 == 1 }, grow(4))
	movedL := db.mutate("L", func(tup value.Tuple) bool { return tup[0].Int64()%5 == 2 }, grow(3))
	if movedO == 0 || movedL == 0 {
		t.Fatalf("no row changed RID (O %d, L %d); fixture broken", movedO, movedL)
	}
	// And move a condition value, so entries leave one range for another.
	db.mutate("O", func(tup value.Tuple) bool { return tup[2].Int64() == 4 }, func(tup value.Tuple) value.Tuple {
		tup[2] = value.Int(9)
		return tup
	})
	sweep("mutated")
}

// TestPlannerKeepsIndexJoinWhenKeyJoinCostsMore: one side's condition
// keeps a single row (tp is unique) while the other's range covers the
// whole relation. Scanning L's 2,400 index entries to intersect them
// with one key costs more pages than one probe of L_ok, so the planner
// must keep the IndexJoin although both composites exist — and flip to
// the KeyJoin when the range narrows.
func TestPlannerKeepsIndexJoinWhenKeyJoinCostsMore(t *testing.T) {
	db := newDiffDB(t)
	tpl := diffTemplate(expr.EqualityForm, expr.IntervalForm, false)
	tpl.Conds[0].Col = ref("O", "tp")
	wide := &expr.Query{Template: tpl, Conds: []expr.CondInstance{intsOf(77), ivsOf(0, 40)}}
	if n := db.check("wide", wide, "IndexJoin L via L_ok\n  IndexScan O via O_tp\n"); n == 0 {
		t.Fatal("wide query empty; fixture broken")
	}
	narrow := &expr.Query{Template: tpl, Conds: []expr.CondInstance{intsOf(77, 78, 79, 80), ivsOf(0, 2)}}
	db.check("narrow", narrow, "KeyJoin O via O_tp_ok, L via L_sk_ok\n")
}

// TestPlannerMixedTypeJoinAvoidsKeyJoin: the KeyJoin compares encoded
// key bytes, and keycodec encodes Int 1 and Float 1.0 differently, so
// an Int = Float join must not take it even with both composites and
// statistics in place; the same join over two Int columns does.
func TestPlannerMixedTypeJoinAvoidsKeyJoin(t *testing.T) {
	c := testCatalog(t)
	a, _ := c.CreateRelation("A", catalog.NewSchema(catalog.Col("x", value.TypeInt), catalog.Col("k", value.TypeInt)))
	b, _ := c.CreateRelation("B", catalog.NewSchema(
		catalog.Col("y", value.TypeInt), catalog.Col("k", value.TypeFloat), catalog.Col("ki", value.TypeInt)))
	for i := 0; i < 400; i++ {
		a.Heap.Insert(value.Tuple{value.Int(int64(i % 20)), value.Int(int64(i % 100))})
		b.Heap.Insert(value.Tuple{value.Int(int64(i % 25)), value.Float(float64(i % 100)), value.Int(int64(i % 100))})
	}
	for _, ix := range [][]string{{"A", "x"}, {"A", "k"}, {"B", "y"}, {"B", "k"}, {"B", "ki"},
		{"A", "x", "k"}, {"B", "y", "k"}, {"B", "y", "ki"}} {
		if _, err := c.CreateIndex(strings.Join(ix, "_"), ix[0], ix[1:]...); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ joinCol, want string }{
		{"k", "IndexJoin A via A_k\n  IndexScan B via B_y\n"},
		{"ki", "KeyJoin A via A_x_k, B via B_y_ki\n"},
	} {
		tpl := &expr.Template{
			Name: "mixed", Relations: []string{"A", "B"},
			Select: []expr.ColumnRef{ref("A", "x"), ref("B", "y")},
			Join:   []expr.JoinPred{{Left: ref("A", "k"), Right: ref("B", tc.joinCol)}},
			Conds: []expr.CondTemplate{
				{Col: ref("A", "x"), Form: expr.EqualityForm}, {Col: ref("B", "y"), Form: expr.EqualityForm}},
		}
		plan, err := PlanQuery(c, &expr.Query{Template: tpl, Conds: []expr.CondInstance{intsOf(3), intsOf(3)}})
		if err != nil {
			t.Fatal(err)
		}
		if got := plan.String(); got != tc.want {
			t.Errorf("A.k = B.%s:\n%swant:\n%s", tc.joinCol, got, tc.want)
		}
	}
}
