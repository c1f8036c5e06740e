package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"pmv/internal/catalog"
	"pmv/internal/engine"
	"pmv/internal/exec"
	"pmv/internal/expr"
	"pmv/internal/keycodec"
	"pmv/internal/value"
)

// lsAnswer runs q through PlanQuery's plan over Ls′ and returns the rows
// rendered, sorted.
func lsAnswer(t *testing.T, eng *engine.Engine, q *expr.Query, cols []expr.ColumnRef) []string {
	t.Helper()
	var out []string
	if err := eng.ExecuteProject(q, cols, func(tu value.Tuple) error {
		out = append(out, tu.String())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// preparedAnswer runs q through p and returns its plan's text, build
// side and rows rendered, sorted.
func preparedAnswer(t *testing.T, eng *engine.Engine, p *exec.Prepared, q *expr.Query) (string, bool, []string) {
	t.Helper()
	b, err := p.Bind(q)
	if err != nil {
		t.Fatal(err)
	}
	shape, right := b.String(), b.BuildRight()
	b.Release()
	var out []string
	if err := eng.ExecutePreparedCtx(context.Background(), p, q, nil, func(tu value.Tuple) error {
		out = append(out, tu.String())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return shape, right, out
}

// bindingClass names q's binding class: per condition, its form and its
// number of values or intervals.
func bindingClass(q *expr.Query) string {
	var sb strings.Builder
	for i, ct := range q.Template.Conds {
		if ct.Form == expr.EqualityForm {
			fmt.Fprintf(&sb, "eq%d ", len(q.Conds[i].Values))
		} else {
			fmt.Fprintf(&sb, "iv%d ", len(q.Conds[i].Intervals))
		}
	}
	return strings.TrimSpace(sb.String())
}

// TestPreparedMatchesPlanQuery replays the fuzz generator's worlds and
// queries — two or three relations, equality and interval conditions,
// with and without composite covering indexes, with and without
// statistics — through a prepared plan and through PlanQuery, and
// requires one answer. The plan, operator and build side, must be
// PlanQuery's too, with one named exception: in a binding class with an
// interval condition under statistics, the cost model reads the
// interval's bounds (RangeSelectivity), so PlanQuery may cost a later
// query of the class to another plan than the one the class's first
// query chose. Equality classes are costed from the number of values
// alone (EqSelectivity), so there the choice never differs.
func TestPreparedMatchesPlanQuery(t *testing.T) {
	differ := 0
	for seed := int64(1); seed <= 24; seed++ {
		w := buildFuzzWorld(t, seed)
		if seed%2 == 0 {
			// The view's composites, as CreatePartialView derives them:
			// (condition column, join column) carrying the rest of Ls′.
			for ji, jp := range w.tpl.Join {
				for _, ref := range []expr.ColumnRef{jp.Left, jp.Right} {
					other := "jp"
					if ref.Col == "jp" {
						other = "jk"
					}
					name := fmt.Sprintf("%s_sel_%s_%d", ref.Rel, ref.Col, ji)
					if _, err := w.eng.CreateCoveringIndex(name, ref.Rel, []string{"sel", ref.Col}, []string{"id", "payload", other}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if seed%3 == 0 {
			if err := w.eng.AnalyzeAll(); err != nil {
				t.Fatal(err)
			}
		}
		p := w.eng.Prepare(w.tpl, w.view.selectPlus)
		interval := slices.ContainsFunc(w.tpl.Conds, func(c expr.CondTemplate) bool { return c.Form == expr.IntervalForm })
		for i := 0; i < 40; i++ {
			q := w.randomQuery()
			want := lsAnswer(t, w.eng, q, w.view.selectPlus)
			plan, err := w.eng.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			shape, right, got := preparedAnswer(t, w.eng, p, q)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d, class %s: prepared plan returned %d rows, PlanQuery %d\n%s", seed, bindingClass(q), len(got), len(want), shape)
			}
			if shape == plan.String() && right == plan.BuildRight() {
				continue
			}
			if !interval || seed%3 != 0 {
				t.Fatalf("seed %d, class %s: prepared plan\n%s(build right %v), PlanQuery\n%s(build right %v)",
					seed, bindingClass(q), shape, right, plan, plan.BuildRight())
			}
			differ++
		}
	}
	t.Logf("%d interval-class queries ran their class's plan where PlanQuery costed another", differ)
}

// replanFixture is two relations a(x, k, v) and b(y, k, w): a has many
// pages and few rows per x, b few pages and many rows per y, so the
// build side by heap pages (no statistics) is b and by entries scanned
// (statistics) is a.
func replanFixture(t *testing.T) (*engine.Engine, *expr.Template, []*expr.Query) {
	t.Helper()
	eng, err := engine.Open(t.TempDir(), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	for _, rel := range []string{"a", "b"} {
		if _, err := eng.CreateRelation(rel, catalog.NewSchema(
			catalog.Col("c", value.TypeInt), catalog.Col("k", value.TypeInt), catalog.Col("v", value.TypeString))); err != nil {
			t.Fatal(err)
		}
	}
	wide := strings.Repeat("w", 400)
	for i := 0; i < 2000; i++ {
		if err := eng.Insert("a", value.Tuple{value.Int(int64(i % 400)), value.Int(int64(i % 97)), value.Str(wide)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		if err := eng.Insert("b", value.Tuple{value.Int(int64(i % 4)), value.Int(int64(i % 97)), value.Str("n")}); err != nil {
			t.Fatal(err)
		}
	}
	for _, ix := range [][]string{{"a", "c"}, {"a", "k"}, {"b", "c"}, {"b", "k"}} {
		if _, err := eng.CreateIndex("", ix[0], ix[1]); err != nil {
			t.Fatal(err)
		}
	}
	tpl := &expr.Template{
		Name: "ab", Relations: []string{"a", "b"},
		Select: []expr.ColumnRef{{Rel: "a", Col: "c"}, {Rel: "b", Col: "c"}, {Rel: "b", Col: "v"}},
		Join:   []expr.JoinPred{{Left: expr.ColumnRef{Rel: "a", Col: "k"}, Right: expr.ColumnRef{Rel: "b", Col: "k"}}},
		Conds: []expr.CondTemplate{
			{Col: expr.ColumnRef{Rel: "a", Col: "c"}, Form: expr.EqualityForm},
			{Col: expr.ColumnRef{Rel: "b", Col: "c"}, Form: expr.EqualityForm},
		},
	}
	var qs []*expr.Query
	for i := int64(0); i < 6; i++ {
		qs = append(qs, &expr.Query{Template: tpl, Conds: []expr.CondInstance{
			{Values: []value.Value{value.Int(i), value.Int(i + 97)}},
			{Values: []value.Value{value.Int(i % 4)}},
		}})
	}
	return eng, tpl, qs
}

// TestPreparedReplans: a view's prepared O3 follows the catalog between
// queries — IndexJoin before the composites exist, KeyJoin after
// CreateIndex builds them (no statistics: b, fewer pages, builds), the
// other build side after Analyze (a scans fewer entries) — and a view
// dropped and created again over another select list plans afresh.
// Every answer equals PlanQuery's.
func TestPreparedReplans(t *testing.T) {
	eng, tpl, qs := replanFixture(t)
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 100, TuplesPerBCP: 2})
	if err != nil {
		t.Fatal(err)
	}
	check := func(phase, wantOp string, wantRight bool) {
		t.Helper()
		for _, q := range qs {
			shape, right, got := preparedAnswer(t, eng, v.o3, q)
			if !strings.HasPrefix(shape, wantOp) || (wantOp == "KeyJoin" && right != wantRight) {
				t.Fatalf("%s: plan\n%s(build right %v), want %s (build right %v)", phase, shape, right, wantOp, wantRight)
			}
			if want := lsAnswer(t, eng, q, v.selectPlus); !slices.Equal(got, want) || len(want) == 0 {
				t.Fatalf("%s: %d rows, PlanQuery %d", phase, len(got), len(want))
			}
			var n int
			if _, err := v.ExecutePartial(q, func(Result) error { n++; return nil }); err != nil {
				t.Fatal(err)
			}
			if want := len(lsAnswer(t, eng, q, v.selectPlus)); n != want {
				t.Fatalf("%s: the view answered %d rows, want %d", phase, n, want)
			}
		}
	}
	check("single-column indexes", "IndexJoin", false)
	if _, err := eng.CreateCoveringIndex("", "a", []string{"c", "k"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateCoveringIndex("", "b", []string{"c", "k"}, []string{"v"}); err != nil {
		t.Fatal(err)
	}
	check("after CreateIndex", "KeyJoin", true)
	if err := eng.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	check("after Analyze", "KeyJoin", false)

	v.Drop()
	tpl2 := *tpl
	tpl2.Select = []expr.ColumnRef{{Rel: "b", Col: "v"}, {Rel: "a", Col: "k"}}
	if v, err = NewView(eng, Config{Template: &tpl2, MaxEntries: 100, TuplesPerBCP: 2}); err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		qs[i] = &expr.Query{Template: &tpl2, Conds: qs[i].Conds}
	}
	check("view created again", "KeyJoin", false)
}

// TestConcurrentPreparedQueries runs queries of one view from several
// goroutines at once — full PMV queries and shard-style plain
// executions, of two binding classes, each goroutine its own values —
// and requires every answer to be its own query's: a prepared plan
// shares its shape, never a binding, a key range or a row. Run it under
// -race.
func TestConcurrentPreparedQueries(t *testing.T) {
	eng, tpl, qs := replanFixture(t)
	if _, err := eng.CreateCoveringIndex("", "a", []string{"c", "k"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateCoveringIndex("", "b", []string{"c", "k"}, []string{"v"}); err != nil {
		t.Fatal(err)
	}
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 100, TuplesPerBCP: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A second class: one value per condition.
	for i := int64(0); i < 4; i++ {
		qs = append(qs, &expr.Query{Template: tpl, Conds: []expr.CondInstance{
			{Values: []value.Value{value.Int(i + 200)}}, {Values: []value.Value{value.Int(3 - i)}},
		}})
	}
	// Each query's answer over Ls′ (plain executions) and over Ls (the
	// view's results).
	want := make([][2][]string, len(qs))
	for i, q := range qs {
		if err := eng.ExecuteProject(q, v.selectPlus, func(tu value.Tuple) error {
			want[i][0] = append(want[i][0], tu.String())
			want[i][1] = append(want[i][1], tu[:v.nUserCols].String())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(want[i][0]) == 0 {
			t.Fatalf("query %d: empty answer; fixture broken", i)
		}
		sort.Strings(want[i][0])
		sort.Strings(want[i][1])
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 30; round++ {
				i := (g + round) % len(qs)
				var got []string
				var err error
				if g%2 == 0 {
					_, err = v.ExecutePartial(qs[i], func(r Result) error {
						got = append(got, r.Tuple.String())
						return nil
					})
				} else {
					_, err = v.ExecutePlainCtx(context.Background(), qs[i], func(tu value.Tuple) error {
						got = append(got, tu.String())
						return nil
					})
				}
				if err != nil {
					errs <- err
					return
				}
				sort.Strings(got)
				if w := want[i][1-g%2]; !slices.Equal(got, w) {
					errs <- fmt.Errorf("goroutine %d, query %d: %d rows, want %d", g, i, len(got), len(w))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestDSKeyIsIdentity pins DS's equality rule across its change of
// codec: two values are one DS key under keycodec exactly when they were
// one under the value codec, and exactly when value.Identical holds —
// -0 is not +0, one NaN payload is not another, Int 5 is not Date 5 —
// although value.Equal calls some of those pairs equal.
func TestDSKeyIsIdentity(t *testing.T) {
	vals := []value.Value{
		value.Null(), value.Int(5), value.Date(5), value.Int(0), value.Bool(false),
		value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(5),
		value.Float(math.Float64frombits(0x7ff8000000000001)), value.Float(math.Float64frombits(0x7ff8000000000abc)),
		value.Str(""), value.Str("\x00"), value.Str("a\x00"), value.Str("a"),
	}
	for _, a := range vals {
		for _, b := range vals {
			key := bytes.Equal(keycodec.AppendTuple(nil, value.Tuple{a}), keycodec.AppendTuple(nil, value.Tuple{b}))
			wire := bytes.Equal(value.EncodeTuple(nil, value.Tuple{a}), value.EncodeTuple(nil, value.Tuple{b}))
			if key != value.Identical(a, b) || wire != key {
				t.Errorf("%v vs %v: keycodec equal %v, value codec equal %v, identical %v", a, b, key, wire, value.Identical(a, b))
			}
		}
	}
	// And through DS itself: a tuple's token is taken by its own
	// encoding, never by an Equal twin.
	ds := newDS()
	defer ds.release()
	ds.add(value.Tuple{value.Float(0), value.Str("a\x00")})
	var buf []byte
	if ds.take(&buf, value.Tuple{value.Float(math.Copysign(0, -1)), value.Str("a\x00")}) {
		t.Fatal("-0 took +0's token")
	}
	if !ds.takeKey(keycodec.AppendTuple(nil, value.Tuple{value.Float(0), value.Str("a\x00")})) || ds.left != 0 {
		t.Fatal("the tuple's own encoding did not take its token")
	}
}
