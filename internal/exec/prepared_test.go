package exec

import (
	"context"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"pmv/internal/catalog"
	"pmv/internal/expr"
	"pmv/internal/keycodec"
	"pmv/internal/value"
)

// boundOver wraps plan, narrowed to cols, as a Bound of its own; Run
// pools it into a shape no one else reads.
func boundOver(plan *Plan, cols []int) *Bound {
	if plan.bind == nil {
		plan.bind = &binding{}
	}
	plan.Narrow(cols)
	return &Bound{Plan: plan, sh: &shape{}, proj: cols, out: make(value.Tuple, len(cols))}
}

// runBound runs b with dedup and returns its rows rendered by exact.
func runBound(t *testing.T, b *Bound, dedup Dedup) []string {
	t.Helper()
	var out []string
	if _, err := b.Run(context.Background(), dedup, func(row value.Tuple) error {
		out = append(out, exact(row))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// tokens is a DS stand-in: a multiset of encoded rows.
type tokens map[string]int

func (ds tokens) take(k []byte) bool {
	if ds[string(k)] > 0 {
		ds[string(k)]--
		return true
	}
	return false
}

func (ds tokens) left() int {
	n := 0
	for _, c := range ds {
		n += c
	}
	return n
}

// TestIdenticalValuesAreEqual is why Narrow may drop the checks a
// covered key-only join's entries prove: a value decoded from a key is
// bit for bit the value the key was made from, and value.Equal holds
// between identical values — NaN equals NaN, -0 equals -0, NULL equals
// NULL — so an equality condition whose range fixed the lead column,
// and a join of byte-equal keys, cannot fail on a covered row.
func TestIdenticalValuesAreEqual(t *testing.T) {
	vals := []value.Value{
		value.Null(), value.Int(0), value.Int(-7), value.Date(20454), value.Bool(true),
		value.Float(0), value.Float(math.Copysign(0, -1)),
		value.Float(math.Float64frombits(0x7ff8000000000001)), value.Float(math.Float64frombits(0xfff8000000000abc)),
		value.Float(math.Inf(-1)), value.Str(""), value.Str("a\x00b"), value.Str("\x00\xff"),
	}
	for _, v := range vals {
		enc := keycodec.AppendValue(nil, v)
		dec, n, err := keycodec.DecodeValue(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("%v: decoded %d of %d bytes: %v", v, n, len(enc), err)
		}
		if !value.Identical(dec, v) || !value.Equal(dec, v) {
			t.Errorf("%v decodes to %v: identical %v, equal %v", v, dec, value.Identical(dec, v), value.Equal(dec, v))
		}
		ci := expr.CondInstance{Values: []value.Value{v}}
		if !ci.Matches(expr.EqualityForm, dec) {
			t.Errorf("equality condition on %v rejects its own decoded value", v)
		}
	}
}

// TestNarrowDropsProvenChecks: over covering composites, narrowing a
// T1-shaped key-only plan drops the residual of an equality template
// and keeps the checks no entry proves — an interval condition, a fixed
// predicate — and the dropped plan answers as a nested loop does.
func TestNarrowDropsProvenChecks(t *testing.T) {
	c := testCatalog(t)
	var lRows, rRows []value.Tuple
	for i := 0; i < 300; i++ {
		lRows = append(lRows, value.Tuple{value.Int(int64(i)), value.Int(int64(i % 7)), value.Int(int64(i % 50))})
		rRows = append(rRows, value.Tuple{value.Int(int64(i)), value.Int(int64(i % 5)), value.Int(int64(i % 60))})
	}
	l := newKeyJoinSide(t, c, "l", value.TypeInt, lRows)
	r := newKeyJoinSide(t, c, "r", value.TypeInt, rRows)
	tpl := func(lForm expr.CondForm, fixed bool) *expr.Template {
		tp := &expr.Template{
			Name: "t1", Relations: []string{"l", "r"},
			Select: []expr.ColumnRef{ref("l", "id"), ref("r", "id"), ref("l", "c"), ref("r", "c")},
			Join:   []expr.JoinPred{{Left: ref("l", "k"), Right: ref("r", "k")}},
			Conds:  []expr.CondTemplate{{Col: ref("l", "c"), Form: lForm}, {Col: ref("r", "c"), Form: expr.EqualityForm}},
		}
		if fixed {
			tp.Fixed = []expr.FixedPred{{Col: ref("r", "id"), Op: expr.OpLt, Val: value.Int(200)}}
		}
		return tp
	}
	for _, tc := range []struct {
		name  string
		q     *expr.Query
		resid bool
	}{
		{"equality", &expr.Query{Template: tpl(expr.EqualityForm, false), Conds: []expr.CondInstance{intsOf(1, 3), intsOf(2, 4)}}, false},
		{"interval", &expr.Query{Template: tpl(expr.IntervalForm, false), Conds: []expr.CondInstance{ivsOf(1, 3), intsOf(2, 4)}}, true},
		{"fixed", &expr.Query{Template: tpl(expr.EqualityForm, true), Conds: []expr.CondInstance{intsOf(1, 3), intsOf(2, 4)}}, true},
	} {
		plan, err := PlanQuery(c, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(plan.String(), "KeyJoin l via l_c_k_id, r via r_c_k_id") {
			t.Fatalf("%s: plan\n%s", tc.name, plan)
		}
		cols := make([]int, len(tc.q.Template.Select))
		for i, ref := range tc.q.Template.Select {
			cols[i], _ = plan.Schema.MustIndex(ref)
		}
		plan.Narrow(cols)
		if got := plan.keyJoin.Residual != nil; got != tc.resid {
			t.Errorf("%s: residual kept %v, want %v", tc.name, got, tc.resid)
		}
		var got, want []string
		if err := ForEach(&Project{Child: plan.Root, Cols: cols}, func(row value.Tuple) error {
			got = append(got, row.String())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for _, lt := range l.rows {
			for _, rt := range r.rows {
				if tc.q.Conds[0].Matches(tc.q.Template.Conds[0].Form, lt[1]) && tc.q.Conds[1].Matches(expr.EqualityForm, rt[1]) &&
					value.Equal(lt[2], rt[2]) && (tc.q.Template.Fixed == nil || rt[0].Int64() < 200) {
					want = append(want, value.Tuple{lt[0], rt[0], lt[1], rt[1]}.String())
				}
			}
		}
		sort.Strings(got)
		sort.Strings(want)
		if len(want) == 0 || !slices.Equal(got, want) {
			t.Errorf("%s: %d rows, nested loop %d", tc.name, len(got), len(want))
		}
	}
}

// TestDedupBytePathMatchesDecodePath: over the values the key encoding
// treats specially — NULL, -0 and +0, NaNs with two payloads, strings
// holding 0x00, and strings too long to carry (stored absent) — a DS
// check asked from the entries' bytes takes exactly the rows a check
// asked from the decoded rows takes. DS holds half the answer's rows
// and, for rows with a float 0 or a NaN, twins that differ only in the
// zero's sign or the NaN's payload; no twin may be taken.
func TestDedupBytePathMatchesDecodePath(t *testing.T) {
	c := testCatalog(t)
	negZero, nan1, nan2 := math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000abc)
	floats := []value.Value{value.Float(0), value.Float(negZero), value.Float(nan1), value.Float(nan2), value.Float(2.5), value.Null()}
	long := strings.Repeat("long\x00", 20) // over the cap: stored absent
	strs := []value.Value{value.Str(""), value.Str("a\x00b"), value.Str(long), value.Null()}
	keys := []value.Value{value.Str("k\x00"), value.Str("k"), value.Null()}
	schema := catalog.NewSchema(catalog.Col("id", value.TypeInt), catalog.Col("c", value.TypeInt),
		catalog.Col("k", value.TypeString), catalog.Col("f", value.TypeFloat), catalog.Col("s", value.TypeString),
		catalog.Col("pad", value.TypeString))
	side := func(name string, n int) KeySide {
		r, err := c.CreateRelation(name, schema)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			tup := value.Tuple{value.Int(int64(i)), value.Int(int64(i % 3)), keys[i%len(keys)],
				floats[i%len(floats)], strs[(i/2)%len(strs)], value.Str("pad")}
			if _, err := r.Heap.Insert(tup); err != nil {
				t.Fatal(err)
			}
		}
		ix, err := c.CreateCoveringIndex(name+"_cov", name, []string{"c", "k"}, []string{"id", "f", "s"})
		if err != nil {
			t.Fatal(err)
		}
		return KeySide{Rel: r, Index: ix, Ranges: rangesFor(expr.EqualityForm, intsOf(0, 2))}
	}
	ls, rs := side("l", 60), side("r", 50)
	// Every column but the pads, in an order unlike the rows'.
	cols := []int{8, 0, 3, 9, 1, 2, 10, 4, 6, 7}
	run := func(bytePath bool, dedup Dedup) []string {
		kj := &KeyJoin{Left: ls, Right: rs}
		b := boundOver(&Plan{Root: kj, keyJoin: kj}, cols)
		if kj.segs == nil {
			t.Fatal("Narrow set no key segments for two covered sides")
		}
		if !bytePath {
			kj.segs = nil
		}
		return runBound(t, b, dedup)
	}
	all := run(true, nil)
	if decoded := run(false, nil); !slices.Equal(all, decoded) || len(all) < 40 {
		t.Fatalf("without DS the paths return %d and %d rows", len(all), len(decoded))
	}
	// DS over the decode path's rows, rebuilt from the rendering's
	// source: run once more and keep the rows themselves.
	var rows []value.Tuple
	kj := &KeyJoin{Left: ls, Right: rs}
	if _, err := boundOver(&Plan{Root: kj, keyJoin: kj}, cols).Run(context.Background(), nil, func(row value.Tuple) error {
		rows = append(rows, row.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Slice(rows, func(i, j int) bool { return exact(rows[i]) < exact(rows[j]) })
	fill := func() (tokens, []string, int) {
		ds, twins := tokens{}, 0
		var want []string
		tookLong := false
		for i, row := range rows {
			if i%2 == 1 {
				want = append(want, exact(row))
				continue
			}
			ds[string(keycodec.AppendTuple(nil, row))]++
			tookLong = tookLong || strings.Contains(exact(row), "long")
			for p, v := range row {
				if v.Type() != value.TypeFloat {
					continue
				}
				twin := row.Clone()
				switch f := v.Float64(); {
				case math.IsNaN(f):
					twin[p] = value.Float(math.Float64frombits(math.Float64bits(f) ^ 0xabc ^ 1))
				case f == 0:
					twin[p] = value.Float(-f)
				default:
					continue
				}
				ds[string(keycodec.AppendTuple(nil, twin))]++
				twins++
			}
		}
		if !tookLong || twins == 0 {
			t.Fatalf("DS holds no absent value (%v) or no twin (%d); fixture broken", tookLong, twins)
		}
		sort.Strings(want)
		return ds, want, twins
	}
	for _, bytePath := range []bool{true, false} {
		ds, want, twins := fill()
		if got := run(bytePath, ds.take); !slices.Equal(got, want) {
			t.Errorf("byte path %v: %d rows, want %d", bytePath, len(got), len(want))
		}
		if ds.left() != twins {
			t.Errorf("byte path %v: %d tokens left, want the %d twins'", bytePath, ds.left(), twins)
		}
	}
}

// TestDuplicateRowAllocs pins what a duplicate O3 row costs: a prepared
// key-only plan whose every row DS takes allocates nothing, although
// each fresh row decodes two strings.
func TestDuplicateRowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random; allocation counts do not repeat")
	}
	c := testCatalog(t)
	var rows []value.Tuple
	for i := 0; i < 200; i++ {
		rows = append(rows, value.Tuple{value.Int(int64(i)), value.Int(int64(i % 4)), value.Str(strings.Repeat("k", 1+i%30))})
	}
	l := newKeyJoinSide(t, c, "l", value.TypeString, rows)
	r := newKeyJoinSide(t, c, "r", value.TypeString, rows)
	ranges := rangesFor(expr.EqualityForm, intsOf(1, 2))
	kj := &KeyJoin{Left: l.side(ranges, true), Right: r.side(ranges, true)}
	b := boundOver(&Plan{Root: kj, keyJoin: kj}, []int{0, 3, 1, 4, 2, 5})
	if kj.segs == nil {
		t.Fatal("no byte path: Narrow set no key segments")
	}
	var seen int
	count := func(value.Tuple) error { seen++; return nil }
	every := func([]byte) bool { return true }
	none := func([]byte) bool { return false }
	run := func(dedup Dedup) {
		if _, err := b.Run(context.Background(), dedup, count); err != nil {
			t.Fatal(err)
		}
	}
	run(none)
	n := seen
	seen = 0
	if n < 50 {
		t.Fatalf("%d rows; fixture broken", n)
	}
	if fresh := testing.AllocsPerRun(20, func() { run(none) }); fresh < float64(n) {
		t.Fatalf("%v allocs for %d fresh rows; the fixture's rows should decode strings", fresh, n)
	}
	seen = 0
	if dups := testing.AllocsPerRun(20, func() { run(every) }); dups != 0 || seen != 0 {
		t.Fatalf("every row a duplicate: %v allocs, %d rows reached the caller; want 0 and 0", dups, seen)
	}
}
