package exec

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"pmv/internal/catalog"
	"pmv/internal/expr"
	"pmv/internal/value"
)

// exact renders a row bit for bit: type, and a float's bits, so -0 and
// +0, and two NaNs with different payloads, render differently.
func exact(row value.Tuple) string {
	var sb strings.Builder
	for _, v := range row {
		switch v.Type() {
		case value.TypeNull:
			sb.WriteString("null")
		case value.TypeFloat:
			fmt.Fprintf(&sb, "f%x", math.Float64bits(v.Float64()))
		case value.TypeString:
			fmt.Fprintf(&sb, "s%q", v.Str())
		default:
			fmt.Fprintf(&sb, "%d:%d", v.Type(), v.Int64())
		}
		sb.WriteByte('|')
	}
	return sb.String()
}

// exactRows drains it and returns its rows rendered by exact, with the
// columns at the positions in unread set to NULL, sorted.
func exactRows(t *testing.T, it Iterator, unread ...int) []string {
	t.Helper()
	var out []string
	if err := ForEach(it, func(row value.Tuple) error {
		row = slices.Clone(row)
		for _, c := range unread {
			row[c] = value.Null()
		}
		out = append(out, exact(row))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// TestCoveredKeyJoinMatchesHeapAndIndexJoin is the covered path's
// differential test: over values the key encoding treats specially —
// NULL, -0 and +0, NaNs with two payloads, strings holding 0x00, and
// strings too long to carry (stored absent, so read from the heap) —
// a KeyJoin that decodes one or both sides from covering index entries
// returns, bit for bit, the rows of the same join reading the heap and
// of an IndexJoin. The key-only answer is asked with and without the
// residual re-check, so a wrong decode cannot hide behind it.
func TestCoveredKeyJoinMatchesHeapAndIndexJoin(t *testing.T) {
	c := testCatalog(t)
	negZero, nan1, nan2 := math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000abc)
	floats := []value.Value{value.Float(0), value.Float(negZero), value.Float(nan1), value.Float(nan2), value.Float(2.5), value.Null()}
	long := strings.Repeat("long\x00", 20) // 100 bytes: over the cap
	strs := []value.Value{value.Str(""), value.Str("a\x00b"), value.Str("\x00"), value.Str(long), value.Str(long + "!"), value.Null()}
	schema := catalog.NewSchema(catalog.Col("id", value.TypeInt), catalog.Col("c", value.TypeInt),
		catalog.Col("k", value.TypeString), catalog.Col("f", value.TypeFloat), catalog.Col("s", value.TypeString),
		catalog.Col("pad", value.TypeString))
	keys := []value.Value{value.Str("k\x00"), value.Str("k"), value.Str(""), value.Null()}
	type side struct {
		rel            *catalog.Relation
		bare, cov, one *catalog.Index
	}
	mk := func(name string, n int) side {
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
		var s side
		s.rel = r
		if s.bare, err = c.CreateIndex(name+"_c_k", name, "c", "k"); err != nil {
			t.Fatal(err)
		}
		if s.cov, err = c.CreateCoveringIndex(name+"_c_k_id_f_s", name, []string{"c", "k"}, []string{"id", "f", "s"}); err != nil {
			t.Fatal(err)
		}
		if s.one, err = c.CreateIndex(name+"_k", name, "k"); err != nil {
			t.Fatal(err)
		}
		return s
	}
	l, r := mk("l", 90), mk("r", 70)
	read := []bool{true, true, true, true, true, false} // every column but pad
	lc, rc := intsOf(0, 2), intsOf(1, 2)
	ranges := func(ci expr.CondInstance) []KeyRange { return rangesFor(expr.EqualityForm, ci) }
	residual := func(row value.Tuple) bool {
		return lc.Matches(expr.EqualityForm, row[1]) && rc.Matches(expr.EqualityForm, row[7]) && value.Equal(row[2], row[8])
	}
	pads := []int{5, 11} // the covered sides leave pad, which they do not read, NULL

	heap := &KeyJoin{
		Left:  KeySide{Rel: l.rel, Index: l.bare, Ranges: ranges(lc)},
		Right: KeySide{Rel: r.rel, Index: r.bare, Ranges: ranges(rc)},
	}
	want := exactRows(t, heap, pads...)
	ij := &IndexJoin{
		Outer:    &IndexScan{Rel: l.rel, Index: l.cov, Ranges: ranges(lc)},
		OuterCol: 2, Inner: r.rel, InnerIdx: r.one,
		Residual: residual,
	}
	if got := exactRows(t, ij, pads...); !slices.Equal(got, want) {
		t.Fatalf("IndexJoin returned %d rows, the heap KeyJoin %d", len(got), len(want))
	}
	if len(want) < 30 {
		t.Fatalf("%d rows; fixture broken", len(want))
	}
	if !slices.ContainsFunc(want, func(w string) bool { return strings.Contains(w, "long") }) {
		t.Fatal("no over-cap string joined; the absent path is not covered")
	}
	for _, tc := range []struct {
		name        string
		left, right KeySide
	}{
		{"both covered", KeySide{Rel: l.rel, Index: l.cov, Ranges: ranges(lc), Cols: read},
			KeySide{Rel: r.rel, Index: r.cov, Ranges: ranges(rc), Cols: read}},
		{"left covered", KeySide{Rel: l.rel, Index: l.cov, Ranges: ranges(lc), Cols: read},
			KeySide{Rel: r.rel, Index: r.bare, Ranges: ranges(rc), Cols: read}},
		{"right covered", KeySide{Rel: l.rel, Index: l.bare, Ranges: ranges(lc), Cols: read},
			KeySide{Rel: r.rel, Index: r.cov, Ranges: ranges(rc), Cols: read}},
		{"pad read: neither covered", KeySide{Rel: l.rel, Index: l.cov, Ranges: ranges(lc), Cols: []bool{true, true, true, true, true, true}},
			KeySide{Rel: r.rel, Index: r.cov, Ranges: ranges(rc)}},
	} {
		for _, buildRight := range []bool{false, true} {
			for _, res := range []Pred{nil, residual} {
				kj := &KeyJoin{Left: tc.left, Right: tc.right, BuildRight: buildRight, Residual: res}
				if got := exactRows(t, kj, pads...); !slices.Equal(got, want) {
					i := 0
					for i < min(len(got), len(want)) && got[i] == want[i] {
						i++
					}
					t.Errorf("%s, buildRight=%v, residual=%v: %d rows, the heap join %d; first difference at %d",
						tc.name, buildRight, res != nil, len(got), len(want), i)
				}
			}
		}
	}
}

// TestCoveredSideSkipsHeap: with both sides covered and no value over
// the cap, the join reads index pages only; the same join through the
// bare indexes reads the heap for every matched row.
func TestCoveredSideSkipsHeap(t *testing.T) {
	c, pool := testCatalogPool(t)
	var rows []value.Tuple
	for i := 0; i < 300; i++ {
		rows = append(rows, value.Tuple{value.Int(int64(i)), value.Int(int64(i % 5)), value.Int(int64(i % 40))})
	}
	l, r := newKeyJoinSide(t, c, "l", value.TypeInt, rows), newKeyJoinSide(t, c, "r", value.TypeInt, rows)
	ranges := rangesFor(expr.EqualityForm, intsOf(1, 3))
	fetches := func(covered bool) (int64, []string) {
		j := &KeyJoin{Left: l.side(ranges, covered), Right: r.side(ranges, covered)}
		joinedIDs(t, j) // warm
		h0, m0 := pool.Stats()
		ids := joinedIDs(t, j)
		h1, m1 := pool.Stats()
		return h1 + m1 - h0 - m0, ids
	}
	heapFetches, want := fetches(false)
	covFetches, got := fetches(true)
	if !slices.Equal(got, want) || len(want) < 100 {
		t.Fatalf("covered join: %d pairs, heap join %d", len(got), len(want))
	}
	if covFetches > 16 || heapFetches < int64(len(want)) {
		t.Errorf("covered join fetched %d pages, heap join %d for %d rows", covFetches, heapFetches, len(want))
	}
}
