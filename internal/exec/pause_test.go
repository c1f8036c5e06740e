package exec

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"pmv/internal/btree"
	"pmv/internal/catalog"
	"pmv/internal/expr"
	"pmv/internal/keycodec"
	"pmv/internal/value"
)

// newPaddedSide is newKeyJoinSide over rows (id, c, k, pad): the bare
// index is (c, k, pad), whose entries carry the pad in full, and the
// covering one (c, k) carries id and pad (a pad over catalog.CoveredCap
// stored absent). Wide pads make one condition value's run of entries
// span several leaves.
func newPaddedSide(t testing.TB, c *catalog.Catalog, name string, kType value.Type, rows []value.Tuple) keyJoinSide {
	t.Helper()
	r, err := c.CreateRelation(name, catalog.NewSchema(
		catalog.Col("id", value.TypeInt), catalog.Col("c", value.TypeInt), catalog.Col("k", kType),
		catalog.Col("pad", value.TypeString)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range rows {
		if _, err := r.Heap.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := c.CreateIndex(name+"_c_k_pad", name, "c", "k", "pad")
	if err != nil {
		t.Fatal(err)
	}
	cov, err := c.CreateCoveringIndex(name+"_c_k_id_pad", name, []string{"c", "k"}, []string{"id", "pad"})
	if err != nil {
		t.Fatal(err)
	}
	return keyJoinSide{rel: r, ix: ix, cov: cov, rows: rows}
}

// walkOrder is the order one unpaused walk of j's indexes returns the
// join's pairs in, as "left id,right id": the probe side's entries in
// scan order, range by range, and for each the build side's entries of
// its join key newest first, the order of a keyTable chain. It reads
// the indexes with Tree.Scan and the ids from the heap.
func walkOrder(t testing.TB, j *KeyJoin) []string {
	t.Helper()
	build, probe := &j.Left, &j.Right
	if j.BuildRight {
		build, probe = probe, build
	}
	keyAndID := func(s *KeySide, e []byte) (string, int64) {
		lead, err := keycodec.Skip(e)
		if err != nil {
			t.Fatal(err)
		}
		n, err := keycodec.Skip(e[lead:])
		if err != nil {
			t.Fatal(err)
		}
		row, err := s.Rel.Heap.Get(entryRID(e))
		if err != nil {
			t.Fatal(err)
		}
		return string(e[lead : lead+n]), row[0].Int64()
	}
	type built struct {
		key string
		id  int64
	}
	var table []built
	for _, r := range build.Ranges {
		if err := build.Index.Tree.Scan(r.Lo, r.Hi, func(e []byte) error {
			k, id := keyAndID(build, e)
			table = append(table, built{k, id})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	var out []string
	for _, r := range probe.Ranges {
		if err := probe.Index.Tree.Scan(r.Lo, r.Hi, func(e []byte) error {
			k, id := keyAndID(probe, e)
			for i := len(table) - 1; i >= 0; i-- {
				if table[i].key != k {
					continue
				}
				l, r := table[i].id, id
				if j.BuildRight {
					l, r = r, l
				}
				out = append(out, fmt.Sprintf("%d,%d", l, r))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// joinedInOrder drains j and returns its pairs as "left id,right id",
// in the order Next returned them.
func joinedInOrder(t testing.TB, j *KeyJoin) []string {
	t.Helper()
	var out []string
	nl := len(j.Left.Rel.Schema.Columns)
	if err := ForEach(j, func(row value.Tuple) error {
		out = append(out, fmt.Sprintf("%d,%d", row[0].Int64(), row[nl].Int64()))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// leaves counts the leaves a walk of ranges visits.
func leaves(t testing.TB, s *KeySide) int {
	t.Helper()
	n := 0
	for _, r := range s.Ranges {
		if err := s.Index.Tree.Walk(r.Lo, r.Hi, func(btree.Leaf) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// pauseFixture is a small side of ten rows and a big one of 1,200 with
// 50-byte pads, short enough to be covered, all at c = 0, the big side's keys distinct: its c = 0
// run spans many leaves, and its first leaf holds key 0, which the
// small side joins, as it joins keys 600 and 1,199 further on.
func pauseFixture(t testing.TB, c *catalog.Catalog) (small, big keyJoinSide) {
	t.Helper()
	pad := strings.Repeat("p", 50)
	var sRows, bRows []value.Tuple
	for i, k := range []int64{0, 600, 1199, 5000, 0, 600, 7000, 8000, 9000, 1199} {
		sRows = append(sRows, value.Tuple{value.Int(int64(i)), value.Int(0), value.Int(k), value.Str(pad)})
	}
	for i := 0; i < 1200; i++ {
		bRows = append(bRows, value.Tuple{value.Int(int64(i)), value.Int(0), value.Int(int64(i)), value.Str(pad)})
	}
	return newPaddedSide(t, c, "small", value.TypeInt, sRows), newPaddedSide(t, c, "big", value.TypeInt, bRows)
}

// TestKeyJoinFirstRowEarly: with a probe run of many leaves whose first
// leaf holds a match, Open and the first Next read the build side's
// pages, one descent of the probe tree and at most one probe leaf more,
// not the probe run; the drained join then returns the unpaused walk's
// pairs in its order. Both sides are read through their indexes, the
// big one building and probing in turn.
func TestKeyJoinFirstRowEarly(t *testing.T) {
	c, pool := testCatalogPool(t)
	small, big := pauseFixture(t, c)
	eq0 := rangesFor(expr.EqualityForm, intsOf(0))
	fetches := func() int64 { h, m := pool.Stats(); return h + m }
	for _, covered := range []bool{true, false} {
		for _, buildRight := range []bool{false, true} {
			j := &KeyJoin{Left: small.side(eq0, covered), Right: big.side(eq0, covered), BuildRight: buildRight}
			if buildRight {
				j.Left, j.Right = big.side(eq0, covered), small.side(eq0, covered)
			}
			build, probe := &j.Left, &j.Right
			if buildRight {
				build, probe = probe, build
			}
			if n := leaves(t, probe); n < 4 {
				t.Fatalf("probe run spans %d leaves; the fixture needs 4", n)
			}
			before := fetches()
			for _, r := range build.Ranges {
				if err := build.Index.Tree.Walk(r.Lo, r.Hi, func(btree.Leaf) error { return nil }); err != nil {
					t.Fatal(err)
				}
			}
			buildPages := fetches() - before
			height, err := probe.Index.Tree.Height()
			if err != nil {
				t.Fatal(err)
			}
			// An uncovered side reads its two heap rows for the first row.
			heap := int64(0)
			if !covered {
				heap = 2
			}
			before = fetches()
			if err := j.Open(); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := j.Next(); err != nil || !ok {
				t.Fatalf("first Next: %v, %v", ok, err)
			}
			if got, most := fetches()-before, buildPages+int64(height)+1+heap; got > most {
				t.Errorf("covered=%v buildRight=%v: %d fetches to the first row, want at most %d (build %d, descent %d, one leaf, heap %d)",
					covered, buildRight, got, most, buildPages, height, heap)
			}
			j.Close()
			want := walkOrder(t, j)
			if len(want) != 6 {
				t.Fatalf("fixture broken: %d pairs, want 6", len(want))
			}
			if got := joinedInOrder(t, j); !slices.Equal(got, want) {
				t.Errorf("covered=%v buildRight=%v: pairs %v, unpaused walk %v", covered, buildRight, got, want)
			}
		}
	}
}

// TestKeyJoinPausedOrder: a join that pauses returns the unpaused
// walk's pairs in its order every time: run again on the pooled table,
// after a Close between the pause and the resume, and after its ranges
// are rebound the way a prepared plan rebinds them (one range or
// several; the pause in a range's middle, at its last leaf, or in a
// later range).
func TestKeyJoinPausedOrder(t *testing.T) {
	c := testCatalog(t)
	small, big := pauseFixture(t, c)
	eq := func(vs ...int64) []KeyRange { return rangesFor(expr.EqualityForm, intsOf(vs...)) }
	rangeSets := [][]KeyRange{eq(0), eq(3, 0), eq(0, 3), eq(3), rangesFor(expr.IntervalForm, ivsOf(-5, 2))}
	for _, covered := range []bool{true, false} {
		for _, buildRight := range []bool{false, true} {
			j := &KeyJoin{Left: small.side(eq(0), covered), Right: big.side(eq(0), covered), BuildRight: buildRight}
			probe := &j.Right
			if buildRight {
				j.Left, j.Right = big.side(eq(0), covered), small.side(eq(0), covered)
				probe = &j.Left
			}
			for round := 0; round < 2; round++ {
				for i, rs := range rangeSets {
					probe.Ranges = rs
					want := walkOrder(t, j)
					// Stop after the first row, paused, and start over.
					if err := j.Open(); err != nil {
						t.Fatal(err)
					}
					if len(want) > 0 {
						if _, ok, err := j.Next(); err != nil || !ok {
							t.Fatalf("first Next: %v, %v", ok, err)
						}
					}
					j.Close()
					if got := joinedInOrder(t, j); !slices.Equal(got, want) {
						t.Errorf("covered=%v buildRight=%v ranges #%d round %d: pairs %v, unpaused walk %v",
							covered, buildRight, i, round, got, want)
					}
				}
			}
		}
	}
}

// TestPreparedPausedRebind: a prepared key-only plan whose join pauses
// returns, after a run of one query, the rows a bound plan that never
// ran returns for the next, in the same order.
func TestPreparedPausedRebind(t *testing.T) {
	db := newDiffDB(t)
	tpl := diffTemplate(expr.IntervalForm, expr.IntervalForm, false)
	queries := []*expr.Query{
		{Template: tpl, Conds: []expr.CondInstance{ivsOf(2, 5, 7, 9), ivsOf(0, 3, 4, 6)}},
		{Template: tpl, Conds: []expr.CondInstance{ivsOf(0, 2, 20, 24), ivsOf(1, 4, 30, 33)}},
		{Template: tpl, Conds: []expr.CondInstance{ivsOf(10, 11, 12, 13), ivsOf(0, 1, 35, 36)}},
	}
	// run binds q on pp, runs it, and returns its rows in order and
	// whether its join was paused when the first row came out.
	run := func(pp *Prepared, q *expr.Query) (rows []string, paused bool) {
		b, err := pp.Bind(q)
		if err != nil {
			t.Fatal(err)
		}
		kj := b.keyJoin
		if kj == nil {
			t.Fatalf("no KeyJoin planned:\n%s", b.Plan)
		}
		if _, err := b.Run(context.Background(), nil, func(row value.Tuple) error {
			if rows == nil {
				paused = len(kj.resume) > 0
			}
			rows = append(rows, exact(row))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return rows, paused
	}
	pp := NewPrepared(db.cats[0], tpl, tpl.Select)
	pausedAny := false
	for round := 0; round < 2; round++ {
		for i, q := range queries {
			got, paused := run(pp, q)
			pausedAny = pausedAny || paused
			// A fresh plan of the same class, costed on the same first
			// query, bound to q and never run before.
			fresh := NewPrepared(db.cats[0], tpl, tpl.Select)
			b, err := fresh.Bind(queries[0])
			if err != nil {
				t.Fatal(err)
			}
			b.Release()
			want, _ := run(fresh, q)
			if len(want) == 0 {
				t.Fatalf("query %d: empty answer; fixture broken", i)
			}
			if !slices.Equal(got, want) {
				t.Errorf("round %d query %d: %d rows, a fresh plan %d, or in another order", round, i, len(got), len(want))
			}
		}
	}
	if !pausedAny {
		t.Fatal("no run paused its probe walk; the test covers nothing")
	}
}
