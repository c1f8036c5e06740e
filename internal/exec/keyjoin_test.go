package exec

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"pmv/internal/btree"
	"pmv/internal/catalog"
	"pmv/internal/expr"
	"pmv/internal/keycodec"
	"pmv/internal/storage"
	"pmv/internal/value"
)

// keyJoinSide is one relation of the KeyJoin fixtures: id, condition
// column c, join column k, with the composite index (c, k) and the
// covering one (c, k) carrying id.
type keyJoinSide struct {
	rel     *catalog.Relation
	ix, cov *catalog.Index
	rows    []value.Tuple
}

func newKeyJoinSide(t testing.TB, c *catalog.Catalog, name string, kType value.Type, rows []value.Tuple) keyJoinSide {
	t.Helper()
	r, err := c.CreateRelation(name, catalog.NewSchema(
		catalog.Col("id", value.TypeInt), catalog.Col("c", value.TypeInt), catalog.Col("k", kType)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range rows {
		if _, err := r.Heap.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := c.CreateIndex(name+"_c_k", name, "c", "k")
	if err != nil {
		t.Fatal(err)
	}
	cov, err := c.CreateCoveringIndex(name+"_c_k_id", name, []string{"c", "k"}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	return keyJoinSide{rel: r, ix: ix, cov: cov, rows: rows}
}

// side returns a KeySide over ranges: through the covering index with
// every column marked read when covered, so the join decodes it from
// the entries, else through the bare (c, k) index and the heap.
func (s keyJoinSide) side(ranges []KeyRange, covered bool) KeySide {
	if covered {
		return KeySide{Rel: s.rel, Index: s.cov, Ranges: ranges, Cols: []bool{true, true, true}}
	}
	return KeySide{Rel: s.rel, Index: s.ix, Ranges: ranges}
}

// joinedIDs drains j and returns its output as sorted "left id,right
// id" pairs; each side's id is its row's first column.
func joinedIDs(t testing.TB, j *KeyJoin) []string {
	t.Helper()
	var out []string
	nl := len(j.Left.Rel.Schema.Columns)
	err := ForEach(j, func(row value.Tuple) error {
		out = append(out, fmt.Sprintf("%d,%d", row[0].Int64(), row[nl].Int64()))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// randomCond draws a condition on c over [-1, dom]: distinct values for
// the equality form, disjoint intervals with random inclusive ends for
// the interval form — the shapes O1 hands the planner.
func randomCond(rng *rand.Rand, form expr.CondForm, dom int) expr.CondInstance {
	var ci expr.CondInstance
	n := rng.Intn(4)
	if form == expr.EqualityForm {
		for _, v := range rng.Perm(dom + 2)[:min(n, dom+2)] {
			ci.Values = append(ci.Values, value.Int(int64(v-1)))
		}
		return ci
	}
	bounds := rng.Perm(dom + 3)[:min(2*n, dom+3)]
	sort.Ints(bounds)
	for i := 0; i+1 < len(bounds); i += 2 {
		ci.Intervals = append(ci.Intervals, expr.Interval{
			Lo: value.Int(int64(bounds[i] - 1)), Hi: value.Int(int64(bounds[i+1] - 1)),
			LoIncl: rng.Intn(2) == 0, HiIncl: rng.Intn(2) == 0})
	}
	return ci
}

// FuzzKeyJoin holds KeyJoin to a nested loop over the same rows: two
// relations of up to 255 rows whose join keys, ints or strings of
// several lengths, repeat on both sides, equality or interval ranges on
// each side's condition column (including ranges no row falls in), and
// either side as the build side, and either side covered (bit 0 of
// cover the left, bit 1 the right: its rows decoded from the index
// entries) or read from the heap. The answer is compared as a multiset
// of (left id, right id) pairs. With ds set, the join also runs as a
// prepared plan's root with a DS check: DS holds about ds/256 of the
// answer's rows and a row the answer lacks, and the run must return the
// answer less exactly DS's rows, each taken once — from the entries'
// bytes when both sides are covered, from the decoded row otherwise.
func FuzzKeyJoin(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(60), uint8(8), uint8(4), false, false, false, uint8(0), uint8(0))
	f.Add(int64(2), uint8(0), uint8(30), uint8(5), uint8(3), true, false, true, uint8(1), uint8(128))
	f.Add(int64(3), uint8(25), uint8(0), uint8(5), uint8(3), false, true, false, uint8(2), uint8(255))
	f.Add(int64(4), uint8(90), uint8(70), uint8(1), uint8(2), true, true, true, uint8(3), uint8(64))
	// Many to many: about 240 entries a side over 80 keys, so the build
	// table's slot chains hold several distinct keys as well as runs of
	// one key.
	f.Add(int64(5), uint8(240), uint8(240), uint8(80), uint8(0), false, false, false, uint8(0), uint8(200))
	f.Add(int64(6), uint8(240), uint8(240), uint8(80), uint8(0), false, true, true, uint8(3), uint8(255))
	// Seed 5's draws, which join hundreds of pairs, with covered sides.
	f.Add(int64(5), uint8(240), uint8(240), uint8(80), uint8(0), false, true, false, uint8(1), uint8(0))
	f.Add(int64(5), uint8(240), uint8(240), uint8(80), uint8(0), false, false, true, uint8(2), uint8(96))
	f.Add(int64(5), uint8(240), uint8(240), uint8(80), uint8(0), false, true, true, uint8(3), uint8(160))
	f.Fuzz(func(t *testing.T, seed int64, nl, nr, keys, conds uint8, interval, buildRight, strKeys bool, cover, ds uint8) {
		rng := rand.New(rand.NewSource(seed))
		keyDom, condDom := 1+int(keys)%120, 1+int(conds)%10
		kType := value.TypeInt
		joinKey := func() value.Value { return value.Int(int64(rng.Intn(keyDom))) }
		if strKeys {
			kType = value.TypeString
			joinKey = func() value.Value {
				k := rng.Intn(keyDom)
				return value.Str(fmt.Sprintf("%0*d", 1+k%7, k))
			}
		}
		rows := func(n uint8) []value.Tuple {
			out := make([]value.Tuple, n)
			for i := range out {
				out[i] = value.Tuple{value.Int(int64(i)), value.Int(int64(rng.Intn(condDom))), joinKey()}
			}
			return out
		}
		c := testCatalog(t)
		l := newKeyJoinSide(t, c, "l", kType, rows(nl))
		r := newKeyJoinSide(t, c, "r", kType, rows(nr))
		form := expr.EqualityForm
		if interval {
			form = expr.IntervalForm
		}
		lc, rc := randomCond(rng, form, condDom), randomCond(rng, form, condDom)

		j := &KeyJoin{
			Left:       l.side(rangesFor(form, lc), cover&1 != 0),
			Right:      r.side(rangesFor(form, rc), cover&2 != 0),
			BuildRight: buildRight,
		}
		got := joinedIDs(t, j)
		var want []string
		for _, lt := range l.rows {
			if !lc.Matches(form, lt[1]) {
				continue
			}
			for _, rt := range r.rows {
				if rc.Matches(form, rt[1]) && value.Equal(lt[2], rt[2]) {
					want = append(want, fmt.Sprintf("%d,%d", lt[0].Int64(), rt[0].Int64()))
				}
			}
		}
		sort.Strings(want)
		if !slices.Equal(got, want) {
			t.Fatalf("KeyJoin returned %d pairs, nested loop %d\nleft %+v\nright %+v", len(got), len(want), lc, rc)
		}
		// Each joined row is its two source rows, however its sides were
		// read.
		lw := len(l.rel.Schema.Columns)
		err := ForEach(j, func(row value.Tuple) error {
			src := append(slices.Clone(l.rows[row[0].Int64()]), r.rows[row[lw].Int64()]...)
			for i, v := range src {
				if !value.Identical(row[i], v) {
					return fmt.Errorf("joined row %v, column %d: want %v", row, i, v)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if ds != 0 {
			checkDedup(t, j, rng, ds)
		}
	})
}

// checkDedup runs j as the root of a plan projecting every column, with
// a DS check over a random share (share/256) of its answer's rows plus
// a row it does not return, and requires the answer less exactly those
// rows, each taken once, and the absent row's token left.
func checkDedup(t *testing.T, j *KeyJoin, rng *rand.Rand, share uint8) {
	t.Helper()
	n := len(j.Left.Rel.Schema.Columns) + len(j.Right.Rel.Schema.Columns)
	cols := make([]int, n)
	for i := range cols {
		cols[i] = n - 1 - i // a projection order unlike the row's
	}
	plan := &Plan{Root: j, keyJoin: j, bind: &binding{}}
	plan.Narrow(cols)
	project := func(row value.Tuple) value.Tuple {
		out := make(value.Tuple, len(cols))
		for i, c := range cols {
			out[i] = row[c]
		}
		return out
	}
	var all []value.Tuple
	if err := ForEach(j, func(row value.Tuple) error { all = append(all, project(row)); return nil }); err != nil {
		t.Fatal(err)
	}
	tokens := map[string]int{}
	var want []string
	for _, row := range all {
		if rng.Intn(256) < int(share) {
			tokens[string(keycodec.AppendTuple(nil, row))]++
		} else {
			want = append(want, exact(row))
		}
	}
	miss := make(value.Tuple, n)
	miss[0] = value.Str("not in any answer")
	tokens[string(keycodec.AppendTuple(nil, miss))]++
	dedup := func(k []byte) bool {
		if tokens[string(k)] > 0 {
			tokens[string(k)]--
			return true
		}
		return false
	}
	var got []string
	b := &Bound{Plan: plan, sh: &shape{}, proj: cols, out: make(value.Tuple, len(cols))}
	if _, err := b.Run(context.Background(), dedup, func(row value.Tuple) error {
		got = append(got, exact(row))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Fatalf("with DS (byte path %v): %d rows, want %d", j.segs != nil, len(got), len(want))
	}
	left := 0
	for _, c := range tokens {
		left += c
	}
	if left != 1 {
		t.Fatalf("%d DS tokens left, want the absent row's 1", left)
	}
}

// TestKeyTableChains: with as many distinct keys as entries, some slot
// chain holds more than one distinct key, and walking a key's chain
// with the byte compare, as KeyJoin.Open does, still finds exactly each
// key's entries — the byte compare, not the slot, decides.
func TestKeyTableChains(t *testing.T) {
	var tbl keyTable
	want := map[string][]storage.RID{}
	for i := 0; i < 2000; i++ {
		k := keycodec.AppendValue(nil, value.Int(int64(i/2)))
		rid := storage.RID{Page: storage.PageID(i), Slot: uint16(i)}
		tbl.add(btree.PackRID(k, rid), 0, len(k))
		want[string(k)] = append(want[string(k)], rid)
	}
	tbl.link()
	shared := 0
	for _, head := range tbl.slots {
		var first []byte
		for b := head; b != 0; b = tbl.ents[b-1].next {
			if k := tbl.joinKey(&tbl.ents[b-1]); first == nil {
				first = k
			} else if !bytes.Equal(k, first) {
				shared++
				break
			}
		}
	}
	if shared == 0 {
		t.Fatal("no slot chain holds two distinct keys; the test covers nothing")
	}
	for k, rids := range want {
		var got []storage.RID
		for b := tbl.chain([]byte(k)); b != 0; b = tbl.ents[b-1].next {
			if e := &tbl.ents[b-1]; bytes.Equal(tbl.joinKey(e), []byte(k)) {
				got = append(got, entryRID(tbl.entry(e)))
			}
		}
		slices.Reverse(got) // chains list a key's entries newest first
		if !slices.Equal(got, rids) {
			t.Fatalf("key %x: chain %v, want %v", k, got, rids)
		}
	}
	absent, none := keycodec.AppendValue(nil, value.Int(-5)), 0
	for b := tbl.chain(absent); b != 0; b = tbl.ents[b-1].next {
		if bytes.Equal(tbl.joinKey(&tbl.ents[b-1]), absent) {
			none++
		}
	}
	if none != 0 {
		t.Fatalf("absent key matched %d entries", none)
	}
}

// TestKeyJoinAllocs pins the key-only join's allocations: opening and
// draining a join allocates a constant, however many index entries it
// scans and rows it joins, whether it reads the heap or decodes covered
// sides (all ints here) from the entries — Next reuses one row. Widening
// either side's range 4× over entries that join nothing keeps the
// answer and must keep the allocation count.
func TestKeyJoinAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random; allocation counts do not repeat")
	}
	c := testCatalog(t)
	rng := rand.New(rand.NewSource(3))
	// l.c in [0, 10) joins on k in [0, 50); l.c in [10, 40) carries keys
	// r does not hold.
	var lRows, rRows []value.Tuple
	for i := 0; i < 400; i++ {
		k := int64(1000 + i)
		if i%40 < 10 {
			k = rng.Int63n(50)
		}
		lRows = append(lRows, value.Tuple{value.Int(int64(i)), value.Int(int64(i % 40)), value.Int(k)})
	}
	for i := 0; i < 200; i++ {
		rRows = append(rRows, value.Tuple{value.Int(int64(i)), value.Int(int64(i % 10)), value.Int(rng.Int63n(50))})
	}
	l := newKeyJoinSide(t, c, "l", value.TypeInt, lRows)
	r := newKeyJoinSide(t, c, "r", value.TypeInt, rRows)
	span := func(lo, hi int64) []KeyRange {
		return rangesFor(expr.IntervalForm, expr.CondInstance{Intervals: []expr.Interval{ivOf(lo, hi)}})
	}
	for i := 0; i < 4; i++ {
		buildRight, covered := i%2 == 1, i >= 2
		join := func(lHi int64) *KeyJoin {
			return &KeyJoin{
				Left:       l.side(span(0, lHi), covered),
				Right:      r.side(span(0, 3), covered),
				BuildRight: buildRight,
			}
		}
		narrow, wide := join(10), join(40)
		answer := joinedIDs(t, narrow)
		if len(answer) < 20 || !slices.Equal(joinedIDs(t, wide), answer) {
			t.Fatalf("buildRight=%v covered=%v: fixture broken: narrow %d pairs, wide differs or too few", buildRight, covered, len(answer))
		}
		allocs := func(j *KeyJoin) float64 {
			return testing.AllocsPerRun(50, func() {
				if err := ForEach(j, func(value.Tuple) error { return nil }); err != nil {
					t.Fatal(err)
				}
			})
		}
		an, aw := allocs(narrow), allocs(wide)
		if aw > an {
			t.Errorf("buildRight=%v covered=%v: %v allocs scanning 4× the entries, %v before", buildRight, covered, aw, an)
		}
		if an >= float64(len(answer))/4 {
			t.Errorf("buildRight=%v covered=%v: %v allocs for %d joined rows; want none a row", buildRight, covered, an, len(answer))
		}
	}
}

// TestNarrowDecodesOnlyReadColumns: a narrowed key-only plan returns the
// same answer as the full-row plan for T1- and T2-shaped queries,
// including a fixed predicate and T2's later join on O.ck, which only
// the IndexJoin above the KeyJoin reads; and the columns nobody reads,
// the pads and O.ck in T1, come out of the join NULL.
func TestNarrowDecodesOnlyReadColumns(t *testing.T) {
	db := newDiffDB(t)
	eq, iv := expr.EqualityForm, expr.IntervalForm
	fixed := diffTemplate(eq, eq, false)
	fixed.Fixed = []expr.FixedPred{{Col: ref("L", "pad"), Op: expr.OpNe, Val: value.Str("")}}
	for _, tc := range []struct {
		name   string
		q      *expr.Query
		unread []expr.ColumnRef
	}{
		{"t1-eq", &expr.Query{Template: diffTemplate(eq, eq, false), Conds: []expr.CondInstance{intsOf(3, 4, 5), intsOf(1, 2, 7)}},
			[]expr.ColumnRef{ref("O", "ck"), ref("O", "pad"), ref("L", "pad")}},
		{"t1-interval", &expr.Query{Template: diffTemplate(iv, iv, false), Conds: []expr.CondInstance{ivsOf(2, 9), ivsOf(0, 6)}},
			[]expr.ColumnRef{ref("O", "ck"), ref("O", "pad"), ref("L", "pad")}},
		{"t1-fixed", &expr.Query{Template: fixed, Conds: []expr.CondInstance{intsOf(3, 4, 5), intsOf(1, 2, 7)}},
			[]expr.ColumnRef{ref("O", "ck"), ref("O", "pad")}},
		{"t2", &expr.Query{Template: diffTemplate(eq, eq, true), Conds: []expr.CondInstance{intsOf(3, 4, 5), intsOf(1, 2, 7), intsOf(0, 1, 2, 3)}},
			[]expr.ColumnRef{ref("O", "pad"), ref("L", "pad")}},
	} {
		want := db.oracle(tc.q)
		if len(want) == 0 {
			t.Fatalf("%s: empty answer; fixture broken", tc.name)
		}
		plan, err := PlanQuery(db.cats[0], tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan.String(), "KeyJoin") {
			t.Fatalf("%s: no KeyJoin planned:\n%s", tc.name, plan)
		}
		cols := make([]int, len(tc.q.Template.Select))
		for i, r := range tc.q.Template.Select {
			cols[i], _ = plan.Schema.MustIndex(r)
		}
		unread := make([]int, len(tc.unread))
		for i, r := range tc.unread {
			unread[i], _ = plan.Schema.MustIndex(r)
		}
		plan.Narrow(cols)
		var got []string
		err = ForEach(plan.Root, func(row value.Tuple) error {
			for i, c := range unread {
				if !row[c].IsNull() {
					return fmt.Errorf("unread column %v decoded as %v", tc.unread[i], row[c])
				}
			}
			out := make(value.Tuple, len(cols))
			for i, c := range cols {
				out[i] = row[c]
			}
			got = append(got, out.String())
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sort.Strings(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: narrowed plan returned %d rows, oracle %d", tc.name, len(got), len(want))
		}
	}
}
