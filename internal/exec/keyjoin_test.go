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
		cols := make([]bool, len(s.rel.Schema.Columns))
		for i := range cols {
			cols[i] = true
		}
		return KeySide{Rel: s.rel, Index: s.cov, Ranges: ranges, Cols: cols}
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

// keyJoinArgs are FuzzKeyJoin's arguments.
type keyJoinArgs struct {
	seed                         int64
	nl, nr, keys, conds          uint8
	interval, buildRight, strKey bool
	cover, ds, pad               uint8
	pick                         uint16
}

// keyJoinCase is the join FuzzKeyJoin draws from its arguments, and its
// rows and conditions.
type keyJoinCase struct {
	l, r   keyJoinSide
	form   expr.CondForm
	lc, rc expr.CondInstance
	j      *KeyJoin
	rng    *rand.Rand
}

// newKeyJoinCase draws the relations, conditions and join a.seed names.
// Rows are (id, c, k, pad); pad is a string of up to 2*a.pad bytes, so
// that wide pads make one condition value's run span several leaves.
// With a.pick set, the build side's keys are narrowed after the probe
// side's index is built: each build row takes the join key of the
// probe entry pick names (pickEntry) or a key no probe row holds.
func newKeyJoinCase(t *testing.T, a keyJoinArgs) *keyJoinCase {
	rng := rand.New(rand.NewSource(a.seed))
	keyDom, condDom := 1+int(a.keys)%120, 1+int(a.conds)%10
	kType := value.TypeInt
	joinKey := func() value.Value { return value.Int(int64(rng.Intn(keyDom))) }
	if a.strKey {
		kType = value.TypeString
		joinKey = func() value.Value {
			k := rng.Intn(keyDom)
			return value.Str(fmt.Sprintf("%0*d", 1+k%7, k))
		}
	}
	rows := func(n uint8) []value.Tuple {
		out := make([]value.Tuple, n)
		for i := range out {
			pad := ""
			if a.pad != 0 {
				pad = strings.Repeat("x", rng.Intn(2*int(a.pad)+1))
			}
			out[i] = value.Tuple{value.Int(int64(i)), value.Int(int64(rng.Intn(condDom))), joinKey(), value.Str(pad)}
		}
		return out
	}
	lRows, rRows := rows(a.nl), rows(a.nr)
	kc := &keyJoinCase{form: expr.EqualityForm, rng: rng}
	if a.interval {
		kc.form = expr.IntervalForm
	}
	kc.lc, kc.rc = randomCond(rng, kc.form, condDom), randomCond(rng, kc.form, condDom)
	c := testCatalog(t)
	build, probe := &kc.l, &kc.r
	buildRows, probeRows, probeCond := lRows, rRows, kc.rc
	bName, pName := "l", "r"
	if a.buildRight {
		build, probe = probe, build
		buildRows, probeRows, probeCond = rRows, lRows, kc.lc
		bName, pName = pName, bName
	}
	*probe = newPaddedSide(t, c, pName, kType, probeRows)
	if a.pick != 0 {
		s := probe.side(rangesFor(kc.form, probeCond), a.buildRight && a.cover&1 != 0 || !a.buildRight && a.cover&2 != 0)
		k, ok := pickEntry(t, &s, a.pick)
		for i, row := range buildRows {
			switch {
			case ok && rng.Intn(2) == 0:
				row[2] = k
			case a.strKey:
				row[2] = value.Str(fmt.Sprintf("miss%d", i))
			default:
				row[2] = value.Int(int64(-1 - i))
			}
		}
	}
	*build = newPaddedSide(t, c, bName, kType, buildRows)
	kc.j = &KeyJoin{
		Left:       kc.l.side(rangesFor(kc.form, kc.lc), a.cover&1 != 0),
		Right:      kc.r.side(rangesFor(kc.form, kc.rc), a.cover&2 != 0),
		BuildRight: a.buildRight,
	}
	return kc
}

// pickEntry returns the join key of the probe entry pick names among a
// walk of s's ranges: range pick>>12, leaf (pick>>8)&0xf of its walk
// (0xf the last), entry pick&0xff of that leaf's run (0xff the last),
// each capped at the last there is. pick 0xffff, or a walk with no
// entry, names none.
func pickEntry(t testing.TB, s *KeySide, pick uint16) (value.Value, bool) {
	t.Helper()
	if pick == 0xffff || len(s.Ranges) == 0 {
		return value.Value{}, false
	}
	r := s.Ranges[min(int(pick>>12), len(s.Ranges)-1)]
	var runs [][][]byte
	if err := s.Index.Tree.Walk(r.Lo, r.Hi, func(l btree.Leaf) error {
		run := make([][]byte, l.Len())
		for i := range run {
			run[i] = slices.Clone(l.Entry(i))
		}
		runs = append(runs, run)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(runs) == 0 {
		return value.Value{}, false
	}
	run := runs[min(int(pick>>8)&0xf, len(runs)-1)]
	e := run[min(int(pick&0xff), len(run)-1)]
	lead, err := keycodec.Skip(e)
	if err != nil {
		t.Fatal(err)
	}
	k, _, err := keycodec.DecodeValue(e[lead:])
	if err != nil {
		t.Fatal(err)
	}
	return k, true
}

// keyJoinSeeds are FuzzKeyJoin's seed corpus. The ones with a name
// place the first match where a paused probe walk has its edge cases;
// TestKeyJoinSeedsPause checks that each still does.
var keyJoinSeeds = []struct {
	name string
	a    keyJoinArgs
}{
	{"", keyJoinArgs{1, 40, 60, 8, 4, false, false, false, 0, 0, 0, 0}},
	{"", keyJoinArgs{2, 0, 30, 5, 3, true, false, true, 1, 128, 0, 0}},
	{"", keyJoinArgs{3, 25, 0, 5, 3, false, true, false, 2, 255, 0, 0}},
	{"", keyJoinArgs{4, 90, 70, 1, 2, true, true, true, 3, 64, 0, 0}},
	// Many to many: about 240 entries a side over 80 keys, so the build
	// table's slot chains hold several distinct keys as well as runs of
	// one key.
	{"", keyJoinArgs{5, 240, 240, 80, 0, false, false, false, 0, 200, 0, 0}},
	{"", keyJoinArgs{6, 240, 240, 80, 0, false, true, true, 3, 255, 0, 0}},
	// Seed 5's draws, which join hundreds of pairs, with covered sides.
	{"", keyJoinArgs{5, 240, 240, 80, 0, false, true, false, 1, 0, 0, 0}},
	{"", keyJoinArgs{5, 240, 240, 80, 0, false, false, true, 2, 96, 0, 0}},
	{"", keyJoinArgs{5, 240, 240, 80, 0, false, true, true, 3, 160, 0, 0}},
	// Wide pads: each probe range spans several leaves.
	{"first match a leaf's last entry", keyJoinArgs{1, 120, 240, 119, 0, false, false, false, 0, 0, 150, 0x00ff}},
	{"match only in a range's last leaf", keyJoinArgs{42, 120, 240, 119, 0, false, true, false, 0, 0, 150, 0x0f00}},
	{"match only in the second range", keyJoinArgs{5, 120, 240, 119, 3, false, false, true, 0, 0, 150, 0x1000}},
	{"no match", keyJoinArgs{10, 120, 240, 119, 0, false, false, false, 0, 0, 150, 0xffff}},
	{"DS takes the paused leaf's pairs", keyJoinArgs{3, 120, 240, 119, 0, false, false, false, 3, 255, 25, 0x0005}},
}

// TestKeyJoinSeedsPause: each named seed of FuzzKeyJoin still pauses
// its probe walk where its name says, so that the corpus keeps
// exercising those edges.
func TestKeyJoinSeedsPause(t *testing.T) {
	for _, s := range keyJoinSeeds {
		if s.name == "" {
			continue
		}
		if got := pauseOf(t, newKeyJoinCase(t, s.a), s.a.ds); got != s.name {
			t.Errorf("seed %q: %s", s.name, got)
		}
	}
}

// pauseOf opens kc's join and names the edge its probe walk paused at,
// as keyJoinSeeds names them, or says why it is none; ds is the seed's
// DS share.
func pauseOf(t *testing.T, kc *keyJoinCase, ds uint8) string {
	j := kc.j
	probe := &j.Right
	if j.BuildRight {
		probe = &j.Left
	}
	runLeaves := func(i int) int {
		s := *probe
		s.Ranges = s.Ranges[i : i+1]
		return leaves(t, &s)
	}
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(j.t.pairs) == 0 {
		if leaves(t, probe) < 2 {
			return "no pair, but the walk is short"
		}
		return "no match"
	}
	at, rest := j.rng, 0 // the range the walk paused in, its leaves left
	if err := probe.Index.Tree.Walk(j.resume, probe.Ranges[at].Hi, func(btree.Leaf) error { rest++; return nil }); err != nil {
		t.Fatal(err)
	}
	pr := j.t.pairs[0]
	first := j.t.probe[pr.off:pr.end]
	switch {
	case at == 1 && runLeaves(0) > 0:
		return "match only in the second range"
	case at != 0:
		return fmt.Sprintf("paused in range %d", at)
	case rest == 0 && runLeaves(0) >= 2:
		return "match only in a range's last leaf"
	case rest == 0:
		return "paused in a one-leaf range"
	case ds == 255:
		return "DS takes the paused leaf's pairs"
	case bytes.Equal(append(slices.Clone(first), 0), j.resume):
		return "first match a leaf's last entry"
	}
	return "paused mid-range"
}

// FuzzKeyJoin holds KeyJoin to a nested loop over the same rows: two
// relations of up to 255 rows whose join keys, ints or strings of
// several lengths, repeat on both sides, padded to spread one condition
// value's entries over several leaves, equality or interval ranges on
// each side's condition column (including ranges no row falls in), and
// either side as the build side, and either side covered (bit 0 of
// cover the left, bit 1 the right: its rows decoded from the index
// entries, a pad too long to store read from the heap) or read from the
// heap. With pick set, the build side joins at most one probe key,
// chosen by where its entry lies in the probe walk, so that the walk
// pauses at a chosen leaf. The answer is compared as a multiset of
// (left id, right id) pairs. With ds set, the join also runs as a
// prepared plan's root with a DS check: DS holds about ds/255 of the
// answer's rows and a row the answer lacks, and the run must return the
// answer less exactly DS's rows, each taken once — from the entries'
// bytes when both sides are covered, from the decoded row otherwise.
func FuzzKeyJoin(f *testing.F) {
	for _, s := range keyJoinSeeds {
		a := s.a
		f.Add(a.seed, a.nl, a.nr, a.keys, a.conds, a.interval, a.buildRight, a.strKey, a.cover, a.ds, a.pad, a.pick)
	}
	f.Fuzz(func(t *testing.T, seed int64, nl, nr, keys, conds uint8, interval, buildRight, strKey bool, cover, ds, pad uint8, pick uint16) {
		kc := newKeyJoinCase(t, keyJoinArgs{seed, nl, nr, keys, conds, interval, buildRight, strKey, cover, ds, pad, pick})
		j, form := kc.j, kc.form
		got := joinedIDs(t, j)
		var want []string
		for _, lt := range kc.l.rows {
			if !kc.lc.Matches(form, lt[1]) {
				continue
			}
			for _, rt := range kc.r.rows {
				if kc.rc.Matches(form, rt[1]) && value.Equal(lt[2], rt[2]) {
					want = append(want, fmt.Sprintf("%d,%d", lt[0].Int64(), rt[0].Int64()))
				}
			}
		}
		sort.Strings(want)
		if !slices.Equal(got, want) {
			t.Fatalf("KeyJoin returned %d pairs, nested loop %d\nleft %+v\nright %+v", len(got), len(want), kc.lc, kc.rc)
		}
		// Each joined row is its two source rows, however its sides were
		// read.
		lw := len(kc.l.rel.Schema.Columns)
		err := ForEach(j, func(row value.Tuple) error {
			src := append(slices.Clone(kc.l.rows[row[0].Int64()]), kc.r.rows[row[lw].Int64()]...)
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
			checkDedup(t, j, kc.rng, ds)
		}
	})
}

// checkDedup runs j as the root of a plan projecting every column, with
// a DS check over a random share (share/255, so 255 is every row) of
// its answer's rows plus a row it does not return, and requires the
// answer less exactly those rows, each taken once, and the absent row's
// token left.
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
		if rng.Intn(255) < int(share) {
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
// answer and must keep the allocation count, with the probe walk paused
// after its first matching leaf and resumed from a key.
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
		// The probe walk pauses after its first matching leaf (probing
		// l's wide range, inside it) and resumes from a key for the rest.
		if err := wide.Open(); err != nil {
			t.Fatal(err)
		}
		if len(wide.resume) == 0 {
			t.Fatalf("buildRight=%v covered=%v: the wide join's probe walk did not pause", buildRight, covered)
		}
		wide.Close()
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
