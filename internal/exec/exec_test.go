package exec

import (
	"fmt"
	"sort"
	"testing"

	"pmv/internal/buffer"
	"pmv/internal/catalog"
	"pmv/internal/expr"
	"pmv/internal/storage"
	"pmv/internal/value"
)

func rows(ns ...int64) []value.Tuple {
	out := make([]value.Tuple, len(ns))
	for i, n := range ns {
		out[i] = value.Tuple{value.Int(n)}
	}
	return out
}

func drain(t *testing.T, it Iterator) []value.Tuple {
	t.Helper()
	out, err := Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func firstCols(ts []value.Tuple) []int64 {
	out := make([]int64, len(ts))
	for i, tp := range ts {
		out[i] = tp[0].Int64()
	}
	return out
}

func eqInts(a, b []int64) bool {
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

func TestSliceIterReplay(t *testing.T) {
	it := NewSliceIter(rows(1, 2, 3))
	if got := firstCols(drain(t, it)); !eqInts(got, []int64{1, 2, 3}) {
		t.Errorf("first pass: %v", got)
	}
	// Re-open replays.
	if got := firstCols(drain(t, it)); !eqInts(got, []int64{1, 2, 3}) {
		t.Errorf("second pass: %v", got)
	}
}

func TestNextBeforeOpen(t *testing.T) {
	it := NewSliceIter(rows(1))
	if _, _, err := it.Next(); err == nil {
		t.Error("Next before Open succeeded")
	}
}

func TestFilter(t *testing.T) {
	f := &Filter{
		Child: NewSliceIter(rows(1, 2, 3, 4, 5, 6)),
		Pred:  func(tp value.Tuple) bool { return tp[0].Int64()%2 == 0 },
	}
	if got := firstCols(drain(t, f)); !eqInts(got, []int64{2, 4, 6}) {
		t.Errorf("filter: %v", got)
	}
}

func TestProject(t *testing.T) {
	src := []value.Tuple{{value.Int(1), value.Str("a"), value.Bool(true)}}
	p := &Project{Child: NewSliceIter(src), Cols: []int{2, 0}}
	got := drain(t, p)
	if len(got) != 1 || !got[0][0].BoolVal() || got[0][1].Int64() != 1 {
		t.Errorf("project: %v", got)
	}
}

func TestHashAggregate(t *testing.T) {
	src := []value.Tuple{
		{value.Str("a"), value.Int(1)},
		{value.Str("b"), value.Int(10)},
		{value.Str("a"), value.Int(3)},
		{value.Str("b"), value.Int(20)},
		{value.Str("a"), value.Int(2)},
	}
	agg := &HashAggregate{
		Child:     NewSliceIter(src),
		GroupCols: []int{0},
		Aggs: []AggSpec{
			{Func: AggCount}, {Func: AggSum, Col: 1}, {Func: AggMin, Col: 1},
			{Func: AggMax, Col: 1}, {Func: AggAvg, Col: 1},
		},
	}
	got := drain(t, agg)
	if len(got) != 2 {
		t.Fatalf("groups: %d", len(got))
	}
	// Groups come out in encoded-key order: "a" then "b".
	a := got[0]
	if a[0].Str() != "a" || a[1].Int64() != 3 || a[2].Float64() != 6 ||
		a[3].Int64() != 1 || a[4].Int64() != 3 || a[5].Float64() != 2 {
		t.Errorf("group a: %v", a)
	}
	b := got[1]
	if b[0].Str() != "b" || b[1].Int64() != 2 || b[2].Float64() != 30 {
		t.Errorf("group b: %v", b)
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	agg := &HashAggregate{Child: NewSliceIter(nil), GroupCols: []int{0}, Aggs: []AggSpec{{Func: AggCount}}}
	if got := drain(t, agg); len(got) != 0 {
		t.Errorf("empty input produced groups: %v", got)
	}
}

func TestNestedLoopJoin(t *testing.T) {
	left := []value.Tuple{{value.Int(1)}, {value.Int(2)}}
	right := []value.Tuple{{value.Int(2)}, {value.Int(3)}}
	j := &NestedLoopJoin{
		Left:  NewSliceIter(left),
		Right: NewSliceIter(right),
		On:    func(tp value.Tuple) bool { return value.Equal(tp[0], tp[1]) },
	}
	got := drain(t, j)
	if len(got) != 1 || got[0][0].Int64() != 2 || got[0][1].Int64() != 2 {
		t.Errorf("nlj: %v", got)
	}
	// Cross join when On is nil.
	j2 := &NestedLoopJoin{Left: NewSliceIter(left), Right: NewSliceIter(right)}
	if got := drain(t, j2); len(got) != 4 {
		t.Errorf("cross join size: %d", len(got))
	}
}

// --- relation-backed tests for scans, index joins, and the planner ---

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c, _ := testCatalogPool(t)
	return c
}

// testCatalogPool is testCatalog with its buffer pool, for tests that
// count page fetches.
func testCatalogPool(t *testing.T) (*catalog.Catalog, *buffer.Pool) {
	t.Helper()
	dir := t.TempDir()
	mgr, err := storage.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	pool := buffer.NewPool(mgr, 128)
	c, err := catalog.Open(dir, pool, mgr)
	if err != nil {
		t.Fatal(err)
	}
	return c, pool
}

// TestSeqScanRowsAreItsOwn holds SeqScan to the heap scan's contract:
// the scan reuses one row, so every row SeqScan keeps is a clone. All
// of them share one page here and must still read as inserted.
func TestSeqScanRowsAreItsOwn(t *testing.T) {
	c := testCatalog(t)
	r, _ := c.CreateRelation("s", catalog.NewSchema(catalog.Col("k", value.TypeInt), catalog.Col("v", value.TypeString)))
	for i := 0; i < 20; i++ {
		r.Heap.Insert(value.Tuple{value.Int(int64(i)), value.Str(fmt.Sprint("v", i))})
	}
	if r.Heap.NumPages() != 1 {
		t.Fatalf("s spans %d pages, want 1", r.Heap.NumPages())
	}
	ss := &SeqScan{Rel: r}
	if err := ss.Open(); err != nil {
		t.Fatal(err)
	}
	var rows []value.Tuple
	for {
		tu, ok, err := ss.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		rows = append(rows, tu)
	}
	if len(rows) != 20 {
		t.Fatalf("seq scan: %d rows, want 20", len(rows))
	}
	for i, tu := range rows {
		if tu[0].Int64() != int64(i) || tu[1].Str() != fmt.Sprint("v", i) {
			t.Errorf("row %d = %v", i, tu)
		}
	}
}

func TestSeqScanAndIndexScan(t *testing.T) {
	c := testCatalog(t)
	r, _ := c.CreateRelation("n", catalog.NewSchema(catalog.Col("v", value.TypeInt)))
	ix, _ := c.CreateIndex("n_v", "n", "v")
	for i := 0; i < 50; i++ {
		tup := value.Tuple{value.Int(int64(i % 10))}
		rid, _ := r.Heap.Insert(tup)
		ix.Insert(tup, rid)
	}
	ss := &SeqScan{Rel: r}
	if got := drain(t, ss); len(got) != 50 {
		t.Errorf("seq scan: %d", len(got))
	}
	is := &IndexScan{Rel: r, Index: ix, Ranges: []KeyRange{EqKeyRange(value.Int(3))}}
	got := drain(t, is)
	if len(got) != 5 {
		t.Errorf("index scan eq: %d", len(got))
	}
	for _, tp := range got {
		if tp[0].Int64() != 3 {
			t.Errorf("wrong tuple: %v", tp)
		}
	}
	// Interval range [2, 5).
	iv := IntervalKeyRange(ivOf(2, 5))
	is2 := &IndexScan{Rel: r, Index: ix, Ranges: []KeyRange{iv}}
	got = drain(t, is2)
	if len(got) != 15 {
		t.Errorf("index scan range: %d", len(got))
	}
	vals := firstCols(got)
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	if vals[0] != 2 || vals[len(vals)-1] != 4 {
		t.Errorf("range contents: %v", vals)
	}
}

func TestUnboundedIntervalRanges(t *testing.T) {
	// Unbounded interval bounds translate to open key ranges.
	kr := IntervalKeyRange(expr.Interval{}) // (-inf, +inf)
	if kr.Lo != nil || kr.Hi != nil {
		t.Errorf("unbounded interval produced bounds: %v", kr)
	}
	lo := IntervalKeyRange(expr.Interval{Lo: value.Int(5), LoIncl: true})
	if lo.Lo == nil || lo.Hi != nil {
		t.Errorf("[5,+inf) range wrong: %+v", lo)
	}
	// Open lower bound excludes the boundary value.
	open := IntervalKeyRange(expr.Interval{Lo: value.Int(5), LoIncl: false, Hi: value.Int(9), HiIncl: true})
	eq5 := EqKeyRange(value.Int(5))
	if string(open.Lo) == string(eq5.Lo) {
		t.Error("open bound did not advance past the boundary")
	}
}

func TestIndexScanOverDates(t *testing.T) {
	c := testCatalog(t)
	r, _ := c.CreateRelation("ev", newDateSchema())
	for d := int64(0); d < 30; d++ {
		r.Heap.Insert(value.Tuple{value.Date(20000 + d), value.Int(d)})
	}
	ix, err := c.CreateIndex("ev_d", "ev", "day")
	if err != nil {
		t.Fatal(err)
	}
	iv := expr.Interval{Lo: value.Date(20010), Hi: value.Date(20020), LoIncl: true, HiIncl: false}
	is := &IndexScan{Rel: r, Index: ix, Ranges: []KeyRange{IntervalKeyRange(iv)}}
	got := drain(t, is)
	if len(got) != 10 {
		t.Fatalf("date range returned %d rows, want 10", len(got))
	}
	for _, tp := range got {
		d := tp[0].Int64()
		if d < 20010 || d >= 20020 {
			t.Errorf("date %d outside range", d)
		}
	}
}

func newDateSchema() catalog.Schema {
	return catalog.NewSchema(
		catalog.Col("day", value.TypeDate),
		catalog.Col("n", value.TypeInt),
	)
}
