package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pmv/internal/catalog"
	"pmv/internal/catalog/catalogtest"
	"pmv/internal/storage"
	"pmv/internal/value"
)

// imageLog records every change notification as encoded pre/post
// images, so two engines' observer sequences compare byte for byte
// (Int 1 and Float 1 differ; NaN equals itself).
type imageLog struct{ seq []string }

func image(t value.Tuple) string { return string(value.EncodeTuple(nil, t)) }

func (l *imageLog) OnInsert(_ string, t value.Tuple) error {
	l.seq = append(l.seq, "i"+image(t))
	return nil
}
func (l *imageLog) OnDelete(_ string, t value.Tuple) error {
	l.seq = append(l.seq, "d"+image(t))
	return nil
}
func (l *imageLog) OnUpdate(_ string, old, new value.Tuple) error {
	l.seq = append(l.seq, "u"+image(old)+">"+image(new))
	return nil
}

// diffEngine opens one side of the differential test: relation m with
// match column a under a single-column index, b under a composite it
// leads only, c under none.
func diffEngine(t *testing.T, wal bool) (*Engine, *imageLog) {
	t.Helper()
	e, err := Open(t.TempDir(), Options{BufferPoolPages: 64, EnableWAL: wal})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if _, err := e.CreateRelation("m", catalog.NewSchema(
		catalog.Col("a", value.TypeInt), catalog.Col("b", value.TypeInt), catalog.Col("c", value.TypeInt),
		catalog.Col("id", value.TypeInt), catalog.Col("pad", value.TypeString))); err != nil {
		t.Fatal(err)
	}
	for _, cols := range [][]string{{"a"}, {"b", "id"}, {"id"}} {
		if _, err := e.CreateIndex("", "m", cols...); err != nil {
			t.Fatal(err)
		}
	}
	log := &imageLog{}
	e.RegisterObserver(log)
	return e, log
}

// heapImage lists rel's live tuples with their RIDs, in scan order.
func heapImage(t *testing.T, e *Engine) []string {
	t.Helper()
	r, err := e.Catalog().GetRelation("m")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	if err := r.Heap.Scan(func(rid storage.RID, tu value.Tuple) error {
		out = append(out, rid.String()+image(tu))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// indexImage lists every entry of every index of rel.
func indexImage(t *testing.T, e *Engine) map[string][]string {
	t.Helper()
	r, err := e.Catalog().GetRelation("m")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]string)
	for _, ix := range r.Indexes {
		out[ix.Name] = []string{}
		if err := ix.Tree.Scan(nil, nil, func(entry []byte) error {
			out[ix.Name] = append(out[ix.Name], string(entry))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// anyEqual is the reference predicate: value.Equal against each value,
// with no help from EqSet.
func anyEqual(ci int, vals []value.Value) func(value.Tuple) bool {
	return func(tu value.Tuple) bool {
		for _, v := range vals {
			if value.Equal(tu[ci], v) {
				return true
			}
		}
		return false
	}
}

// TestLocatedEqualsScanned is the locator's contract: one seeded
// stream of inserts, equality deletes and equality updates applied to
// two engines — one through DeleteEqCtx/UpdateEqCtx, one through the
// closure API with value.Equal as the predicate — must return the same
// counts and victims, notify observers with the same images in the
// same order, and leave the same heap (RID for RID) and indexes that
// equal their heap and their own rebuild. The values stored and matched mix what
// value.Equal equates and keycodec tells apart.
func TestLocatedEqualsScanned(t *testing.T) {
	for _, wal := range []bool{false, true} {
		t.Run(fmt.Sprintf("wal=%v", wal), func(t *testing.T) { locatedEqualsScanned(t, wal) })
	}
}

func locatedEqualsScanned(t *testing.T, wal bool) {
	located, locLog := diffEngine(t, wal)
	scanned, scanLog := diffEngine(t, wal)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(23))

	// Stored and matched values: small Ints, the Floats equal to them,
	// a Float between two, both zeros, NULL, strings, NaN, and the
	// numbers from 2⁵³ up where one Float equals several Ints.
	domain := []value.Value{
		value.Int(0), value.Int(1), value.Int(2), value.Int(3), value.Int(4), value.Int(5), value.Int(6), value.Int(7),
		value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(1), value.Float(2), value.Float(2.5),
		value.Null(), value.Str("x"), value.Str(""), value.Float(math.NaN()),
		value.Int(1 << 53), value.Int(1<<53 + 1), value.Float(1 << 53), value.Float(math.Inf(1)),
	}
	pick := func() value.Value { return domain[rng.Intn(len(domain))] }
	matchVals := func() []value.Value {
		vals := make([]value.Value, 1+rng.Intn(3))
		for i := range vals {
			if vals[i] = pick(); rng.Intn(8) == 0 {
				vals[i] = value.Int(99) // absent
			}
		}
		return vals
	}
	cols := []string{"a", "b", "c"}
	nextID := int64(0)
	changed, multi := 0, 0 // rows changed; statements that changed several
	note := func(rows int) {
		if changed += rows; rows > 1 {
			multi++
		}
	}

	for step := 0; step < 700; step++ {
		switch k := rng.Intn(10); {
		case k < 5 || step < 100:
			tu := value.Tuple{pick(), pick(), pick(), value.Int(nextID), value.Str("p")}
			nextID++
			for _, e := range []*Engine{located, scanned} {
				if err := e.Insert("m", tu.Clone()); err != nil {
					t.Fatal(err)
				}
			}
		case k < 6:
			ci, vals := rng.Intn(3), matchVals()
			got, gerr := located.DeleteEqCtx(ctx, "m", cols[ci], NewEqSet(vals...))
			want, werr := scanned.DeleteWhereCtx(ctx, "m", anyEqual(ci, vals))
			if gerr != nil || werr != nil {
				t.Fatalf("step %d: delete %s in %v: located %v, scanned %v", step, cols[ci], vals, gerr, werr)
			}
			if len(got) != len(want) {
				t.Fatalf("step %d: delete %s in %v: located %d victims, scanned %d", step, cols[ci], vals, len(got), len(want))
			}
			for i := range got {
				if image(got[i]) != image(want[i]) {
					t.Fatalf("step %d: delete %s in %v: victim %d is %v, scanned %v", step, cols[ci], vals, i, got[i], want[i])
				}
			}
			note(len(got))
		default:
			ci, vals := rng.Intn(3), matchVals()
			// What the update sets: another column, its own match column
			// (the row leaves its index range), or a pad long enough that
			// the row no longer fits its page and takes a new RID.
			var apply func(value.Tuple) value.Tuple
			switch set, v := rng.Intn(3), pick(); set {
			case 0:
				apply = func(tu value.Tuple) value.Tuple { tu[(ci+1)%3] = v; return tu }
			case 1:
				apply = func(tu value.Tuple) value.Tuple { tu[ci] = v; return tu }
			default:
				pad := value.Str(strings.Repeat("g", 500+rng.Intn(3000)))
				apply = func(tu value.Tuple) value.Tuple { tu[4] = pad; return tu }
			}
			got, gerr := located.UpdateEqCtx(ctx, "m", cols[ci], NewEqSet(vals...), apply)
			want, werr := scanned.UpdateWhereCtx(ctx, "m", anyEqual(ci, vals), apply)
			if gerr != nil || werr != nil {
				t.Fatalf("step %d: update %s in %v: located %v, scanned %v", step, cols[ci], vals, gerr, werr)
			}
			if got != want {
				t.Fatalf("step %d: update %s in %v: located %d rows, scanned %d", step, cols[ci], vals, got, want)
			}
			note(got)
		}
		if !reflect.DeepEqual(locLog.seq, scanLog.seq) {
			t.Fatalf("step %d: observers saw different images", step)
		}
		locLog.seq, scanLog.seq = locLog.seq[:0], scanLog.seq[:0]
		if step%100 == 99 {
			if !reflect.DeepEqual(heapImage(t, located), heapImage(t, scanned)) {
				t.Fatalf("step %d: heaps differ", step)
			}
		}
	}

	if !reflect.DeepEqual(heapImage(t, located), heapImage(t, scanned)) {
		t.Fatal("final heaps differ")
	}
	if changed < 1000 || multi < 100 {
		t.Fatalf("stream changed %d rows, %d statements several at once: too few to mean anything", changed, multi)
	}
	for _, e := range []*Engine{located, scanned} {
		if err := catalogtest.IndexesMatchHeap(e.Catalog()); err != nil {
			t.Fatal(err)
		}
		before := indexImage(t, e)
		if err := e.Catalog().RebuildIndexes(); err != nil {
			t.Fatal(err)
		}
		if after := indexImage(t, e); !reflect.DeepEqual(before, after) {
			t.Fatal("an index differs from its rebuild")
		}
		if err := catalogtest.IndexesMatchHeap(e.Catalog()); err != nil {
			t.Fatalf("after RebuildIndexes: %v", err)
		}
	}
	ls, ss := located.Stats(), scanned.Stats()
	if ls.DMLLocated == 0 || ls.DMLScanned == 0 {
		t.Fatalf("located side ran %d located, %d scanned statements: the stream must take both paths", ls.DMLLocated, ls.DMLScanned)
	}
	if ss.DMLLocated != 0 {
		t.Fatalf("closure side located %d statements", ss.DMLLocated)
	}
}

// TestLocatedRechecksFetchedTuple: an index entry is a candidate, not
// a verdict. A stale entry — here planted, in production a slot reused
// between probe and fetch when no barrier is registered — must not
// make the statement touch a row whose value does not match.
func TestLocatedRechecksFetchedTuple(t *testing.T) {
	e := newEngine(t)
	simpleRel(t, e)
	if err := e.Insert("kv", value.Tuple{value.Int(1), value.Str("keep")}); err != nil {
		t.Fatal(err)
	}
	r, _ := e.Catalog().GetRelation("kv")
	var rid storage.RID
	r.Heap.Scan(func(at storage.RID, _ value.Tuple) error { rid = at; return nil })
	if err := r.Indexes[0].Insert(value.Tuple{value.Int(7), value.Str("")}, rid); err != nil {
		t.Fatal(err)
	}
	victims, err := e.DeleteEqCtx(context.Background(), "kv", "k", NewEqSet(value.Int(7)))
	if err != nil || len(victims) != 0 {
		t.Fatalf("delete k=7 removed %v (%v): the entry pointed at a k=1 row", victims, err)
	}
	if st := e.Stats(); st.DMLLocated != 1 || st.DMLScanned != 0 {
		t.Fatalf("stats %+v: the statement should have been located", st)
	}
}

// TestEqStatementErrors: the located entry points fail like the
// closure ones on a missing relation, and name a missing column.
func TestEqStatementErrors(t *testing.T) {
	e := newEngine(t)
	simpleRel(t, e)
	ctx := context.Background()
	if _, err := e.DeleteEqCtx(ctx, "ghost", "k", NewEqSet(value.Int(1))); err == nil {
		t.Error("delete from a missing relation accepted")
	}
	same := func(tu value.Tuple) value.Tuple { return tu }
	if _, err := e.UpdateEqCtx(ctx, "kv", "ghost", NewEqSet(value.Int(1)), same); err == nil {
		t.Error("update matching a missing column accepted")
	}
}

// keepingObserver keeps the tuples it is handed, not copies, so a
// pre-image that aliased the heap scan's reused row would read as the
// last row the scan decoded.
type keepingObserver struct{ olds, deleted []value.Tuple }

func (o *keepingObserver) OnInsert(string, value.Tuple) error { return nil }
func (o *keepingObserver) OnDelete(_ string, t value.Tuple) error {
	o.deleted = append(o.deleted, t)
	return nil
}
func (o *keepingObserver) OnUpdate(_ string, old, _ value.Tuple) error {
	o.olds = append(o.olds, old)
	return nil
}

// TestScannedRowsOutliveTheScan runs closure statements whose several
// matches share one heap page: every pre-image the observers keep, and
// every row DeleteWhere returns, must be its own row.
func TestScannedRowsOutliveTheScan(t *testing.T) {
	e := newEngine(t)
	simpleRel(t, e)
	obs := &keepingObserver{}
	e.RegisterObserver(obs)
	val := func(k int64) string { return fmt.Sprintf("row-%02d", k) }
	for k := int64(0); k < 40; k++ {
		if err := e.Insert("kv", value.Tuple{value.Int(k), value.Str(val(k))}); err != nil {
			t.Fatal(err)
		}
	}
	r, _ := e.Catalog().GetRelation("kv")
	if r.Heap.NumPages() != 1 {
		t.Fatalf("kv spans %d pages; the test wants its matches on one", r.Heap.NumPages())
	}
	check := func(what string, got []value.Tuple, keys []int64) {
		t.Helper()
		if len(got) != len(keys) {
			t.Fatalf("%s: %d rows, want %d", what, len(got), len(keys))
		}
		for i, k := range keys {
			if got[i][0].Int64() != k || got[i][1].Str() != val(k) {
				t.Errorf("%s %d = %v, want (%d, %s)", what, i, got[i], k, val(k))
			}
		}
	}
	even := func(tu value.Tuple) bool { return tu[0].Int64()%2 == 0 && tu[0].Int64() < 10 }
	n, err := e.UpdateWhere("kv", even, func(tu value.Tuple) value.Tuple {
		tu[1] = value.Str("updated")
		return tu
	})
	if err != nil || n != 5 {
		t.Fatalf("update: %d rows, %v", n, err)
	}
	check("update pre-image", obs.olds, []int64{0, 2, 4, 6, 8})
	odd := func(tu value.Tuple) bool { return tu[0].Int64()%2 == 1 && tu[0].Int64() < 10 }
	deleted, err := e.DeleteWhere("kv", odd)
	if err != nil {
		t.Fatal(err)
	}
	check("delete pre-image", obs.deleted, []int64{1, 3, 5, 7, 9})
	check("DeleteWhere row", deleted, []int64{1, 3, 5, 7, 9})
}
