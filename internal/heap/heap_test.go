package heap

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"pmv/internal/buffer"
	"pmv/internal/storage"
	"pmv/internal/value"
)

func newHeap(t *testing.T) (*Heap, *buffer.Pool, *storage.Manager, string) {
	t.Helper()
	dir := t.TempDir()
	mgr, err := storage.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	pool := buffer.NewPool(mgr, 64)
	h, err := Open(pool, mgr, "heap.t")
	if err != nil {
		t.Fatal(err)
	}
	return h, pool, mgr, dir
}

func row(i int) value.Tuple {
	return value.Tuple{value.Int(int64(i)), value.Str(strings.Repeat("x", i%50))}
}

func TestInsertGet(t *testing.T) {
	h, _, _, _ := newHeap(t)
	var rids []storage.RID
	for i := 0; i < 500; i++ {
		rid, err := h.Insert(row(i))
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		rids = append(rids, rid)
	}
	if h.Count() != 500 {
		t.Errorf("count = %d", h.Count())
	}
	for i, rid := range rids {
		got, err := h.Get(rid)
		if err != nil {
			t.Fatalf("get %v: %v", rid, err)
		}
		if value.CompareTuples(got, row(i)) != 0 {
			t.Errorf("rid %v: got %v", rid, got)
		}
	}
}

func TestDelete(t *testing.T) {
	h, _, _, _ := newHeap(t)
	rid, _ := h.Insert(row(1))
	if err := h.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(rid); !errors.Is(err, ErrNotFound) {
		t.Errorf("get deleted: %v", err)
	}
	if err := h.Delete(rid); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: %v", err)
	}
	if h.Count() != 0 {
		t.Errorf("count = %d", h.Count())
	}
}

func TestUpdateInPlaceAndMoving(t *testing.T) {
	h, _, _, _ := newHeap(t)
	rid, _ := h.Insert(value.Tuple{value.Str(strings.Repeat("a", 100))})
	// Shrinking update stays in place.
	nrid, err := h.Update(rid, value.Tuple{value.Str("small")})
	if err != nil {
		t.Fatal(err)
	}
	if nrid != rid {
		t.Errorf("shrinking update moved %v -> %v", rid, nrid)
	}
	// Growing update must move.
	big := value.Tuple{value.Str(strings.Repeat("b", 500))}
	nrid2, err := h.Update(nrid, big)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Get(nrid2)
	if err != nil || value.CompareTuples(got, big) != 0 {
		t.Errorf("after move: %v %v", got, err)
	}
	if nrid2 == nrid {
		// In-place is fine too if the old slot had room; but the data
		// must be the new value either way.
		got, _ := h.Get(nrid)
		if value.CompareTuples(got, big) != 0 {
			t.Error("update lost")
		}
	}
	if h.Count() != 1 {
		t.Errorf("count = %d after update", h.Count())
	}
}

func TestScanSeesLiveTuplesOnly(t *testing.T) {
	h, _, _, _ := newHeap(t)
	var rids []storage.RID
	for i := 0; i < 100; i++ {
		rid, _ := h.Insert(row(i))
		rids = append(rids, rid)
	}
	for i := 0; i < 100; i += 3 {
		h.Delete(rids[i])
	}
	seen := 0
	err := h.Scan(func(rid storage.RID, tup value.Tuple) error {
		seen++
		i := int(tup[0].Int64())
		if i%3 == 0 {
			t.Errorf("deleted tuple %d visible", i)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 100 - 34 // ceil(100/3)
	if seen != want {
		t.Errorf("scan saw %d, want %d", seen, want)
	}
}

func TestScanEarlyStop(t *testing.T) {
	h, _, _, _ := newHeap(t)
	for i := 0; i < 50; i++ {
		h.Insert(row(i))
	}
	n := 0
	err := h.Scan(func(storage.RID, value.Tuple) error {
		n++
		if n == 7 {
			return ErrStopScan
		}
		return nil
	})
	if err != nil || n != 7 {
		t.Errorf("early stop: n=%d err=%v", n, err)
	}
}

func TestMultiPageGrowth(t *testing.T) {
	h, _, _, _ := newHeap(t)
	// ~200-byte tuples force multiple pages.
	for i := 0; i < 500; i++ {
		if _, err := h.Insert(value.Tuple{value.Int(int64(i)), value.Str(strings.Repeat("p", 200))}); err != nil {
			t.Fatal(err)
		}
	}
	if h.NumPages() < 10 {
		t.Errorf("only %d pages for 500 fat tuples", h.NumPages())
	}
	n := 0
	h.Scan(func(storage.RID, value.Tuple) error {
		n++
		return nil
	})
	if n != 500 {
		t.Errorf("scan found %d", n)
	}
}

func TestOversizedTupleRejected(t *testing.T) {
	h, _, _, _ := newHeap(t)
	if _, err := h.Insert(value.Tuple{value.Str(strings.Repeat("z", storage.PageSize))}); err == nil {
		t.Error("page-sized tuple accepted")
	}
}

// TestOversizedUpdateRejected: an update to a tuple no page can hold
// fails before any page changes: the old tuple stays and no page is
// added.
func TestOversizedUpdateRejected(t *testing.T) {
	h, _, _, _ := newHeap(t)
	rid, err := h.Insert(row(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Update(rid, value.Tuple{value.Str(strings.Repeat("z", storage.PageSize))}); err == nil {
		t.Fatal("page-sized update accepted")
	}
	if got, err := h.Get(rid); err != nil || value.CompareTuples(got, row(7)) != 0 {
		t.Fatalf("old tuple after a rejected update: %v, %v", got, err)
	}
	if h.Count() != 1 || h.NumPages() != 1 {
		t.Fatalf("rejected update left %d tuples on %d pages, want 1 on 1", h.Count(), h.NumPages())
	}
}

func TestReopenRecoversCount(t *testing.T) {
	dir := t.TempDir()
	mgr, err := storage.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	pool := buffer.NewPool(mgr, 64)
	h, err := Open(pool, mgr, "heap.r")
	if err != nil {
		t.Fatal(err)
	}
	var rids []storage.RID
	for i := 0; i < 300; i++ {
		rid, _ := h.Insert(row(i))
		rids = append(rids, rid)
	}
	h.Delete(rids[5])
	pool.FlushAll()
	mgr.Close()

	mgr2, err := storage.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	pool2 := buffer.NewPool(mgr2, 64)
	h2, err := Open(pool2, mgr2, "heap.r")
	if err != nil {
		t.Fatal(err)
	}
	if h2.Count() != 299 {
		t.Errorf("recovered count = %d, want 299", h2.Count())
	}
	// Inserts continue to work after reopen.
	if _, err := h2.Insert(row(1000)); err != nil {
		t.Fatal(err)
	}
	if h2.Count() != 300 {
		t.Errorf("count after post-reopen insert = %d", h2.Count())
	}
}

// TestConcurrentWritersOnePage runs 4 writers that insert, delete and
// (mostly) update their own rows, all on one page, and holds the heap to a model
// of what each wrote. Writers that edit a page without the heap's mutex
// tear its slot directory; under -race the detector reports the
// unguarded edits.
func TestConcurrentWritersOnePage(t *testing.T) {
	h, _, _, _ := newHeap(t)
	const writers, ops = 4, 200
	models := make([]map[storage.RID]value.Tuple, writers)
	errs := make(chan error, writers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		models[w] = make(map[storage.RID]value.Tuple)
		wg.Add(1)
		go func(w int, model map[storage.RID]value.Tuple) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var live []storage.RID
			<-start
			for i := 0; i < ops; i++ {
				// One row size: an update stays in place, and the page's
				// space, which a delete does not give back, lasts.
				tup := value.Tuple{value.Int(int64(w)), value.Int(int64(i)), value.Str("yyyy")}
				switch op := rng.Intn(6); {
				case op == 0 || len(live) == 0:
					rid, err := h.Insert(tup)
					if err != nil {
						errs <- err
						return
					}
					model[rid] = tup
					live = append(live, rid)
				case op == 1:
					j := rng.Intn(len(live))
					if err := h.Delete(live[j]); err != nil {
						errs <- err
						return
					}
					delete(model, live[j])
					live = append(live[:j], live[j+1:]...)
				default:
					j := rng.Intn(len(live))
					rid, err := h.Update(live[j], tup)
					if err != nil {
						errs <- err
						return
					}
					delete(model, live[j])
					model[rid] = tup
					live[j] = rid
				}
			}
		}(w, models[w])
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := make(map[storage.RID]value.Tuple)
	for _, m := range models {
		for rid, tup := range m {
			want[rid] = tup
		}
	}
	got := 0
	if err := h.Scan(func(rid storage.RID, tup value.Tuple) error {
		got++
		if w, ok := want[rid]; !ok || value.CompareTuples(w, tup) != 0 {
			return fmt.Errorf("%v holds %v, the writers left %v", rid, tup, w)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != len(want) || h.Count() != int64(len(want)) {
		t.Fatalf("scan saw %d rows and Count is %d, the writers left %d", got, h.Count(), len(want))
	}
	if n := h.NumPages(); n != 1 {
		t.Fatalf("the writers spread over %d pages, want 1", n)
	}
}
