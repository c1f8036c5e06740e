package heap

import (
	"strings"
	"testing"

	"pmv/internal/buffer"
	"pmv/internal/storage"
	"pmv/internal/value"
)

// TestNestedScanOneFrame runs a scan inside another's callback over a
// one-frame pool: the outer scan must hold no pin while its callback
// runs, or the inner Fetch finds every frame pinned.
func TestNestedScanOneFrame(t *testing.T) {
	mgr, err := storage.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	pool := buffer.NewPool(mgr, 1)
	a, err := Open(pool, mgr, "heap.a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(pool, mgr, "heap.b")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		for _, h := range []*Heap{a, b} {
			if _, err := h.Insert(row(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if a.NumPages() < 2 {
		t.Fatalf("heap a has %d pages; the test needs several", a.NumPages())
	}
	pairs := 0
	err = a.Scan(func(_ storage.RID, x value.Tuple) error {
		return b.Scan(func(_ storage.RID, y value.Tuple) error {
			if x[0].Int64()%100 == 0 && y[0].Int64()%100 == 0 {
				pairs++
			}
			return nil
		})
	})
	if err != nil {
		t.Fatalf("nested scan: %v", err)
	}
	if pairs != 9 {
		t.Errorf("nested scan met %d pairs, want 9", pairs)
	}
}

// TestScanKeptStringsSurviveRewrite keeps the strings a scan hands out,
// then rewrites their page: one slot updated in place with other bytes,
// one deleted and its space reused by an insert. The kept strings and a
// clone of the row must still read what the scan saw.
func TestScanKeptStringsSurviveRewrite(t *testing.T) {
	h, _, _, _ := newHeap(t)
	var rids []storage.RID
	for i := 0; i < 10; i++ {
		rid, err := h.Insert(value.Tuple{value.Int(int64(i)), value.Str(strings.Repeat(string(rune('a'+i)), 20))})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	kept := map[int64]string{}
	var clone value.Tuple
	if err := h.Scan(func(rid storage.RID, tu value.Tuple) error {
		kept[tu[0].Int64()] = tu[1].Str()
		if rid == rids[3] {
			clone = tu.Clone()
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Update(rids[3], value.Tuple{value.Int(3), value.Str(strings.Repeat("Z", 20))}); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(rids[5]); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Insert(value.Tuple{value.Int(50), value.Str(strings.Repeat("Y", 20))}); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if want := strings.Repeat(string(rune('a'+i)), 20); kept[i] != want {
			t.Errorf("kept string of row %d = %q after the rewrite, want %q", i, kept[i], want)
		}
	}
	if clone[0].Int64() != 3 || clone[1].Str() != strings.Repeat("d", 20) {
		t.Errorf("cloned row = %v after the rewrite", clone)
	}
	got, err := h.Get(rids[3])
	if err != nil || got[1].Str() != strings.Repeat("Z", 20) {
		t.Errorf("rewritten row = %v, %v", got, err)
	}
}

// TestScanAllocs holds a scan's allocations per page, not per row: a
// page copy and the reused row, amortized over the page's records.
func TestScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not representative under -race")
	}
	h, _, _, _ := newHeap(t)
	const rows = 2000
	for i := 0; i < rows; i++ {
		if _, err := h.Insert(row(i)); err != nil {
			t.Fatal(err)
		}
	}
	var chars int
	fn := func(_ storage.RID, tu value.Tuple) error {
		chars += len(tu[1].Str())
		return nil
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := h.Scan(fn); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per scan of %d rows on %d pages", allocs, rows, h.NumPages())
	if perRow := allocs / rows; perRow >= 0.05 {
		t.Errorf("scan allocates %.3f times per row (%.0f per scan of %d rows on %d pages), want < 0.05",
			perRow, allocs, rows, h.NumPages())
	}
}
