package heap

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
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

// TestScanAllocs holds a scan's allocations per page, not per row.
// Over a pool smaller than the heap every page is reloaded and copied
// on each scan: one copy per page and the reused row, amortized over
// the page's records. Over resident unchanged pages the copies are
// shared (buffer.Pool.Snapshot): a warm rescan allocates the reused
// row only, nothing per page.
func TestScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not representative under -race")
	}
	const rows = 2000
	load := func(t *testing.T, frames int) *Heap {
		mgr, err := storage.NewManager(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mgr.Close() })
		h, err := Open(buffer.NewPool(mgr, frames), mgr, "heap.t")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if _, err := h.Insert(row(i)); err != nil {
				t.Fatal(err)
			}
		}
		return h
	}
	var chars int
	fn := func(_ storage.RID, tu value.Tuple) error {
		chars += len(tu[1].Str())
		return nil
	}
	scanAllocs := func(t *testing.T, h *Heap) float64 {
		allocs := testing.AllocsPerRun(20, func() {
			if err := h.Scan(fn); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%.0f allocations per scan of %d rows on %d pages", allocs, rows, h.NumPages())
		return allocs
	}
	t.Run("evicting", func(t *testing.T) {
		h := load(t, 4)
		if h.NumPages() <= 4 {
			t.Fatalf("heap has %d pages; the test needs more than the pool's 4", h.NumPages())
		}
		allocs := scanAllocs(t, h)
		if perRow := allocs / rows; perRow >= 0.05 {
			t.Errorf("scan allocates %.3f times per row (%.0f per scan of %d rows on %d pages), want < 0.05",
				perRow, allocs, rows, h.NumPages())
		}
	})
	t.Run("warm", func(t *testing.T) {
		h := load(t, 64)
		if allocs := scanAllocs(t, h); allocs > 1 {
			t.Errorf("warm rescan allocates %.0f times over %d unchanged pages, want the reused row only (1)",
				allocs, h.NumPages())
		}
	})
}

// TestScanMatchesGetUnderWrites interleaves every kind of heap write
// with full scans: insert, in-place and moving update, delete, their
// LSN-stamping forms, and redo (ApplyInsert, ApplyUpdate, ApplyDelete).
// After each write the scan must equal a reference read by Get at
// every live RID. Get reads the frame and the scan the page's
// snapshot, so a write path that unpins its page clean leaves the scan
// on a stale copy and fails here. A 3-frame pool adds eviction and
// reload between writes and scans.
func TestScanMatchesGetUnderWrites(t *testing.T) {
	for _, frames := range []int{3, 64} {
		t.Run(fmt.Sprintf("frames=%d", frames), func(t *testing.T) {
			mgr, err := storage.NewManager(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { mgr.Close() })
			h, err := Open(buffer.NewPool(mgr, frames), mgr, "heap.t")
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(frames)))
			live := map[storage.RID]bool{}
			slots := map[storage.PageID]uint16{} // slots allocated per page, dead ones included
			add := func(rid storage.RID) {
				live[rid] = true
				slots[rid.Page] = max(slots[rid.Page], rid.Slot+1)
			}
			var lsn uint64
			tuple := func(n int) value.Tuple {
				return value.Tuple{value.Int(rng.Int63()), value.Str(strings.Repeat(string(rune('a'+rng.Intn(26))), n))}
			}
			sorted := func() []storage.RID {
				rids := make([]storage.RID, 0, len(live))
				for rid := range live {
					rids = append(rids, rid)
				}
				slices.SortFunc(rids, storage.RID.Compare)
				return rids
			}
			pick := func() (storage.RID, bool) {
				rids := sorted()
				if len(rids) == 0 {
					return storage.RID{}, false
				}
				return rids[rng.Intn(len(rids))], true
			}
			write := func(step int) (string, error) {
				op := rng.Intn(10)
				rid, ok := pick()
				if !ok || step < 100 {
					op = 0
				}
				lsn++
				switch op {
				case 0:
					rid, err := h.Insert(tuple(rng.Intn(120)))
					add(rid)
					return "insert", err
				case 1:
					rid, err := h.InsertLSN(tuple(rng.Intn(120)), lsn)
					add(rid)
					return "insert with lsn", err
				case 2:
					// A tuple no longer than the shortest stored one fits
					// in place.
					_, err := h.Update(rid, tuple(0))
					return "update in place", err
				case 3:
					nrid, err := h.Update(rid, tuple(200))
					delete(live, rid)
					add(nrid)
					return "moving update", err
				case 4:
					return "update in place with lsn", h.UpdateInPlaceLSN(rid, tuple(0), lsn)
				case 5:
					delete(live, rid)
					return "delete", h.Delete(rid)
				case 6:
					delete(live, rid)
					return "delete with lsn", h.DeleteLSN(rid, lsn)
				case 7:
					// Redo onto the last page's next slot, or onto a new
					// page when the last one is full.
					last := storage.PageID(h.NumPages() - 1)
					nrid := storage.RID{Page: last, Slot: slots[last]}
					applied, err := h.ApplyInsert(nrid, tuple(rng.Intn(20)), lsn)
					if errors.Is(err, storage.ErrPageFull) {
						nrid = storage.RID{Page: last + 1}
						applied, err = h.ApplyInsert(nrid, tuple(rng.Intn(20)), lsn)
					}
					if err == nil && !applied {
						err = fmt.Errorf("redo insert at %v not applied", nrid)
					}
					add(nrid)
					return "redo insert", err
				case 8:
					applied, err := h.ApplyUpdate(rid, tuple(0), lsn)
					if err == nil && !applied {
						err = fmt.Errorf("redo update of %v not applied", rid)
					}
					return "redo update", err
				default:
					applied, err := h.ApplyDelete(rid, lsn)
					if err == nil && !applied {
						err = fmt.Errorf("redo delete of %v not applied", rid)
					}
					delete(live, rid)
					return "redo delete", err
				}
			}
			type rec struct {
				rid storage.RID
				t   value.Tuple
			}
			for step := 0; step < 600; step++ {
				what, err := write(step)
				if err != nil {
					t.Fatalf("step %d, %s: %v", step, what, err)
				}
				var want []rec
				for _, rid := range sorted() {
					tu, err := h.Get(rid)
					if err != nil {
						t.Fatalf("step %d, after %s: get %v: %v", step, what, rid, err)
					}
					want = append(want, rec{rid, tu})
				}
				var got []rec
				if err := h.Scan(func(rid storage.RID, tu value.Tuple) error {
					got = append(got, rec{rid, tu.Clone()})
					return nil
				}); err != nil {
					t.Fatalf("step %d, after %s: scan: %v", step, what, err)
				}
				if len(got) != len(want) {
					t.Fatalf("step %d, after %s: scan met %d rows, Get reads %d", step, what, len(got), len(want))
				}
				for i := range want {
					if got[i].rid != want[i].rid || value.CompareTuples(got[i].t, want[i].t) != 0 {
						t.Fatalf("step %d, after %s: scan row %d is %v %v, Get reads %v %v",
							step, what, i, got[i].rid, got[i].t, want[i].rid, want[i].t)
					}
				}
			}
		})
	}
}
