// Package heap implements heap files: unordered collections of tuples
// stored in slotted pages reached through the buffer pool. A heap file
// is the physical body of one relation.
package heap

import (
	"errors"
	"fmt"
	"sync"

	"pmv/internal/buffer"
	"pmv/internal/storage"
	"pmv/internal/value"
)

// ErrNotFound is returned when a RID does not name a live tuple.
var ErrNotFound = errors.New("heap: tuple not found")

// Heap is one heap file.
type Heap struct {
	pool *buffer.Pool
	mgr  *storage.Manager
	file string

	// mu is held across every page edit (insert, delete, update and
	// redo), so the heap has one writer at a time.
	mu       sync.Mutex
	lastPage storage.PageID // insertion hint; InvalidPageID before first page
	count    int64          // live tuple count
}

// Open returns a heap over the named file. Existing pages are scanned
// once to recover the live tuple count.
func Open(pool *buffer.Pool, mgr *storage.Manager, file string) (*Heap, error) {
	h := &Heap{pool: pool, mgr: mgr, file: file, lastPage: storage.InvalidPageID}
	f, err := mgr.Open(file)
	if err != nil {
		return nil, err
	}
	n := f.NumPages()
	if n > 0 {
		h.lastPage = n - 1
		if err := h.Scan(func(storage.RID, value.Tuple) error {
			h.count++
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// File returns the underlying file name.
func (h *Heap) File() string { return h.file }

// Count returns the number of live tuples.
func (h *Heap) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// NumPages returns the number of allocated pages.
func (h *Heap) NumPages() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.lastPage == storage.InvalidPageID {
		return 0
	}
	return int(h.lastPage) + 1
}

// Insert appends t and returns its RID.
func (h *Heap) Insert(t value.Tuple) (storage.RID, error) {
	return h.InsertLSN(t, 0)
}

// Get returns the tuple at rid.
func (h *Heap) Get(rid storage.RID) (value.Tuple, error) {
	return h.AppendGet(nil, rid, nil)
}

// AppendGet decodes the tuple at rid onto the end of dst and returns
// the extended row; a non-nil mask decodes only the columns it marks
// and leaves the others NULL (see value.AppendDecoded).
func (h *Heap) AppendGet(dst value.Tuple, rid storage.RID, mask []bool) (value.Tuple, error) {
	fr, err := h.pool.Fetch(h.file, rid.Page)
	if err != nil {
		return nil, err
	}
	defer h.pool.Unpin(fr, false)
	sp := storage.NewSlottedPage(fr.Buf)
	rec := sp.Read(rid.Slot)
	if rec == nil {
		return nil, fmt.Errorf("heap: %v: %w", rid, ErrNotFound)
	}
	t, _, err := value.AppendDecoded(dst, rec, mask)
	return t, err
}

// Delete removes the tuple at rid.
func (h *Heap) Delete(rid storage.RID) error {
	return h.DeleteLSN(rid, 0)
}

// Update rewrites the tuple at rid in place if it fits, otherwise
// deletes it and re-inserts, returning the (possibly new) RID. Both
// halves of a move run under one hold of h.mu. A tuple no page can
// hold is rejected before any page changes.
func (h *Heap) Update(rid storage.RID, t value.Tuple) (storage.RID, error) {
	rec := value.EncodeTuple(nil, t)
	if err := fits(rec); err != nil {
		return storage.RID{}, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	err := h.editLocked(rid, 0, func(sp *storage.SlottedPage) error { return sp.Update(rid.Slot, rec) })
	if !errors.Is(err, storage.ErrPageFull) {
		if err != nil {
			return storage.RID{}, err
		}
		return rid, nil
	}
	// Does not fit: delete here, insert elsewhere.
	if err := h.editLocked(rid, 0, func(sp *storage.SlottedPage) error { return sp.Delete(rid.Slot) }); err != nil {
		return storage.RID{}, err
	}
	h.count--
	return h.insertLocked(rec, 0)
}

// editLocked applies edit to the page of rid, which must name a live
// tuple, and stamps the page with lsn (0 = no stamp) when edit
// succeeds. Caller holds h.mu.
func (h *Heap) editLocked(rid storage.RID, lsn uint64, edit func(*storage.SlottedPage) error) error {
	fr, err := h.pool.Fetch(h.file, rid.Page)
	if err != nil {
		return err
	}
	sp := storage.NewSlottedPage(fr.Buf)
	if sp.Read(rid.Slot) == nil {
		h.pool.Unpin(fr, false)
		return fmt.Errorf("heap: %v: %w", rid, ErrNotFound)
	}
	if err := edit(sp); err != nil {
		h.pool.Unpin(fr, false)
		return err
	}
	if lsn > 0 {
		sp.SetLSN(lsn)
	}
	h.pool.Unpin(fr, true)
	return nil
}

// Scan calls fn for every live tuple in RID order. fn returning
// ErrStopScan ends the scan without error.
//
// Each page is read through its snapshot (buffer.Pool.Snapshot), an
// immutable copy made once per version of the page, so rescanning
// unchanged resident pages copies nothing. Its records are decoded
// from the copy into one row reused for the whole scan, so a scan
// allocates at most once per changed page, not per row, and holds no
// pin: fn may read other pages, this heap included. t belongs to fn
// only until fn returns; a caller that keeps the row clones it
// (value.Tuple.Clone). Its strings are substrings of the immutable
// copy, so a kept value or clone stays intact after the page changes
// (and keeps the copy alive).
func (h *Heap) Scan(fn func(rid storage.RID, t value.Tuple) error) error {
	h.mu.Lock()
	last := h.lastPage
	h.mu.Unlock()
	if last == storage.InvalidPageID {
		return nil
	}
	var row value.Tuple
	for pid := storage.PageID(0); pid <= last; pid++ {
		page, err := h.pool.Snapshot(h.file, pid)
		if err != nil {
			return err
		}
		n := page.NumSlots()
		for slot := uint16(0); slot < n; slot++ {
			rec, ok := page.Read(slot)
			if !ok {
				continue
			}
			row, _, err = value.AppendDecodedString(row[:0], rec, nil)
			if err != nil {
				return err
			}
			if err := fn(storage.RID{Page: pid, Slot: slot}, row); err != nil {
				if errors.Is(err, ErrStopScan) {
					return nil
				}
				return err
			}
		}
	}
	return nil
}

// ErrStopScan signals early scan termination from a Scan callback.
var ErrStopScan = errors.New("heap: stop scan")
