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
	fr, err := h.pool.Fetch(h.file, rid.Page)
	if err != nil {
		return err
	}
	sp := storage.NewSlottedPage(fr.Buf)
	if sp.Read(rid.Slot) == nil {
		h.pool.Unpin(fr, false)
		return fmt.Errorf("heap: %v: %w", rid, ErrNotFound)
	}
	if err := sp.Delete(rid.Slot); err != nil {
		h.pool.Unpin(fr, false)
		return err
	}
	h.pool.Unpin(fr, true)
	h.mu.Lock()
	h.count--
	h.mu.Unlock()
	return nil
}

// Update rewrites the tuple at rid in place if it fits, otherwise
// deletes it and re-inserts, returning the (possibly new) RID.
func (h *Heap) Update(rid storage.RID, t value.Tuple) (storage.RID, error) {
	rec := value.EncodeTuple(nil, t)
	fr, err := h.pool.Fetch(h.file, rid.Page)
	if err != nil {
		return storage.RID{}, err
	}
	sp := storage.NewSlottedPage(fr.Buf)
	if sp.Read(rid.Slot) == nil {
		h.pool.Unpin(fr, false)
		return storage.RID{}, fmt.Errorf("heap: %v: %w", rid, ErrNotFound)
	}
	err = sp.Update(rid.Slot, rec)
	if err == nil {
		h.pool.Unpin(fr, true)
		return rid, nil
	}
	if !errors.Is(err, storage.ErrPageFull) {
		h.pool.Unpin(fr, false)
		return storage.RID{}, err
	}
	// Does not fit: delete here, insert elsewhere.
	if err := sp.Delete(rid.Slot); err != nil {
		h.pool.Unpin(fr, false)
		return storage.RID{}, err
	}
	h.pool.Unpin(fr, true)
	h.mu.Lock()
	h.count--
	h.mu.Unlock()
	return h.Insert(t)
}

// Scan calls fn for every live tuple in RID order. fn returning
// ErrStopScan ends the scan without error.
func (h *Heap) Scan(fn func(storage.RID, value.Tuple) error) error {
	h.mu.Lock()
	last := h.lastPage
	h.mu.Unlock()
	if last == storage.InvalidPageID {
		return nil
	}
	for pid := storage.PageID(0); pid <= last; pid++ {
		fr, err := h.pool.Fetch(h.file, pid)
		if err != nil {
			return err
		}
		sp := storage.NewSlottedPage(fr.Buf)
		n := sp.NumSlots()
		for slot := uint16(0); slot < n; slot++ {
			rec := sp.Read(slot)
			if rec == nil {
				continue
			}
			t, _, err := value.DecodeTuple(rec)
			if err != nil {
				h.pool.Unpin(fr, false)
				return err
			}
			if err := fn(storage.RID{Page: pid, Slot: slot}, t); err != nil {
				h.pool.Unpin(fr, false)
				if errors.Is(err, ErrStopScan) {
					return nil
				}
				return err
			}
		}
		h.pool.Unpin(fr, false)
	}
	return nil
}

// ErrStopScan signals early scan termination from a Scan callback.
var ErrStopScan = errors.New("heap: stop scan")
