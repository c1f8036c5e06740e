package heap

import (
	"errors"
	"fmt"

	"pmv/internal/storage"
	"pmv/internal/value"
)

// WAL-aware heap operations. Normal-path variants stamp the touched
// page with the operation's sequence number (LSN); Apply* variants
// perform idempotent redo during recovery, guarded by the page LSN:
// a record is skipped when the page already reflects it (its stamp is
// at least the record's sequence number).

// InsertLSN appends t, stamping the page with lsn (0 = no stamp; the
// non-WAL path).
func (h *Heap) InsertLSN(t value.Tuple, lsn uint64) (storage.RID, error) {
	rec := value.EncodeTuple(nil, t)
	if err := fits(rec); err != nil {
		return storage.RID{}, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.insertLocked(rec, lsn)
}

// fits rejects a record larger than an empty page can hold.
func fits(rec []byte) error {
	if len(rec) > storage.PageSize-64 {
		return fmt.Errorf("heap: tuple of %d bytes exceeds page capacity", len(rec))
	}
	return nil
}

func (h *Heap) insertLocked(rec []byte, lsn uint64) (storage.RID, error) {
	if h.lastPage != storage.InvalidPageID {
		fr, err := h.pool.Fetch(h.file, h.lastPage)
		if err != nil {
			return storage.RID{}, err
		}
		sp := storage.NewSlottedPage(fr.Buf)
		slot, err := sp.Insert(rec)
		if err == nil {
			if lsn > 0 {
				sp.SetLSN(lsn)
			}
			h.pool.Unpin(fr, true)
			h.count++
			return storage.RID{Page: h.lastPage, Slot: slot}, nil
		}
		h.pool.Unpin(fr, false)
		if !errors.Is(err, storage.ErrPageFull) {
			return storage.RID{}, err
		}
	}
	fr, id, err := h.pool.NewPage(h.file)
	if err != nil {
		return storage.RID{}, err
	}
	sp := storage.NewSlottedPage(fr.Buf)
	sp.Init()
	slot, err := sp.Insert(rec)
	if err != nil {
		h.pool.Unpin(fr, true)
		return storage.RID{}, err
	}
	if lsn > 0 {
		sp.SetLSN(lsn)
	}
	h.pool.Unpin(fr, true)
	h.lastPage = id
	h.count++
	return storage.RID{Page: id, Slot: slot}, nil
}

// DeleteLSN removes the tuple at rid, stamping the page.
func (h *Heap) DeleteLSN(rid storage.RID, lsn uint64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.editLocked(rid, lsn, func(sp *storage.SlottedPage) error { return sp.Delete(rid.Slot) }); err != nil {
		return err
	}
	h.count--
	return nil
}

// UpdateInPlaceLSN rewrites rid's tuple within its page, stamping it.
// It reports storage.ErrPageFull when the new tuple does not fit (the
// WAL path then logs a delete + insert pair instead).
func (h *Heap) UpdateInPlaceLSN(rid storage.RID, t value.Tuple, lsn uint64) error {
	rec := value.EncodeTuple(nil, t)
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.editLocked(rid, lsn, func(sp *storage.SlottedPage) error { return sp.Update(rid.Slot, rec) })
}

// ensurePage extends the heap file (with initialized pages) so that
// page id exists, returning without I/O when it already does.
func (h *Heap) ensurePage(id storage.PageID) error {
	f, err := h.mgr.Open(h.file)
	if err != nil {
		return err
	}
	for f.NumPages() <= id {
		fr, nid, err := h.pool.NewPage(h.file)
		if err != nil {
			return err
		}
		storage.NewSlottedPage(fr.Buf).Init()
		h.pool.Unpin(fr, true)
		if nid > h.lastPage || h.lastPage == storage.InvalidPageID {
			h.lastPage = nid
		}
	}
	if id > h.lastPage || h.lastPage == storage.InvalidPageID {
		h.lastPage = id
	}
	return nil
}

// ApplyInsert redoes an insert at exactly rid. Returns whether the
// record was applied (false: the page already reflected it).
func (h *Heap) ApplyInsert(rid storage.RID, t value.Tuple, lsn uint64) (bool, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.ensurePage(rid.Page); err != nil {
		return false, err
	}
	fr, err := h.pool.Fetch(h.file, rid.Page)
	if err != nil {
		return false, err
	}
	defer h.pool.Unpin(fr, true)
	sp := storage.NewSlottedPage(fr.Buf)
	sp.EnsureInit()
	if sp.LSN() >= lsn {
		return false, nil
	}
	if sp.NumSlots() != rid.Slot {
		return false, fmt.Errorf("heap: redo insert at %v but page has %d slots (lsn %d < %d)",
			rid, sp.NumSlots(), sp.LSN(), lsn)
	}
	slot, err := sp.Insert(value.EncodeTuple(nil, t))
	if err != nil {
		return false, fmt.Errorf("heap: redo insert at %v: %w", rid, err)
	}
	if slot != rid.Slot {
		return false, fmt.Errorf("heap: redo insert landed at slot %d, want %d", slot, rid.Slot)
	}
	sp.SetLSN(lsn)
	h.count++
	return true, nil
}

// ApplyDelete redoes a delete of rid.
func (h *Heap) ApplyDelete(rid storage.RID, lsn uint64) (bool, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.ensurePage(rid.Page); err != nil {
		return false, err
	}
	fr, err := h.pool.Fetch(h.file, rid.Page)
	if err != nil {
		return false, err
	}
	defer h.pool.Unpin(fr, true)
	sp := storage.NewSlottedPage(fr.Buf)
	sp.EnsureInit()
	if sp.LSN() >= lsn {
		return false, nil
	}
	if err := sp.Delete(rid.Slot); err != nil {
		return false, fmt.Errorf("heap: redo delete %v: %w", rid, err)
	}
	sp.SetLSN(lsn)
	h.count--
	return true, nil
}

// ApplyUpdate redoes an in-place update of rid.
func (h *Heap) ApplyUpdate(rid storage.RID, t value.Tuple, lsn uint64) (bool, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.ensurePage(rid.Page); err != nil {
		return false, err
	}
	fr, err := h.pool.Fetch(h.file, rid.Page)
	if err != nil {
		return false, err
	}
	defer h.pool.Unpin(fr, true)
	sp := storage.NewSlottedPage(fr.Buf)
	sp.EnsureInit()
	if sp.LSN() >= lsn {
		return false, nil
	}
	if err := sp.Update(rid.Slot, value.EncodeTuple(nil, t)); err != nil {
		return false, fmt.Errorf("heap: redo update %v: %w", rid, err)
	}
	sp.SetLSN(lsn)
	return true, nil
}
