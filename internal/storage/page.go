// Package storage implements the on-disk layout of the engine: fixed
// 8 KiB pages, a slotted-page record format, per-relation heap files,
// and a disk manager that owns the file handles and counts physical
// I/Os (the unit the paper's Section 4.3 cost model is expressed in).
package storage

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the fixed size of every on-disk page.
const PageSize = 8192

// PageTrailer is reserved at the end of every page for a CRC-32
// checksum, computed by the buffer pool on write-back and verified on
// read. Page content (slotted records, B+tree nodes) must stay within
// PageDataSize bytes.
const PageTrailer = 4

// PageDataSize is the page capacity available to content.
const PageDataSize = PageSize - PageTrailer

// PageID identifies a page within one file.
type PageID uint32

// InvalidPageID marks "no page" in page headers and links.
const InvalidPageID = PageID(0xFFFFFFFF)

// RID addresses a record: page plus slot within the page.
type RID struct {
	Page PageID
	Slot uint16
}

// String renders the RID for diagnostics.
func (r RID) String() string { return fmt.Sprintf("(%d,%d)", r.Page, r.Slot) }

// Compare orders RIDs by (page, slot).
func (r RID) Compare(o RID) int {
	switch {
	case r.Page < o.Page:
		return -1
	case r.Page > o.Page:
		return 1
	case r.Slot < o.Slot:
		return -1
	case r.Slot > o.Slot:
		return 1
	default:
		return 0
	}
}

// Slotted page layout:
//
//	offset 0:  u32 next page id (free-list / heap chain link)
//	offset 4:  u16 slot count
//	offset 6:  u16 free-space start (grows up from the header)
//	offset 8:  u16 free-space end   (record data grows down from PageSize)
//	offset 10: u64 page LSN (last WAL record applied; redo guard)
//	offset 18: slot array: per slot u16 offset, u16 length
//	           (offset 0xFFFF = dead slot)
//	...
//	records packed at the tail of the page
const (
	slotDead     = 0xFFFF
	pageHdrSize  = 18
	slotEntrySiz = 4
)

// SlottedPage is a view over one page's bytes providing record
// insert/read/delete. It does not own the buffer.
type SlottedPage struct {
	buf []byte
}

// NewSlottedPage wraps buf (which must be PageSize long).
func NewSlottedPage(buf []byte) *SlottedPage {
	if len(buf) != PageSize {
		panic(fmt.Sprintf("storage: page buffer is %d bytes, want %d", len(buf), PageSize))
	}
	return &SlottedPage{buf: buf}
}

// Init formats the page as an empty slotted page.
func (p *SlottedPage) Init() {
	p.SetNextPage(InvalidPageID)
	binary.BigEndian.PutUint16(p.buf[4:], 0)
	binary.BigEndian.PutUint16(p.buf[6:], pageHdrSize)
	binary.BigEndian.PutUint16(p.buf[8:], PageDataSize)
	p.SetLSN(0)
}

// LSN returns the page's log sequence number: the LSN of the last WAL
// record whose effect is reflected in the page. Redo applies a record
// only when the record's LSN exceeds the page LSN.
func (p *SlottedPage) LSN() uint64 {
	return binary.BigEndian.Uint64(p.buf[10:])
}

// SetLSN stores the page LSN.
func (p *SlottedPage) SetLSN(lsn uint64) {
	binary.BigEndian.PutUint64(p.buf[10:], lsn)
}

// EnsureInit formats the page if it has never been initialized. A
// freshly allocated page is all zeros, and a zero free-space end is
// impossible on a formatted page (Init sets it to PageSize), so that
// field doubles as the initialization marker. Recovery uses this when
// redo reaches a page the crashed process allocated but never flushed.
func (p *SlottedPage) EnsureInit() {
	if p.freeEnd() == 0 {
		p.Init()
	}
}

// NextPage returns the chained page id stored in the header.
func (p *SlottedPage) NextPage() PageID {
	return PageID(binary.BigEndian.Uint32(p.buf[0:]))
}

// SetNextPage stores the chained page id.
func (p *SlottedPage) SetNextPage(id PageID) {
	binary.BigEndian.PutUint32(p.buf[0:], uint32(id))
}

// NumSlots returns the slot-array length, including dead slots.
func (p *SlottedPage) NumSlots() uint16 { return numSlots(p.buf) }

func (p *SlottedPage) freeStart() uint16 { return binary.BigEndian.Uint16(p.buf[6:]) }
func (p *SlottedPage) freeEnd() uint16   { return binary.BigEndian.Uint16(p.buf[8:]) }

// FreeSpace returns the bytes available for one more record, accounting
// for its slot entry.
func (p *SlottedPage) FreeSpace() int {
	free := int(p.freeEnd()) - int(p.freeStart()) - slotEntrySiz
	if free < 0 {
		return 0
	}
	return free
}

// Insert stores rec and returns its slot. It fails if the page is full.
func (p *SlottedPage) Insert(rec []byte) (uint16, error) {
	if len(rec) > p.FreeSpace() {
		return 0, ErrPageFull
	}
	slot := p.NumSlots()
	end := p.freeEnd() - uint16(len(rec))
	copy(p.buf[end:], rec)
	slotOff := pageHdrSize + int(slot)*slotEntrySiz
	binary.BigEndian.PutUint16(p.buf[slotOff:], end)
	binary.BigEndian.PutUint16(p.buf[slotOff+2:], uint16(len(rec)))
	binary.BigEndian.PutUint16(p.buf[4:], slot+1)
	binary.BigEndian.PutUint16(p.buf[6:], uint16(slotOff+slotEntrySiz))
	binary.BigEndian.PutUint16(p.buf[8:], end)
	return slot, nil
}

// Read returns the record at slot, or nil if the slot is dead or out of
// range. The returned slice aliases the page buffer.
func (p *SlottedPage) Read(slot uint16) []byte {
	rec, _ := readSlot(p.buf, slot)
	return rec
}

// PageCopy is an immutable copy of a slotted page's bytes, made by
// converting the page buffer (PageCopy(buf)). Nothing writes it, so it
// needs no pin, and the records read from it are substrings that stay
// valid for as long as anything holds them.
type PageCopy string

// NumSlots is SlottedPage.NumSlots of the copy.
func (p PageCopy) NumSlots() uint16 { return numSlots(string(p)) }

// Read is SlottedPage.Read of the copy: the record at slot as a
// substring of p, and false if the slot is dead or out of range.
func (p PageCopy) Read(slot uint16) (string, bool) { return readSlot(string(p), slot) }

// numSlots and readSlot are the slot directory's read side, one body
// for a live page buffer and for a PageCopy.
func numSlots[B []byte | string](b B) uint16 { return be16(b, 4) }

func readSlot[B []byte | string](b B, slot uint16) (B, bool) {
	var none B
	if slot >= numSlots(b) {
		return none, false
	}
	slotOff := pageHdrSize + int(slot)*slotEntrySiz
	off := be16(b, slotOff)
	if off == slotDead {
		return none, false
	}
	length := be16(b, slotOff+2)
	return b[off : off+length], true
}

func be16[B []byte | string](b B, off int) uint16 {
	_ = b[off+1]
	return uint16(b[off])<<8 | uint16(b[off+1])
}

// Delete marks the slot dead. Space is not compacted; heap files are
// append-mostly and vacuuming is out of scope.
func (p *SlottedPage) Delete(slot uint16) error {
	if slot >= p.NumSlots() {
		return fmt.Errorf("storage: delete slot %d of %d: %w", slot, p.NumSlots(), ErrBadSlot)
	}
	slotOff := pageHdrSize + int(slot)*slotEntrySiz
	if binary.BigEndian.Uint16(p.buf[slotOff:]) == slotDead {
		return fmt.Errorf("storage: slot %d already dead: %w", slot, ErrBadSlot)
	}
	binary.BigEndian.PutUint16(p.buf[slotOff:], slotDead)
	return nil
}

// Update replaces the record at slot in place when the new record fits
// in the old record's space; otherwise it reports ErrPageFull and the
// caller must delete + re-insert elsewhere.
func (p *SlottedPage) Update(slot uint16, rec []byte) error {
	if slot >= p.NumSlots() {
		return fmt.Errorf("storage: update slot %d of %d: %w", slot, p.NumSlots(), ErrBadSlot)
	}
	slotOff := pageHdrSize + int(slot)*slotEntrySiz
	off := binary.BigEndian.Uint16(p.buf[slotOff:])
	if off == slotDead {
		return fmt.Errorf("storage: update dead slot %d: %w", slot, ErrBadSlot)
	}
	oldLen := binary.BigEndian.Uint16(p.buf[slotOff+2:])
	if len(rec) > int(oldLen) {
		return ErrPageFull
	}
	copy(p.buf[off:], rec)
	binary.BigEndian.PutUint16(p.buf[slotOff+2:], uint16(len(rec)))
	return nil
}
