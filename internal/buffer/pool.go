// Package buffer implements a pin-counted buffer pool over the disk
// manager with CLOCK (second-chance) replacement — the same policy the
// paper assumes for the host DBMS's buffer pool. The pool exposes
// hit/miss counters so experiments can attribute the PMV's speed to
// memory residency, as Section 4.2 does.
package buffer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"pmv/internal/storage"
)

// ErrNoFrames is returned when every frame is pinned and nothing can be
// evicted.
var ErrNoFrames = errors.New("buffer: all frames pinned")

// ErrCorruptPage is returned when a page read from disk fails its
// checksum (a torn write or external corruption).
var ErrCorruptPage = errors.New("buffer: corrupt page")

// PageTag names a page globally: file name plus page id.
type PageTag struct {
	File string
	Page storage.PageID
}

// Frame is one resident page. Callers access Buf only while holding a
// pin, and must declare writes via Unpin(dirty=true): the frame's
// snapshot (Pool.Snapshot) is retired only by such an Unpin.
type Frame struct {
	tag   PageTag
	Buf   []byte
	pins  int
	ref   bool
	dirty bool
	valid bool
	// snap is an immutable copy of the page as it stands, "" until
	// Snapshot makes one. A dirty Unpin and the page's leaving the pool
	// drop it, so a load from disk and NewPage start without one.
	snap storage.PageCopy
}

// Tag returns the identity of the page held by the frame.
func (f *Frame) Tag() PageTag { return f.tag }

// Pool is a fixed-size buffer pool.
type Pool struct {
	mgr    *storage.Manager
	mu     sync.Mutex
	frames []Frame
	table  map[PageTag]int
	hand   int

	hits   atomic.Int64
	misses atomic.Int64

	// PreFlush, when set, runs before any dirty page is written back —
	// the write-ahead hook: the engine points it at the WAL's Sync so
	// no page ever reaches disk before the records that produced it.
	// It must not call back into the pool.
	PreFlush func() error
}

// NewPool creates a pool of size frames backed by mgr.
func NewPool(mgr *storage.Manager, size int) *Pool {
	if size < 1 {
		size = 1
	}
	p := &Pool{
		mgr:    mgr,
		frames: make([]Frame, size),
		table:  make(map[PageTag]int, size),
	}
	for i := range p.frames {
		p.frames[i].Buf = make([]byte, storage.PageSize)
	}
	return p
}

// Stats returns cumulative hit and miss counts.
func (p *Pool) Stats() (hits, misses int64) {
	return p.hits.Load(), p.misses.Load()
}

// Size returns the number of frames.
func (p *Pool) Size() int { return len(p.frames) }

// Fetch pins the page and returns its frame, reading from disk on miss.
func (p *Pool) Fetch(file string, id storage.PageID) (*Frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	i, err := p.residentLocked(PageTag{File: file, Page: id})
	if err != nil {
		return nil, err
	}
	fr := &p.frames[i]
	fr.pins++
	return fr, nil
}

// residentLocked returns the index of the frame holding the page,
// reading it from disk on a miss, and marks the frame referenced. It
// pins nothing.
func (p *Pool) residentLocked(tag PageTag) (int, error) {
	if i, ok := p.table[tag]; ok {
		p.frames[i].ref = true
		p.hits.Add(1)
		return i, nil
	}
	p.misses.Add(1)
	i, err := p.victimLocked()
	if err != nil {
		return 0, err
	}
	fr := &p.frames[i]
	f, err := p.mgr.Open(tag.File)
	if err != nil {
		return 0, err
	}
	if err := f.ReadPage(tag.Page, fr.Buf); err != nil {
		fr.valid = false
		return 0, err
	}
	if err := verifyChecksum(fr.Buf, tag); err != nil {
		fr.valid = false
		return 0, err
	}
	fr.tag = tag
	fr.pins = 0
	fr.ref = true
	fr.dirty = false
	fr.valid = true
	p.table[tag] = i
	return i, nil
}

// NewPage allocates a fresh page in file, pins it, and returns the
// frame and new page id. The frame starts zeroed and dirty.
func (p *Pool) NewPage(file string) (*Frame, storage.PageID, error) {
	f, err := p.mgr.Open(file)
	if err != nil {
		return nil, storage.InvalidPageID, err
	}
	id, err := f.Allocate()
	if err != nil {
		return nil, storage.InvalidPageID, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	i, err := p.victimLocked()
	if err != nil {
		return nil, storage.InvalidPageID, err
	}
	fr := &p.frames[i]
	clear(fr.Buf)
	fr.tag = PageTag{File: file, Page: id}
	fr.pins = 1
	fr.ref = true
	fr.dirty = true
	fr.valid = true
	p.table[fr.tag] = i
	return fr, id, nil
}

// Unpin releases one pin; dirty marks the page as modified.
func (p *Pool) Unpin(fr *Frame, dirty bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if fr.pins <= 0 {
		panic(fmt.Sprintf("buffer: unpin of unpinned page %v", fr.tag))
	}
	fr.pins--
	if dirty {
		fr.dirty = true
		fr.snap = ""
	}
}

// Snapshot returns an immutable copy of the page, reading it from disk
// on a miss like Fetch, but leaves no pin. The copy is made once per
// version of the page and shared by every caller until the page
// changes (a dirty Unpin) or leaves the pool, so rereading an
// unchanged resident page copies and allocates nothing. Strings read
// from a copy stay valid, and unchanged, after the page changes.
//
// The copy is taken under the pool's mutex but without a page latch,
// as reads of a pinned frame are: a copy made while a writer holds its
// pin may predate that write, and the writer's dirty Unpin, which
// takes the same mutex, retires it, so the next Snapshot copies again.
func (p *Pool) Snapshot(file string, id storage.PageID) (storage.PageCopy, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	i, err := p.residentLocked(PageTag{File: file, Page: id})
	if err != nil {
		return "", err
	}
	fr := &p.frames[i]
	if fr.snap == "" {
		fr.snap = storage.PageCopy(fr.Buf)
	}
	return fr.snap, nil
}

// FlushAll writes every dirty page back to disk. Pages stay resident.
func (p *Pool) FlushAll() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.frames {
		if err := p.flushLocked(&p.frames[i]); err != nil {
			return err
		}
	}
	return nil
}

// SyncFile writes back the dirty pages of one file and fsyncs it, so
// the file is durable without a checkpoint. Pages stay resident.
func (p *Pool) SyncFile(file string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.frames {
		if fr := &p.frames[i]; fr.tag.File == file {
			if err := p.flushLocked(fr); err != nil {
				return err
			}
		}
	}
	f, err := p.mgr.Open(file)
	if err != nil {
		return err
	}
	return f.Sync()
}

// FlushFile writes back dirty pages of one file and drops them from the
// pool (used when a relation is dropped).
func (p *Pool) FlushFile(file string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.frames {
		fr := &p.frames[i]
		if !fr.valid || fr.tag.File != file {
			continue
		}
		if fr.pins > 0 {
			return fmt.Errorf("buffer: flush of pinned page %v", fr.tag)
		}
		if err := p.flushLocked(fr); err != nil {
			return err
		}
		p.dropLocked(fr)
	}
	return nil
}

// DiscardFile drops every resident page of file without writing any of
// them back (used when a file is about to be deleted, e.g. an index
// rebuild during recovery). Pinned pages make it fail.
func (p *Pool) DiscardFile(file string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.frames {
		fr := &p.frames[i]
		if !fr.valid || fr.tag.File != file {
			continue
		}
		if fr.pins > 0 {
			return fmt.Errorf("buffer: discard of pinned page %v", fr.tag)
		}
		p.dropLocked(fr)
		fr.dirty = false
	}
	return nil
}

// dropLocked takes fr's page out of the pool and frees its snapshot.
func (p *Pool) dropLocked(fr *Frame) {
	delete(p.table, fr.tag)
	fr.valid = false
	fr.snap = ""
}

func (p *Pool) flushLocked(fr *Frame) error {
	if !fr.valid || !fr.dirty {
		return nil
	}
	if p.PreFlush != nil {
		if err := p.PreFlush(); err != nil {
			return err
		}
	}
	f, err := p.mgr.Open(fr.tag.File)
	if err != nil {
		return err
	}
	stampChecksum(fr.Buf)
	if err := f.WritePage(fr.tag.Page, fr.Buf); err != nil {
		return err
	}
	fr.dirty = false
	return nil
}

// stampChecksum writes the CRC-32 of the page content into the
// trailer. A computed value of zero is stored as 1 so that a stored
// zero unambiguously means "never checksummed" (e.g. a freshly
// allocated page the crashed process never wrote back).
func stampChecksum(buf []byte) {
	sum := crc32.ChecksumIEEE(buf[:storage.PageDataSize])
	if sum == 0 {
		sum = 1
	}
	binary.BigEndian.PutUint32(buf[storage.PageDataSize:], sum)
}

// verifyChecksum validates a page read from disk.
func verifyChecksum(buf []byte, tag PageTag) error {
	stored := binary.BigEndian.Uint32(buf[storage.PageDataSize:])
	if stored == 0 {
		return nil // never written back: nothing to verify
	}
	sum := crc32.ChecksumIEEE(buf[:storage.PageDataSize])
	if sum == 0 {
		sum = 1
	}
	if sum != stored {
		return fmt.Errorf("buffer: checksum mismatch on page %v (stored %08x, computed %08x): %w",
			tag, stored, sum, ErrCorruptPage)
	}
	return nil
}

// victimLocked finds a free or evictable frame using CLOCK and returns
// its index. An evicted page leaves the table and frees its snapshot.
func (p *Pool) victimLocked() (int, error) {
	n := len(p.frames)
	// Two full sweeps: the first clears reference bits, the second must
	// find an unpinned frame if one exists.
	for sweep := 0; sweep < 2*n; sweep++ {
		i := p.hand
		fr := &p.frames[i]
		p.hand = (p.hand + 1) % n
		if !fr.valid {
			return i, nil
		}
		if fr.pins > 0 {
			continue
		}
		if fr.ref {
			fr.ref = false
			continue
		}
		if err := p.flushLocked(fr); err != nil {
			return 0, err
		}
		p.dropLocked(fr)
		return i, nil
	}
	return 0, ErrNoFrames
}
