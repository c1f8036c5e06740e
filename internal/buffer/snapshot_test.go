package buffer

import (
	"testing"
	"unsafe"

	"pmv/internal/storage"
)

// TestSnapshotSharedUntilWrite pins when Snapshot copies: once per
// version of a resident page. A rescan of unchanged pages shares the
// copies, allocates nothing and leaves no pin; a dirty Unpin (also one
// made after the copy was taken under the writer's pin) gives a new
// copy holding the write while strings kept from the old copy stay as
// they were; a clean Unpin keeps the copy; eviction and a reload give
// a fresh one.
func TestSnapshotSharedUntilWrite(t *testing.T) {
	p, _ := newPool(t, 4)
	var ids []storage.PageID
	for i := 0; i < 3; i++ {
		fr, id, err := p.NewPage("f")
		if err != nil {
			t.Fatal(err)
		}
		copy(fr.Buf[100:], "page"+string(rune('0'+i)))
		p.Unpin(fr, true)
		ids = append(ids, id)
	}
	snap := func(id storage.PageID) storage.PageCopy {
		t.Helper()
		s, err := p.Snapshot("f", id)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	same := func(a, b storage.PageCopy) bool {
		return unsafe.StringData(string(a)) == unsafe.StringData(string(b))
	}

	first := make([]storage.PageCopy, len(ids))
	for i, id := range ids {
		first[i] = snap(id)
		if got := string(first[i][100:105]); got != "page"+string(rune('0'+i)) {
			t.Fatalf("page %d snapshot reads %q", id, got)
		}
	}
	for i, id := range ids {
		if !same(snap(id), first[i]) {
			t.Errorf("page %d: a rescan of the unchanged page made a new copy", id)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, id := range ids {
			snap(id)
		}
	})
	if allocs != 0 {
		t.Errorf("rescan of %d unchanged pages allocates %.1f times, want 0", len(ids), allocs)
	}
	for i := range p.frames {
		if n := p.frames[i].pins; n != 0 {
			t.Errorf("frame %d holds %d pins after snapshots, want 0", i, n)
		}
	}

	// A clean Unpin keeps the copy; a dirty one retires it.
	kept := string(first[0][100:105])
	fr, err := p.Fetch("f", ids[0])
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(fr, false)
	if !same(snap(ids[0]), first[0]) {
		t.Error("a clean Unpin retired the copy")
	}
	if fr, err = p.Fetch("f", ids[0]); err != nil {
		t.Fatal(err)
	}
	copy(fr.Buf[100:], "WRITE")
	p.Unpin(fr, true)
	after := snap(ids[0])
	if same(after, first[0]) || string(after[100:105]) != "WRITE" {
		t.Errorf("after a dirty Unpin the snapshot reads %q, want a new copy with the write", after[100:105])
	}
	if kept != "page0" || string(first[0][100:105]) != "page0" {
		t.Errorf("old copy reads %q, kept string %q after the write; both want %q", first[0][100:105], kept, "page0")
	}

	// A copy taken while a writer holds its pin predates the write; the
	// writer's dirty Unpin retires it.
	w, err := p.Fetch("f", ids[1])
	if err != nil {
		t.Fatal(err)
	}
	before := snap(ids[1])
	copy(w.Buf[100:], "LATER")
	p.Unpin(w, true)
	if got := snap(ids[1]); same(got, before) || string(got[100:105]) != "LATER" {
		t.Errorf("snapshot after the writer's Unpin reads %q, want a new copy with %q", got[100:105], "LATER")
	}

	// Evict page 2 by loading four other pages into the 4-frame pool,
	// then reload it: a fresh copy of the same content (the write-back
	// added a checksum to the trailer).
	old2 := snap(ids[2])
	for i := 0; i < 4; i++ {
		fr, _, err := p.NewPage("g")
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(fr, true)
	}
	if _, resident := p.table[PageTag{"f", ids[2]}]; resident {
		t.Fatal("page 2 is still resident; the test needs it evicted")
	}
	for i := range p.frames {
		if fr := &p.frames[i]; !fr.valid && fr.snap != "" {
			t.Errorf("frame %d was evicted but keeps its copy", i)
		}
	}
	reloaded := snap(ids[2])
	sameContent := reloaded[:storage.PageDataSize] == old2[:storage.PageDataSize]
	if same(reloaded, old2) || !sameContent {
		t.Errorf("reloaded page: new copy %v, same content %v; want both", !same(reloaded, old2), sameContent)
	}
}
