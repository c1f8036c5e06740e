package core

import (
	"bytes"
	"hash/maphash"
	"sync"

	"pmv/internal/keycodec"
	"pmv/internal/value"
)

// dsTable is DS, the multiset of tuples O2 delivered (Section 3.3),
// keyed by their keycodec encoding in Ls′ order — the bytes a covering
// index entry stores, so a key-only O3 can ask about a row before it
// decodes one (exec.Dedup). keycodec, like the value codec it replaced
// here, stores a value's bits: two tuples are one DS key exactly when
// they are value.Identical column by column. It is one arena of
// encoded tuples, a token count per distinct tuple, and a power-of-two
// slot array whose int32 chains link the entries. It holds no map and no per-tuple string, and
// tables are pooled, so a warm query allocates nothing for its DS.
type dsTable struct {
	arena []byte
	ents  []dsEntry
	slots []int32 // 1 + the last entry hashed to the slot; 0 = empty
	left  int     // tokens not yet taken
	added int     // tokens added
}

type dsEntry struct {
	off, end int // the encoded tuple is arena[off:end]
	hash     uint64
	n, added int   // tokens left and added
	next     int32 // 1 + the next entry in the slot's chain; 0 = end
}

// dsMinSlots is the slot count of a fresh table.
const dsMinSlots = 16

var (
	dsTables = sync.Pool{New: func() any { return new(dsTable) }}
	dsSeed   = maphash.MakeSeed()
)

// newDS returns an empty table from the pool; release hands it back.
func newDS() *dsTable {
	t := dsTables.Get().(*dsTable)
	t.arena, t.ents, t.left, t.added = t.arena[:0], t.ents[:0], 0, 0
	if len(t.slots) == 0 {
		t.slots = make([]int32, dsMinSlots)
	} else {
		clear(t.slots)
	}
	return t
}

// release returns t to the pool; t must not be used afterwards.
func (t *dsTable) release() { dsTables.Put(t) }

// find returns the index of the entry whose encoding is k, or -1.
func (t *dsTable) find(k []byte, h uint64) int {
	for b := t.slots[h&uint64(len(t.slots)-1)]; b != 0; {
		e := &t.ents[b-1]
		if e.hash == h && bytes.Equal(t.arena[e.off:e.end], k) {
			return int(b - 1)
		}
		b = e.next
	}
	return -1
}

// add records one delivered tuple: encoded straight into the arena, it
// becomes a new entry, or one more token of an equal entry whose bytes
// it then gives back.
func (t *dsTable) add(tup value.Tuple) {
	off := len(t.arena)
	t.arena = keycodec.AppendTuple(t.arena, tup)
	k := t.arena[off:]
	h := maphash.Bytes(dsSeed, k)
	t.left++
	t.added++
	if i := t.find(k, h); i >= 0 {
		t.ents[i].n++
		t.ents[i].added++
		t.arena = t.arena[:off]
		return
	}
	if 2*(len(t.ents)+1) > len(t.slots) {
		t.grow()
	}
	s := h & uint64(len(t.slots)-1)
	t.ents = append(t.ents, dsEntry{off: off, end: len(t.arena), hash: h, n: 1, added: 1, next: t.slots[s]})
	t.slots[s] = int32(len(t.ents))
}

// grow doubles the slot array and relinks every entry, keeping the
// slots at least twice the entries.
func (t *dsTable) grow() {
	n := 2 * len(t.slots)
	if cap(t.slots) < n {
		t.slots = make([]int32, n)
	} else {
		t.slots = t.slots[:n]
		clear(t.slots)
	}
	mask := uint64(n - 1)
	for i := range t.ents {
		e := &t.ents[i]
		s := e.hash & mask
		e.next = t.slots[s]
		t.slots[s] = int32(i + 1)
	}
}

// takeKey consumes one token of the tuple whose encoding is k and
// reports whether DS held one: the tuple was delivered in O2, and O3
// must not deliver it again. Once every token is taken it answers
// without looking.
func (t *dsTable) takeKey(k []byte) bool {
	if t.left == 0 {
		return false
	}
	i := t.find(k, maphash.Bytes(dsSeed, k))
	if i < 0 || t.ents[i].n == 0 {
		return false
	}
	t.ents[i].n--
	t.left--
	return true
}

// forget drops n tokens from the count the audit reads: the partials of
// parts the residual query leaves out, which no O3 row can take. Their
// entries stay in the table untaken.
func (t *dsTable) forget(n int) {
	t.left -= n
	t.added -= n
}

// restore gives back every taken token: DS again holds what O2 added.
func (t *dsTable) restore() {
	for i := range t.ents {
		t.ents[i].n = t.ents[i].added
	}
	t.left = t.added
}
