package exec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
	"sync"

	"pmv/internal/btree"
	"pmv/internal/catalog"
	"pmv/internal/keycodec"
	"pmv/internal/storage"
	"pmv/internal/value"
)

// concat returns a fresh row holding a followed by b.
func concat(a, b value.Tuple) value.Tuple {
	row := make(value.Tuple, 0, len(a)+len(b))
	row = append(row, a...)
	return append(row, b...)
}

// IndexJoin is an index nested-loop join: for each outer row it probes
// the inner relation's index on the join column and concatenates
// matches — the access path the paper's Eqt plan uses ("the index on
// S.d is used to search S for matching tuples").
type IndexJoin struct {
	Outer    Iterator
	OuterCol int // position of the join attribute in outer rows
	Inner    *catalog.Relation
	InnerIdx *catalog.Index // single-column index on the inner join attribute
	Residual Pred           // optional filter on the concatenated row

	cur     value.Tuple
	matches []value.Tuple
	mpos    int
}

// Open opens the outer input.
func (j *IndexJoin) Open() error {
	j.cur = nil
	j.matches = nil
	j.mpos = 0
	return j.Outer.Open()
}

// Next produces the next concatenated (outer ++ inner) row.
func (j *IndexJoin) Next() (value.Tuple, bool, error) {
	for {
		for j.mpos < len(j.matches) {
			inner := j.matches[j.mpos]
			j.mpos++
			row := concat(j.cur, inner)
			if j.Residual == nil || j.Residual(row) {
				return row, true, nil
			}
		}
		outer, ok, err := j.Outer.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		j.cur = outer
		j.matches = j.matches[:0]
		j.mpos = 0
		key := keycodec.AppendValue(nil, outer[j.OuterCol])
		err = j.InnerIdx.LookupEq(key, func(rid storage.RID) error {
			t, err := j.Inner.Heap.Get(rid)
			if err != nil {
				return err
			}
			j.matches = append(j.matches, t)
			return nil
		})
		if err != nil {
			return nil, false, err
		}
	}
}

// Close closes the outer input.
func (j *IndexJoin) Close() error { return j.Outer.Close() }

// KeySide is one input of a KeyJoin: a relation read through a
// composite index whose key starts (condition column, join column),
// restricted to key ranges over the condition column.
type KeySide struct {
	Rel    *catalog.Relation
	Index  *catalog.Index
	Ranges []KeyRange
	// Cols, when non-nil, marks the columns of Rel the plan reads; the
	// others come out of the join NULL (see value.AppendDecoded).
	// Plan.Narrow sets it; nil decodes whole rows.
	Cols []bool
}

// covered reports whether the side's rows can be decoded from its index
// entries: Cols is set and every column it marks is one of the index's.
func (s *KeySide) covered() bool {
	if s.Cols == nil {
		return false
	}
	for c, read := range s.Cols {
		if read && !slices.Contains(s.Index.Cols, c) {
			return false
		}
	}
	return true
}

// KeyJoin joins two relations that each carry a selection condition
// without reading a heap row that cannot be in the answer: it scans a
// (condition column, join column, ...) index on each side for the bound
// ranges and intersects the two entry streams on the join-key bytes.
// A side whose index holds every column the plan reads of it (Cols) is
// covered: its half of each joined row is decoded from the matched
// entry, and its heap is read only for an entry whose covered value was
// too long to store (keycodec's absent tag). An uncovered side fetches
// the matched RID's heap row. Where an IndexJoin would fetch every
// inner row of every driving row and discard most of them on the inner
// condition, this reads at most two heap rows per result row, and none
// when both sides are covered.
//
// Join keys are compared as encoded bytes, so the planner uses it only
// when both join columns have the same type.
//
// The build side is read whole in Open; the probe side streams. Open
// walks it only up to the first leaf that yields a matched pair and
// pauses there, and Next resumes the walk once, when those pairs are
// spent, to read the rest in one go. The first row so costs the build
// side, one descent and the probe leaves up to the first match, not
// both sides whole, and the rows come out in the order of one unpaused
// walk. No tree lock or pin is held between the two walks: a caller
// that needs one state of the probe side across them (a view's O3,
// under the view's S lock) holds its own lock; a plain query sees a
// write between them as it sees one between its build walk, its probe
// walk or two of its ranges.
//
// The row Next returns is the join's own, rewritten by the next call:
// a consumer that keeps rows clones them (see Iterator).
type KeyJoin struct {
	Left, Right KeySide // output rows are Left ++ Right
	// BuildRight hashes Right's entries and streams Left's through the
	// table instead of the reverse; the planner sets it when it expects
	// Right to be the smaller side.
	BuildRight bool
	Residual   Pred // optional filter on the concatenated row

	// recheck, when set, is the full residual Narrow narrowed Residual
	// from; a row a covered side had to read from its heap (an absent
	// value) gets it instead of Residual, since its columns then did not
	// come from the entries that prove the dropped checks.
	recheck Pred
	// segs, set by Narrow on a plan whose only operator this is, lists
	// the projected columns as entry segments: with a dedup check bound
	// (Prepared), Next asks it about each pair's projection, encoded
	// from the two entries' bytes, before it decodes anything.
	segs  []keySeg
	dedup Dedup
	// checked is true when the row Next last returned went through
	// dedup; dropped counts the pairs dedup took since Open.
	checked bool
	dropped int

	t                 *keyTable // from Open to Close
	pos               int
	leftCov, rightCov bool
	row               value.Tuple
	key               []byte
	cuts              [2][]int

	// The paused probe walk (walkProbe) goes on at range rng from the
	// key resume; an empty resume means no walk is paused.
	rng    int
	resume []byte
}

// keySeg is one projected column of a KeyJoin row: the side it comes
// from (0 Left, 1 Right) and its ordinal among that side's index
// columns.
type keySeg struct {
	side, ord uint8
}

// Dedup is O3's duplicate check: it is handed the order-preserving
// encoding (keycodec) of a projected row and reports true when that row
// was already delivered, consuming the token that says so. A row it
// takes is dropped.
type Dedup func(key []byte) bool

func (j *KeyJoin) side(s uint8) *KeySide {
	if s == 0 {
		return &j.Left
	}
	return &j.Right
}

// keyTable is one KeyJoin's scan state from Open to Close: the build
// side's entries copied whole into one arena, a power-of-two slot array
// whose chains link them through int32 indexes, the probe entries that
// matched copied into a second arena, and the matched pairs. It holds
// no map and no per-entry allocation, and tables are pooled, so a warm
// Open allocates nothing for it however many entries it holds.
type keyTable struct {
	arena []byte
	ents  []keyEntry
	slots []int32 // 1 + the last entry hashed to the slot; 0 = empty
	probe []byte
	pairs []keyPair
}

type keyEntry struct {
	off, end    int32 // the entry is arena[off:end]
	key, keyEnd int32 // its join key arena[key:keyEnd]
	next        int32
}

// keyPair is one match: a build entry's index and a probe entry's
// bounds in the probe arena.
type keyPair struct {
	build, off, end int32
}

var (
	keyTables = sync.Pool{New: func() any { return new(keyTable) }}
	keySeed   = maphash.MakeSeed()
)

func (t *keyTable) reset() {
	t.arena, t.ents, t.probe, t.pairs = t.arena[:0], t.ents[:0], t.probe[:0], t.pairs[:0]
}

// add copies one build entry, whose join key is e[lo:hi], into the
// arena.
func (t *keyTable) add(e []byte, lo, hi int) {
	off := int32(len(t.arena))
	t.arena = append(t.arena, e...)
	t.ents = append(t.ents, keyEntry{off: off, end: int32(len(t.arena)), key: off + int32(lo), keyEnd: off + int32(hi)})
}

func (t *keyTable) joinKey(e *keyEntry) []byte { return t.arena[e.key:e.keyEnd] }

func (t *keyTable) entry(e *keyEntry) []byte { return t.arena[e.off:e.end] }

// link sizes the slot array to at least twice the entries, once, and
// chains every entry into its slot. Later entries go in front, so a
// chain lists a key's entries newest first.
func (t *keyTable) link() {
	n := 1
	for n < 2*len(t.ents) {
		n <<= 1
	}
	if cap(t.slots) < n {
		t.slots = make([]int32, n)
	} else {
		t.slots = t.slots[:n]
		clear(t.slots)
	}
	mask := uint64(n - 1)
	for i := range t.ents {
		e := &t.ents[i]
		s := maphash.Bytes(keySeed, t.joinKey(e)) & mask
		e.next = t.slots[s]
		t.slots[s] = int32(i + 1)
	}
}

// chain returns the head of k's slot chain, 1 + an entry index, or 0
// when the chain is empty; each entry's next links to the one after it.
// A chain holds other keys' entries too: the byte compare, not the
// slot, decides a match.
func (t *keyTable) chain(k []byte) int32 {
	return t.slots[maphash.Bytes(keySeed, k)&uint64(len(t.slots)-1)]
}

// leadLen is the encoded length of the condition column every key of r
// begins with when r fixes it (an equality range), else 0.
func leadLen(r KeyRange) int {
	if r.Eq {
		return len(r.Lo)
	}
	return 0
}

// joinKey returns where the join key of a composite index entry,
// enc(condition value) ++ enc(join value) ++ [covered values] ++ RID,
// lies in it: the join value's encoding, e[lo:hi]. lead is the
// condition value's encoded length, or 0 when the range does not fix it
// and it has to be skipped.
func joinKey(e []byte, lead int) (lo, hi int, err error) {
	n := len(e) - 6
	if lead == 0 && n > 0 {
		if lead, err = keycodec.Skip(e[:n]); err != nil {
			return 0, 0, err
		}
	}
	if lead == 0 || n <= lead {
		return 0, 0, fmt.Errorf("exec: index entry of %d bytes has no join key", len(e))
	}
	k, err := keycodec.Skip(e[lead:n])
	if err != nil {
		return 0, 0, err
	}
	return lead, lead + k, nil
}

// entryRID returns the RID an index entry ends with; joinKey has
// checked its length.
func entryRID(e []byte) storage.RID {
	n := len(e) - 6
	return storage.RID{Page: storage.PageID(binary.BigEndian.Uint32(e[n:])), Slot: binary.BigEndian.Uint16(e[n+4:])}
}

// Open hashes the build side's entries into a keyTable, then walks the
// probe side only as far as the first leaf whose entries match: its
// join keys are looked up straight from the index page, in scan order,
// and a probe entry that matches is copied out once. The walk pauses
// after that leaf, so Next can return the first row while the rest of
// the probe side is unread (see walkProbe).
func (j *KeyJoin) Open() error {
	if j.t == nil {
		j.t = keyTables.Get().(*keyTable)
	}
	t := j.t
	t.reset()
	j.pos, j.dropped, j.checked = 0, 0, false
	j.leftCov, j.rightCov = j.Left.covered(), j.Right.covered()
	build := &j.Left
	if j.BuildRight {
		build = &j.Right
	}
	for _, r := range build.Ranges {
		lead := leadLen(r)
		err := build.Index.Tree.Walk(r.Lo, r.Hi, func(l btree.Leaf) error {
			for i := 0; i < l.Len(); i++ {
				e := l.Entry(i)
				lo, hi, err := joinKey(e, lead)
				if err != nil {
					return err
				}
				t.add(e, lo, hi)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	t.link()
	j.rng, j.resume = 0, j.resume[:0]
	return j.walkProbe(true)
}

// walkProbe matches the probe side's entries against the table, in
// scan order, from where the walk stands: range rng, from the key
// resume when one is held, else from the range's start. With pause set
// it stops after the first leaf that yields a pair and keeps that
// leaf's last entry plus a 0x00 byte, the least key after it, as
// resume. The walk holds no tree lock or pin once it returns, so
// resuming at a key stays right across a split of the leaf it paused
// in. Without pause it walks every range left to its end.
func (j *KeyJoin) walkProbe(pause bool) error {
	t, probe := j.t, &j.Right
	if j.BuildRight {
		probe = &j.Left
	}
	for ; j.rng < len(probe.Ranges); j.rng++ {
		r := probe.Ranges[j.rng]
		lo := r.Lo
		if len(j.resume) > 0 {
			lo = j.resume
		}
		lead, paused := leadLen(r), false
		err := probe.Index.Tree.Walk(lo, r.Hi, func(l btree.Leaf) error {
			for i := 0; i < l.Len(); i++ {
				e := l.Entry(i)
				lo, hi, err := joinKey(e, lead)
				if err != nil {
					return err
				}
				k, off := e[lo:hi], int32(-1)
				for b := t.chain(k); b != 0; b = t.ents[b-1].next {
					if !bytes.Equal(t.joinKey(&t.ents[b-1]), k) {
						continue
					}
					if off < 0 {
						off = int32(len(t.probe))
						t.probe = append(t.probe, e...)
					}
					t.pairs = append(t.pairs, keyPair{build: b - 1, off: off, end: int32(len(t.probe))})
				}
			}
			if !pause || len(t.pairs) == 0 {
				return nil
			}
			paused = true
			j.resume = append(append(j.resume[:0], l.Entry(l.Len()-1)...), 0)
			return btree.ErrStopScan
		})
		if err != nil || paused {
			return err
		}
		j.resume = j.resume[:0]
	}
	return nil
}

// Next builds the next matched pair's row, sized for the two schemas,
// into the join's own row: no allocation but one per string a covered
// side decodes. A side with Cols set yields only the columns they mark.
// With a dedup check bound, a pair whose projection it takes is skipped
// before any of it is decoded. When the pairs Open found run out and
// its walk paused, Next resumes it once and walks the probe side to its
// end, so rows come out in the order of one unpaused walk.
func (j *KeyJoin) Next() (value.Tuple, bool, error) {
	t := j.t
	if t == nil {
		return nil, false, nil
	}
	if j.row == nil {
		j.row = make(value.Tuple, 0, len(j.Left.Rel.Schema.Columns)+len(j.Right.Rel.Schema.Columns))
	}
	for j.pos < len(t.pairs) {
		pr := t.pairs[j.pos]
		j.pos++
		le, re := t.entry(&t.ents[pr.build]), t.probe[pr.off:pr.end]
		if j.BuildRight {
			le, re = re, le
		}
		j.checked = false
		if j.dedup != nil && j.segs != nil {
			key, ok, err := j.projectKey(le, re)
			if err != nil {
				return nil, false, err
			}
			if ok {
				if j.dedup(key) {
					j.dropped++
					continue
				}
				j.checked = true
			}
		}
		row, lh, err := j.Left.appendRow(j.row[:0], j.leftCov, le)
		if err != nil {
			return nil, false, err
		}
		row, rh, err := j.Right.appendRow(row, j.rightCov, re)
		if err != nil {
			return nil, false, err
		}
		j.row = row
		resid := j.Residual
		if j.recheck != nil && (lh && j.leftCov || rh && j.rightCov) {
			resid = j.recheck
		}
		if resid == nil || resid(row) {
			return row, true, nil
		}
	}
	if len(j.resume) == 0 {
		return nil, false, nil
	}
	if err := j.walkProbe(false); err != nil {
		return nil, false, err
	}
	return j.Next()
}

// projectKey encodes the projection of the pair (le, re) from the
// entries' bytes: each projected column's segment, in projection
// order, which is keycodec's encoding of the row Next would build. It
// reports false when a segment is the absent tag; the row must then be
// read and checked in full.
func (j *KeyJoin) projectKey(le, re []byte) ([]byte, bool, error) {
	for s, e := range [2][]byte{le, re} {
		cuts := j.cuts[s][:0]
		b, off := e[:len(e)-6], 0
		for range j.side(uint8(s)).Index.Cols {
			cuts = append(cuts, off)
			n, err := keycodec.Skip(b[off:])
			if err != nil {
				return nil, false, err
			}
			off += n
		}
		j.cuts[s] = append(cuts, off)
	}
	key := j.key[:0]
	for _, sg := range j.segs {
		e := le
		if sg.side == 1 {
			e = re
		}
		seg := e[j.cuts[sg.side][sg.ord]:j.cuts[sg.side][sg.ord+1]]
		if keycodec.Absent(seg) {
			return nil, false, nil
		}
		key = append(key, seg...)
	}
	j.key = key
	return key, true, nil
}

// appendRow appends the side's row for index entry e to row: decoded
// from e when the side is covered and e holds every value it reads,
// else read from the heap at e's RID, which it reports.
func (s *KeySide) appendRow(row value.Tuple, covered bool, e []byte) (value.Tuple, bool, error) {
	if covered {
		out, ok, err := s.decodeEntry(row, e)
		if err != nil || ok {
			return out, false, err
		}
	}
	row, err := s.Rel.Heap.AppendGet(row, entryRID(e), s.Cols)
	return row, true, err
}

// decodeEntry appends the side's row decoded from index entry e: the
// columns Cols marks, the rest NULL. It reports false, and row as it
// was, when a value it needs was stored absent.
func (s *KeySide) decodeEntry(row value.Tuple, e []byte) (value.Tuple, bool, error) {
	base := len(row)
	row = row[:base+len(s.Rel.Schema.Columns)]
	clear(row[base:])
	b := e[:len(e)-6]
	for _, c := range s.Index.Cols {
		var n int
		var err error
		if s.Cols[c] {
			row[base+c], n, err = keycodec.DecodeValue(b)
			if errors.Is(err, keycodec.ErrAbsent) {
				return row[:base], false, nil
			}
		} else {
			n, err = keycodec.Skip(b)
		}
		if err != nil {
			return nil, false, fmt.Errorf("exec: index %s: %w", s.Index.Name, err)
		}
		b = b[n:]
	}
	return row, true, nil
}

// Close returns the scan state to the pool.
func (j *KeyJoin) Close() error {
	if j.t != nil {
		keyTables.Put(j.t)
		j.t = nil
	}
	return nil
}

// NestedLoopJoin is the fallback join for predicates with no usable
// index: it re-scans the (materialized) right side per left row.
type NestedLoopJoin struct {
	Left  Iterator
	Right Iterator
	On    Pred // evaluated over the concatenated row; nil = cross join

	rightRows []value.Tuple
	cur       value.Tuple
	rpos      int
	done      bool
}

// Open materializes the right input.
func (j *NestedLoopJoin) Open() error {
	rows, err := Collect(j.Right)
	if err != nil {
		return err
	}
	j.rightRows = rows
	j.cur = nil
	j.rpos = 0
	j.done = false
	return j.Left.Open()
}

// Next produces the next concatenated row satisfying On.
func (j *NestedLoopJoin) Next() (value.Tuple, bool, error) {
	for {
		if j.cur == nil {
			left, ok, err := j.Left.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				return nil, false, nil
			}
			j.cur = left
			j.rpos = 0
		}
		for j.rpos < len(j.rightRows) {
			right := j.rightRows[j.rpos]
			j.rpos++
			row := concat(j.cur, right)
			if j.On == nil || j.On(row) {
				return row, true, nil
			}
		}
		j.cur = nil
	}
}

// Close closes the left input and drops the buffer.
func (j *NestedLoopJoin) Close() error {
	j.rightRows = nil
	return j.Left.Close()
}
