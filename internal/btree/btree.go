// Package btree implements a disk-resident B+tree over the buffer
// pool. It stores variable-length byte keys in memcmp order (produced
// by keycodec) and is used for every secondary index in the engine —
// the selection and join attribute indexes the paper's query plans
// depend on.
//
// Entries are unique byte strings. Callers that need duplicate logical
// keys (a secondary index mapping key → many RIDs) append the 6-byte
// RID encoding to the logical key, which both disambiguates duplicates
// and makes deletes exact; see PackRID/UnpackRID.
//
// A node has one form, its page in a pinned buffer frame (see page):
// reads search it in place, Insert and Delete edit it in place, and
// Build writes packed leaves left to right from sorted input and then
// the inner levels above them.
//
// Deletion is lazy: entries are removed from leaves but nodes are not
// merged or rebalanced. For the paper's workloads (bulk load, then
// reads with a modest delete rate) this is the standard trade-off;
// space is reclaimed by rebuilding the index.
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"pmv/internal/buffer"
	"pmv/internal/storage"
)

// Sentinel errors.
var (
	ErrKeyExists   = errors.New("btree: key exists")
	ErrKeyNotFound = errors.New("btree: key not found")
	ErrKeyTooLarge = errors.New("btree: key too large")
	ErrUnsorted    = errors.New("btree: build input not sorted")
	ErrNotEmpty    = errors.New("btree: build into a non-empty tree")
)

// ErrStopScan stops a scan early without error.
var ErrStopScan = errors.New("btree: stop scan")

const (
	metaPage  = storage.PageID(0)
	metaMagic = 0xB7EE0001
	nodeLeaf  = 1
	nodeInner = 2
	maxKeyLen = 1024
	// MaxKeyLen is the longest entry the tree takes.
	MaxKeyLen = maxKeyLen
	// page header: type(1) + count(2) + next(4) + rightmost(4)
	nodeHdr = 11
	// buildFill is how many bytes of a page Build fills before it starts
	// the next node. Not all of it: an index is built once and then
	// maintained by every insert, and a page packed to the brim would
	// split on the first insert that lands in it.
	buildFill = storage.PageDataSize * 9 / 10
)

// Tree is one B+tree index.
type Tree struct {
	pool *buffer.Pool
	file string

	mu   sync.RWMutex
	root storage.PageID
}

// Open opens (creating if empty) the B+tree stored in file.
func Open(pool *buffer.Pool, mgr *storage.Manager, file string) (*Tree, error) {
	f, err := mgr.Open(file)
	if err != nil {
		return nil, err
	}
	var mfr *buffer.Frame
	if f.NumPages() == 0 {
		var mid storage.PageID
		if mfr, mid, err = pool.NewPage(file); err != nil {
			return nil, err
		}
		if mid != metaPage {
			pool.Unpin(mfr, false)
			return nil, fmt.Errorf("btree: meta page allocated at %d", mid)
		}
	} else {
		if mfr, err = pool.Fetch(file, metaPage); err != nil {
			return nil, err
		}
		switch binary.BigEndian.Uint32(mfr.Buf[0:]) {
		case metaMagic:
			root := storage.PageID(binary.BigEndian.Uint32(mfr.Buf[4:]))
			pool.Unpin(mfr, false)
			return &Tree{pool: pool, file: file, root: root}, nil
		case 0:
			// An all-zero meta page means the file was allocated but its
			// content never reached disk (a crash before flush). The tree
			// holds nothing durable; reformat it with a fresh empty root.
			// Recovery rebuilds secondary indexes from the heap afterwards.
		default:
			pool.Unpin(mfr, false)
			return nil, fmt.Errorf("btree: %s: bad meta magic", file)
		}
	}
	rfr, root, err := pool.NewPage(file)
	if err != nil {
		pool.Unpin(mfr, false)
		return nil, err
	}
	page(rfr.Buf).fill(nil, nil, storage.InvalidPageID)
	pool.Unpin(rfr, true)
	binary.BigEndian.PutUint32(mfr.Buf[0:], metaMagic)
	binary.BigEndian.PutUint32(mfr.Buf[4:], uint32(root))
	pool.Unpin(mfr, true)
	return &Tree{pool: pool, file: file, root: root}, nil
}

// File returns the backing file name.
func (t *Tree) File() string { return t.file }

// page is a node in a pinned frame, and the only form a node has. Its
// layout is the index file's: the header (type, entry count, a leaf's
// next sibling, an inner page's rightmost child), a directory of 2-byte
// entry offsets, and right behind it the entries packed in slot order —
// key length, key and, on an inner page, the child left of the key.
// Reads search the directory in place; Insert and Delete shift the
// directory and the entries with copy; Build and splits lay a run of
// entries out in one pass. Nothing is copied out of the frame, and t.mu
// keeps writers off the bytes while a reader uses the view.
type page []byte

func (p page) isLeaf() (bool, error) {
	switch p[0] {
	case nodeLeaf:
		return true, nil
	case nodeInner:
		return false, nil
	default:
		return false, fmt.Errorf("btree: bad node type %d", p[0])
	}
}

func (p page) count() int { return int(binary.BigEndian.Uint16(p[1:])) }

func (p page) next() storage.PageID {
	return storage.PageID(binary.BigEndian.Uint32(p[3:]))
}

// key returns the i-th key as a slice of the page.
func (p page) key(i int) []byte {
	off := int(binary.BigEndian.Uint16(p[nodeHdr+2*i:]))
	klen := int(binary.BigEndian.Uint16(p[off:]))
	return p[off+2 : off+2+klen]
}

// child returns the i-th child of an inner page; i == count() is the
// rightmost child, kept in the header.
func (p page) child(i int) storage.PageID {
	if i == p.count() {
		return storage.PageID(binary.BigEndian.Uint32(p[7:]))
	}
	off := int(binary.BigEndian.Uint16(p[nodeHdr+2*i:]))
	klen := int(binary.BigEndian.Uint16(p[off:]))
	return storage.PageID(binary.BigEndian.Uint32(p[off+2+klen:]))
}

// search returns the first index i with key(i) >= key.
func (p page) search(key []byte) int { return p.bisect(0, p.count(), key) }

// bisect returns the first index i in [lo, hi) with key(i) >= key, or
// hi when there is none.
func (p page) bisect(lo, hi int, key []byte) int {
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(p.key(mid), key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// searchFrom is search over the entries from index from on. It gallops
// (probes from, from+2, from+6, from+14, …) before it bisects, so an
// answer m entries past from costs O(log m) compares: a point range
// costs three, and a range that runs past the page about log₂ count.
func (p page) searchFrom(from int, key []byte) int {
	lo, n := from, p.count()
	for step := 1; lo < n; step *= 2 {
		j := min(lo+step, n) - 1
		if bytes.Compare(p.key(j), key) >= 0 {
			return p.bisect(lo, j, key)
		}
		lo = j + 1
	}
	return n
}

// childIdx returns the child slot to descend into for key. Keys in
// child i are < key(i); the rightmost child holds keys >= the last
// separator.
func (p page) childIdx(key []byte) int {
	lo, hi := 0, p.count()
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(key, p.key(mid)) < 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// off returns where entry i starts; off(count()) is where the entries
// end, and so the bytes the page uses.
func (p page) off(i int) int {
	n := p.count()
	if i < n {
		return int(binary.BigEndian.Uint16(p[nodeHdr+2*i:]))
	}
	if n == 0 {
		return nodeHdr
	}
	last := p.off(n - 1)
	return last + p.entrySize(int(binary.BigEndian.Uint16(p[last:])))
}

// entrySize returns the bytes an entry with a klen-byte key takes in p,
// its slot not counted.
func (p page) entrySize(klen int) int {
	if p[0] == nodeInner {
		return 2 + klen + 4
	}
	return 2 + klen
}

// format writes the header of a node of n entries: a leaf whose next
// sibling is link, or an inner page whose rightmost child is link.
func (p page) format(leaf bool, n int, link storage.PageID) {
	next, rightmost := storage.InvalidPageID, link
	p[0] = nodeInner
	if leaf {
		p[0], next, rightmost = nodeLeaf, link, 0
	}
	binary.BigEndian.PutUint16(p[1:], uint16(n))
	binary.BigEndian.PutUint32(p[3:], uint32(next))
	binary.BigEndian.PutUint32(p[7:], uint32(rightmost))
}

// put writes an entry at offset o and points slot i at it; child is
// written on an inner page only. It returns the offset past the entry.
func (p page) put(i, o int, key []byte, child storage.PageID) int {
	binary.BigEndian.PutUint16(p[nodeHdr+2*i:], uint16(o))
	binary.BigEndian.PutUint16(p[o:], uint16(len(key)))
	o += 2 + copy(p[o+2:], key)
	if p[0] == nodeInner {
		binary.BigEndian.PutUint32(p[o:], uint32(child))
		o += 4
	}
	return o
}

// fill lays keys out as the whole node in one pass: a leaf linked to
// next when kids is nil, else an inner page with kids[i] left of
// keys[i] and its last kid rightmost.
func (p page) fill(keys [][]byte, kids []storage.PageID, next storage.PageID) {
	if kids == nil {
		p.format(true, len(keys), next)
	} else {
		p.format(false, len(keys), kids[len(keys)])
	}
	o := nodeHdr + 2*len(keys)
	for i, k := range keys {
		var c storage.PageID
		if kids != nil {
			c = kids[i]
		}
		o = p.put(i, o, k, c)
	}
}

// copyRun lays entries [s, e) of src out as the whole node, linked as
// format says: one copy of their bytes, and each offset moved by the
// distance the bytes moved.
func (p page) copyRun(src page, s, e int, leaf bool, link storage.PageID) {
	n := e - s
	p.format(leaf, n, link)
	d := nodeHdr + 2*n - src.off(s)
	for j := 0; j < n; j++ {
		binary.BigEndian.PutUint16(p[nodeHdr+2*j:], uint16(src.off(s+j)+d))
	}
	copy(p[nodeHdr+2*n:], src[src.off(s):src.off(e)])
}

// insert makes key, with child on an inner page, entry i. The page must
// have room for it: the entries from i on move up by the new entry and
// its slot, the ones before i by its slot, and the directory's offsets
// with them.
func (p page) insert(i int, key []byte, child storage.PageID) {
	n, at, end := p.count(), p.off(i), p.off(p.count())
	size, dir := p.entrySize(len(key)), nodeHdr+2*n
	copy(p[at+2+size:], p[at:end])
	copy(p[dir+2:], p[dir:at])
	copy(p[nodeHdr+2*i+2:], p[nodeHdr+2*i:dir])
	binary.BigEndian.PutUint16(p[1:], uint16(n+1))
	p.shift(0, i, 2)
	p.shift(i+1, n+1, 2+size)
	p.put(i, at+2, key, child)
}

// remove deletes entry i, closing the gaps it leaves in the directory
// and among the entries.
func (p page) remove(i int) {
	n, at, past, end := p.count(), p.off(i), p.off(i+1), p.off(p.count())
	dir := nodeHdr + 2*n
	copy(p[nodeHdr+2*i:], p[nodeHdr+2*i+2:dir])
	copy(p[dir-2:], p[dir:at])
	copy(p[at-2:], p[past:end])
	binary.BigEndian.PutUint16(p[1:], uint16(n-1))
	p.shift(0, i, -2)
	p.shift(i, n-1, -2-(past-at))
}

// shift adds d to the offsets in slots [s, e).
func (p page) shift(s, e, d int) {
	for j := s; j < e; j++ {
		slot := p[nodeHdr+2*j:]
		binary.BigEndian.PutUint16(slot, uint16(int(binary.BigEndian.Uint16(slot))+d))
	}
}

// setChild makes id child i of an inner page; i == count() is the
// rightmost child. An entry's child is its last 4 bytes.
func (p page) setChild(i int, id storage.PageID) {
	o := 7
	if i < p.count() {
		o = p.off(i+1) - 4
	}
	binary.BigEndian.PutUint32(p[o:], uint32(id))
}

// splitAt returns where to split a page that has outgrown its frame:
// after the most entries whose bytes, slots included, stay within half
// the page's, but at least one and before the last. Splitting by bytes
// rather than by count keeps both halves within a page however the key
// lengths vary; with keys of one length it is the middle.
func (p page) splitAt() int {
	n := p.count()
	upTo := func(j int) int { return 2*j + p.off(j) - p.off(0) }
	mid := 0
	for mid < n-1 && 2*upTo(mid+1) <= upTo(n) {
		mid++
	}
	return max(mid, 1)
}

// descend pins the leaf whose key range covers key and returns its
// frame with the number of levels walked (root = 1). The caller unpins.
func (t *Tree) descend(key []byte) (*buffer.Frame, int, error) {
	id := t.root
	for depth := 1; ; depth++ {
		fr, err := t.pool.Fetch(t.file, id)
		if err != nil {
			return nil, 0, err
		}
		p := page(fr.Buf)
		leaf, err := p.isLeaf()
		if err != nil {
			t.pool.Unpin(fr, false)
			return nil, 0, err
		}
		if leaf {
			return fr, depth, nil
		}
		id = p.child(p.childIdx(key))
		t.pool.Unpin(fr, false)
	}
}

func (t *Tree) setRoot(id storage.PageID) error {
	fr, err := t.pool.Fetch(t.file, metaPage)
	if err != nil {
		return err
	}
	binary.BigEndian.PutUint32(fr.Buf[4:], uint32(id))
	t.pool.Unpin(fr, true)
	t.root = id
	return nil
}

// Insert adds key to the tree. Inserting a key that already exists
// returns ErrKeyExists.
func (t *Tree) Insert(key []byte) error {
	if len(key) > maxKeyLen {
		return ErrKeyTooLarge
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.insertLocked(key)
}

// insertLocked is Insert under t.mu.
func (t *Tree) insertLocked(key []byte) error {
	sep, right, err := t.insertRec(t.root, key)
	if err != nil || right == storage.InvalidPageID {
		return err
	}
	// Root split: grow the tree by one level.
	fr, id, err := t.pool.NewPage(t.file)
	if err != nil {
		return err
	}
	page(fr.Buf).fill([][]byte{sep}, []storage.PageID{t.root, right}, storage.InvalidPageID)
	t.pool.Unpin(fr, true)
	return t.setRoot(id)
}

// insertRec inserts key into the subtree at id. On a split it returns
// the separator and the new right sibling page; otherwise right is
// InvalidPageID. An inner page is released while its child takes the
// key and fetched again only if the child split, so that a write pins
// no more pages at once than a split needs.
func (t *Tree) insertRec(id storage.PageID, key []byte) ([]byte, storage.PageID, error) {
	fr, err := t.pool.Fetch(t.file, id)
	if err != nil {
		return nil, storage.InvalidPageID, err
	}
	p := page(fr.Buf)
	leaf, err := p.isLeaf()
	if err != nil {
		t.pool.Unpin(fr, false)
		return nil, storage.InvalidPageID, err
	}
	if leaf {
		i := p.search(key)
		if i < p.count() && bytes.Equal(p.key(i), key) {
			t.pool.Unpin(fr, false)
			return nil, storage.InvalidPageID, ErrKeyExists
		}
		return t.insertAt(fr, i, key, 0, 0)
	}
	ci := p.childIdx(key)
	child := p.child(ci)
	t.pool.Unpin(fr, false)
	sep, right, err := t.insertRec(child, key)
	if err != nil || right == storage.InvalidPageID {
		return nil, storage.InvalidPageID, err
	}
	if fr, err = t.pool.Fetch(t.file, id); err != nil {
		return nil, storage.InvalidPageID, err
	}
	return t.insertAt(fr, ci, sep, child, right)
}

// insertAt makes key entry i of the page in the pinned frame fr and releases
// the frame; on an inner page the entry's child is child, the one that
// split, and right, its upper half, follows it. A page without room for
// the entry takes it in a spill copy larger than a frame, which split
// then halves.
func (t *Tree) insertAt(fr *buffer.Frame, i int, key []byte, child, right storage.PageID) ([]byte, storage.PageID, error) {
	p := page(fr.Buf)
	end := p.off(p.count())
	fits := end+2+p.entrySize(len(key)) <= storage.PageDataSize
	if !fits {
		p = make(page, 2*storage.PageDataSize)
		copy(p, fr.Buf[:end])
	}
	p.insert(i, key, child)
	if p[0] == nodeInner {
		p.setChild(i+1, right)
	}
	if !fits {
		return t.split(fr, p)
	}
	t.pool.Unpin(fr, true)
	return nil, storage.InvalidPageID, nil
}

// split halves the spill page q of the pinned frame fr by bytes
// (splitAt): the entries from the split on go to a new page and the
// ones before it back into fr, except that on an inner page the entry
// at the split moves up, its child ending the left half. It releases
// fr and returns the separator, which aliases q, and the new page.
func (t *Tree) split(fr *buffer.Frame, q page) ([]byte, storage.PageID, error) {
	rfr, rid, err := t.pool.NewPage(t.file)
	if err != nil {
		t.pool.Unpin(fr, false)
		return nil, storage.InvalidPageID, err
	}
	n, m := q.count(), q.splitAt()
	left, right := page(fr.Buf), page(rfr.Buf)
	if q[0] == nodeLeaf {
		right.copyRun(q, m, n, true, q.next())
		left.copyRun(q, 0, m, true, rid)
	} else {
		right.copyRun(q, m+1, n, false, q.child(n))
		left.copyRun(q, 0, m, false, q.child(m))
	}
	t.pool.Unpin(rfr, true)
	t.pool.Unpin(fr, true)
	return q.key(m), rid, nil
}

// Delete removes key from the tree (lazy: no rebalancing).
func (t *Tree) Delete(key []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	fr, _, err := t.descend(key)
	if err != nil {
		return err
	}
	p := page(fr.Buf)
	i := p.search(key)
	if i == p.count() || !bytes.Equal(p.key(i), key) {
		t.pool.Unpin(fr, false)
		return ErrKeyNotFound
	}
	p.remove(i)
	t.pool.Unpin(fr, true)
	return nil
}

// Replace swaps the entry old for new. When the two have one length
// and new still sorts between old's neighbours in its leaf, it writes
// new over old in place: one descent, and nothing in the page moves.
// Otherwise it removes old from that leaf and inserts new from the
// root, as Delete and Insert would. A missing old fails with
// ErrKeyNotFound and an existing new with ErrKeyExists; neither
// changes the tree.
func (t *Tree) Replace(old, new []byte) error {
	if len(new) > maxKeyLen {
		return ErrKeyTooLarge
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	fr, _, err := t.descend(old)
	if err != nil {
		return err
	}
	p := page(fr.Buf)
	i := p.search(old)
	if i == p.count() || !bytes.Equal(p.key(i), old) {
		t.pool.Unpin(fr, false)
		return ErrKeyNotFound
	}
	if len(new) == len(old) && p.between(i, old, new) {
		copy(p.key(i), new)
		t.pool.Unpin(fr, true)
		return nil
	}
	p.remove(i)
	t.pool.Unpin(fr, true)
	if err := t.insertLocked(new); err != nil {
		// Put old back: it fit before, and only a failed write can
		// fail this too.
		return errors.Join(err, t.insertLocked(old))
	}
	return nil
}

// between reports whether new, standing in for entry i (old), keeps
// the leaf in order and inside the key range its parent gives it. A
// neighbour bounds new on its side; where entry i has none, the bound
// is the parent's separator, which the leaf cannot see, so new must
// lie on old's inner side.
func (p page) between(i int, old, new []byte) bool {
	n := p.count()
	switch c := bytes.Compare(new, old); {
	case c == 0:
		return true
	case i == 0 && c < 0, i == n-1 && c > 0:
		return false
	}
	return (i == 0 || bytes.Compare(p.key(i-1), new) < 0) &&
		(i == n-1 || bytes.Compare(new, p.key(i+1)) < 0)
}

// Build fills an empty tree with entries, which must be sorted in
// strictly ascending order. It works bottom-up: the keys are packed
// into leaves to buildFill, written left to right and linked in that
// order; each inner level then holds the level below as children, each
// behind the shortest separator between its keys and its left
// neighbour's, until one node is left to be the root (see runs). Every
// page is laid out once and none is read back, where inserting the
// entries one at a time shifts a page's directory and entries per
// entry. The first leaf goes into the empty root page, so the file
// holds the meta page and the tree's own pages and nothing else.
//
// The input is checked before anything is written: a key out of order
// fails with ErrUnsorted, a repeated one with ErrKeyExists, an
// oversized one with ErrKeyTooLarge, and a tree that holds a key
// already fails with ErrNotEmpty; none of these changes the tree.
func (t *Tree) Build(entries [][]byte) error {
	for i, k := range entries {
		if len(k) > maxKeyLen {
			return ErrKeyTooLarge
		}
		if i == 0 {
			continue
		}
		switch c := bytes.Compare(entries[i-1], k); {
		case c == 0:
			return ErrKeyExists
		case c > 0:
			return ErrUnsorted
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	fr, depth, err := t.descend(nil)
	if err != nil {
		return err
	}
	empty := depth == 1 && page(fr.Buf).count() == 0
	t.pool.Unpin(fr, false)
	if !empty {
		return ErrNotEmpty
	}
	if len(entries) == 0 {
		return nil
	}
	level, err := t.writeLevel(packLeaves(entries), t.root)
	for err == nil && len(level) > 1 {
		level, err = t.writeLevel(packInner(level), storage.InvalidPageID)
	}
	if err != nil || level[0].id == t.root {
		return err
	}
	return t.setRoot(level[0].id)
}

// laidOut is a node Build has packed: its keys, its children when it is
// an inner node (see fill), the separator its parent puts in front of
// it, and its page once written.
type laidOut struct {
	keys [][]byte
	kids []storage.PageID
	sep  []byte
	id   storage.PageID
}

// packLeaves packs sorted keys into leaves.
func packLeaves(keys [][]byte) []laidOut {
	b := runs(len(keys), func(i int, _ bool) int {
		return 2 + 2 + len(keys[i]) // slot offset, key length, key
	})
	out := make([]laidOut, len(b)-1)
	for j := range out {
		s, e := b[j], b[j+1]
		out[j] = laidOut{keys: keys[s:e], sep: keys[s]}
		if s > 0 {
			out[j].sep = separator(keys[s-1], keys[s])
		}
	}
	return out
}

// separator returns the shortest prefix of hi that is greater than lo,
// for lo < hi: every key up to lo sorts below it and hi does not, so it
// can stand between the leaves ending at lo and starting at hi. Keys
// that part early make short separators, and short separators make
// wide inner nodes.
func separator(lo, hi []byte) []byte {
	n := 0
	for n < len(lo) && lo[n] == hi[n] {
		n++
	}
	return hi[:n+1]
}

// packInner packs one written level into the parents above it. A parent
// holds a run of children and, in front of every child but the first,
// that child's separator — childIdx's rule: keys below a separator
// descend to its left. A parent's own separator is its first child's.
// A last parent left with a single child takes its neighbour's last
// child too, so that no inner node is a bare pointer.
func packInner(kids []laidOut) []laidOut {
	b := runs(len(kids), func(i int, opens bool) int {
		if opens {
			return 0 // the node's first child has no key in it
		}
		return 2 + 2 + len(kids[i].sep) + 4 // slot offset, key length, key, child
	})
	if last := len(b) - 2; last > 0 && b[last] == len(kids)-1 {
		b[last]--
	}
	out := make([]laidOut, len(b)-1)
	for j := range out {
		s, e := b[j], b[j+1]
		n := laidOut{keys: make([][]byte, 0, e-s-1), kids: make([]storage.PageID, 0, e-s), sep: kids[s].sep}
		for i := s; i < e; i++ {
			if i > s {
				n.keys = append(n.keys, kids[i].sep)
			}
			n.kids = append(n.kids, kids[i].id)
		}
		out[j] = n
	}
	return out
}

// runs splits one level's n items into the runs its nodes hold and
// returns their bounds, run j being items [b[j], b[j+1]); cost(i, opens)
// is item i's bytes in a node, opens telling whether it is the node's
// first. Each node is filled to buildFill — unless the whole level fits
// one page. That node is the root, and a full root keeps the tree as
// short as inserting the same items one at a time would make it.
func runs(n int, cost func(i int, opens bool) int) []int {
	total := nodeHdr
	for i := 0; i < n; i++ {
		total += cost(i, i == 0)
	}
	b := []int{0}
	if total <= storage.PageDataSize {
		return append(b, n)
	}
	size := nodeHdr + cost(0, true)
	for i := 1; i < n; i++ {
		c := cost(i, false)
		if size+c > buildFill {
			b = append(b, i)
			size, c = nodeHdr, cost(i, true)
		}
		size += c
	}
	return append(b, n)
}

// writeLevel writes one level's nodes left to right: the first into page
// first when that is valid (the empty root page), every other into a
// fresh page. A node is laid out once the next one has a page, so a
// leaf's sibling link is known when it is written.
func (t *Tree) writeLevel(level []laidOut, first storage.PageID) ([]laidOut, error) {
	var prev *buffer.Frame
	for i := range level {
		var fr *buffer.Frame
		var err error
		if i == 0 && first != storage.InvalidPageID {
			fr, err = t.pool.Fetch(t.file, first)
			level[i].id = first
		} else {
			fr, level[i].id, err = t.pool.NewPage(t.file)
		}
		if err != nil {
			if prev != nil {
				t.pool.Unpin(prev, false)
			}
			return nil, err
		}
		if prev != nil {
			t.writeBuilt(prev, level[i-1], level[i].id)
		}
		prev = fr
	}
	t.writeBuilt(prev, level[len(level)-1], storage.InvalidPageID)
	return level, nil
}

// writeBuilt lays n out in its pinned frame, linking a leaf to next, and
// releases the frame.
func (t *Tree) writeBuilt(fr *buffer.Frame, n laidOut, next storage.PageID) {
	page(fr.Buf).fill(n.keys, n.kids, next)
	t.pool.Unpin(fr, true)
}

// Contains reports whether key is present.
func (t *Tree) Contains(key []byte) (bool, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	fr, _, err := t.descend(key)
	if err != nil {
		return false, err
	}
	p := page(fr.Buf)
	i := p.search(key)
	found := i < p.count() && bytes.Equal(p.key(i), key)
	t.pool.Unpin(fr, false)
	return found, nil
}

// Leaf is the run of entries one leaf holds within a Walk's range, in
// key order. Its entries alias the pinned page frame: they are valid
// only until the Walk callback returns and must not be modified.
type Leaf struct {
	p        page
	from, to int
}

// Len returns the number of entries in the run.
func (l Leaf) Len() int { return l.to - l.from }

// Entry returns the run's i-th entry, 0 <= i < Len().
func (l Leaf) Entry(i int) []byte { return l.p.key(l.from + i) }

// Walk calls fn once per leaf with the run of keys k, lo <= k < hi, the
// leaf holds, in order; a leaf with none in the range is skipped. A nil
// hi means "to the end". fn returning ErrStopScan ends the walk cleanly.
//
// The tree's read lock is held for the whole walk, so fn must not
// insert into or delete from this tree.
func (t *Tree) Walk(lo, hi []byte, fn func(Leaf) error) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	fr, _, err := t.descend(lo)
	if err != nil {
		return err
	}
	p := page(fr.Buf)
	i := p.search(lo)
	for {
		// Find where the range ends in this leaf once, so the entries
		// before it need no compare.
		n := p.count()
		end := n
		if hi != nil {
			end = p.searchFrom(i, hi)
		}
		if i < end {
			if err := fn(Leaf{p: p, from: i, to: end}); err != nil {
				t.pool.Unpin(fr, false)
				if errors.Is(err, ErrStopScan) {
					return nil
				}
				return err
			}
		}
		next := p.next()
		t.pool.Unpin(fr, false)
		if end < n || next == storage.InvalidPageID {
			return nil
		}
		if fr, err = t.pool.Fetch(t.file, next); err != nil {
			return err
		}
		p, i = page(fr.Buf), 0
		// A link to a page that never reached disk (a crash) reads as
		// zeros: fail on it rather than walk on into whatever it names.
		if leaf, err := p.isLeaf(); !leaf {
			t.pool.Unpin(fr, false)
			if err == nil {
				err = fmt.Errorf("btree: %s: leaf link to inner page %d", t.file, next)
			}
			return err
		}
	}
}

// Scan visits every key k with lo <= k < hi in order: Walk, one entry
// at a time. A nil hi means "to the end". fn returning ErrStopScan ends
// the scan cleanly.
//
// The slice handed to fn aliases the pinned page frame: it is valid
// only until fn returns and must not be modified; a caller that keeps
// the key copies it. fn must not insert into or delete from this tree.
func (t *Tree) Scan(lo, hi []byte, fn func(key []byte) error) error {
	return t.Walk(lo, hi, func(l Leaf) error {
		for i := 0; i < l.Len(); i++ {
			if err := fn(l.Entry(i)); err != nil {
				return err
			}
		}
		return nil
	})
}

// Count returns the number of keys (full scan; for tests and stats).
func (t *Tree) Count() (int, error) {
	n := 0
	err := t.Scan(nil, nil, func([]byte) error {
		n++
		return nil
	})
	return n, err
}

// Height returns the tree height (root = 1; for tests and stats).
func (t *Tree) Height() (int, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	fr, depth, err := t.descend(nil)
	if err != nil {
		return 0, err
	}
	t.pool.Unpin(fr, false)
	return depth, nil
}

// PackRID appends the 6-byte encoding of rid to key, producing the
// unique entry stored in a secondary index.
func PackRID(key []byte, rid storage.RID) []byte {
	return AppendRID(append(make([]byte, 0, len(key)+6), key...), rid)
}

// AppendRID appends the 6-byte encoding of rid to entry, a key.
func AppendRID(entry []byte, rid storage.RID) []byte {
	dst := binary.BigEndian.AppendUint32(entry, uint32(rid.Page))
	return binary.BigEndian.AppendUint16(dst, uint16(rid.Slot))
}

// UnpackRID splits a stored entry into the logical key and the RID.
func UnpackRID(entry []byte) ([]byte, storage.RID, error) {
	if len(entry) < 6 {
		return nil, storage.RID{}, fmt.Errorf("btree: entry too short for RID")
	}
	k := entry[:len(entry)-6]
	p := binary.BigEndian.Uint32(entry[len(entry)-6:])
	s := binary.BigEndian.Uint16(entry[len(entry)-2:])
	return k, storage.RID{Page: storage.PageID(p), Slot: s}, nil
}

// Successor returns the smallest byte string greater than every string
// with prefix p: p with a 0xFF-terminated carry applied. A nil return
// means "no upper bound" (p was all 0xFF).
func Successor(p []byte) []byte {
	out := append([]byte(nil), p...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xFF {
			out[i]++
			return out[:i+1]
		}
	}
	return nil
}
