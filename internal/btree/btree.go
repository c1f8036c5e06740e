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
// A tree is filled in bulk by Build, which writes packed leaves left to
// right from sorted input and then the inner levels above them; Insert
// and Delete maintain it one entry at a time afterwards.
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
	// serialized node header: type(1) + count(2) + next(4) + rightmost(4)
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
	t := &Tree{pool: pool, file: file}
	f, err := mgr.Open(file)
	if err != nil {
		return nil, err
	}
	if f.NumPages() == 0 {
		// Fresh tree: meta page + empty root leaf.
		mfr, mid, err := pool.NewPage(file)
		if err != nil {
			return nil, err
		}
		if mid != metaPage {
			pool.Unpin(mfr, false)
			return nil, fmt.Errorf("btree: meta page allocated at %d", mid)
		}
		rfr, rid, err := pool.NewPage(file)
		if err != nil {
			pool.Unpin(mfr, false)
			return nil, err
		}
		root := &node{isLeaf: true, next: storage.InvalidPageID}
		root.serialize(rfr.Buf)
		pool.Unpin(rfr, true)
		binary.BigEndian.PutUint32(mfr.Buf[0:], metaMagic)
		binary.BigEndian.PutUint32(mfr.Buf[4:], uint32(rid))
		pool.Unpin(mfr, true)
		t.root = rid
		return t, nil
	}
	mfr, err := pool.Fetch(file, metaPage)
	if err != nil {
		return nil, err
	}
	switch binary.BigEndian.Uint32(mfr.Buf[0:]) {
	case metaMagic:
		t.root = storage.PageID(binary.BigEndian.Uint32(mfr.Buf[4:]))
		pool.Unpin(mfr, false)
		return t, nil
	case 0:
		// An all-zero meta page means the file was allocated but its
		// content never reached disk (a crash before flush). The tree
		// holds nothing durable; reformat it with a fresh empty root.
		// Recovery rebuilds secondary indexes from the heap afterwards.
		rfr, rid, err := pool.NewPage(file)
		if err != nil {
			pool.Unpin(mfr, false)
			return nil, err
		}
		root := &node{isLeaf: true, next: storage.InvalidPageID}
		root.serialize(rfr.Buf)
		pool.Unpin(rfr, true)
		binary.BigEndian.PutUint32(mfr.Buf[0:], metaMagic)
		binary.BigEndian.PutUint32(mfr.Buf[4:], uint32(rid))
		pool.Unpin(mfr, true)
		t.root = rid
		return t, nil
	default:
		pool.Unpin(mfr, false)
		return nil, fmt.Errorf("btree: %s: bad meta magic", file)
	}
}

// File returns the backing file name.
func (t *Tree) File() string { return t.file }

// node is the in-memory form of one page, used by the writing paths:
// Insert and Delete deserialize a node, change it, and re-serialize it
// whole, which with 8 KiB pages keeps the code simple and the constant
// factors acceptable for one entry; Build only serializes the nodes it
// lays out. The read paths never build one — see page.
type node struct {
	isLeaf   bool
	next     storage.PageID // leaf sibling chain
	keys     [][]byte
	children []storage.PageID // inner only; len(children) == len(keys)+1
}

func (n *node) serializedSize() int {
	sz := nodeHdr + 2*len(n.keys) // slot offsets
	for _, k := range n.keys {
		sz += 2 + len(k)
		if !n.isLeaf {
			sz += 4
		}
	}
	return sz
}

func (n *node) serialize(buf []byte) {
	if n.isLeaf {
		buf[0] = nodeLeaf
	} else {
		buf[0] = nodeInner
	}
	binary.BigEndian.PutUint16(buf[1:], uint16(len(n.keys)))
	binary.BigEndian.PutUint32(buf[3:], uint32(n.next))
	if !n.isLeaf {
		binary.BigEndian.PutUint32(buf[7:], uint32(n.children[len(n.keys)]))
	} else {
		binary.BigEndian.PutUint32(buf[7:], 0)
	}
	off := nodeHdr + 2*len(n.keys)
	for i, k := range n.keys {
		binary.BigEndian.PutUint16(buf[nodeHdr+2*i:], uint16(off))
		binary.BigEndian.PutUint16(buf[off:], uint16(len(k)))
		copy(buf[off+2:], k)
		off += 2 + len(k)
		if !n.isLeaf {
			binary.BigEndian.PutUint32(buf[off:], uint32(n.children[i]))
			off += 4
		}
	}
}

func deserialize(buf []byte) (*node, error) {
	n := &node{}
	switch buf[0] {
	case nodeLeaf:
		n.isLeaf = true
	case nodeInner:
		n.isLeaf = false
	default:
		return nil, fmt.Errorf("btree: bad node type %d", buf[0])
	}
	count := int(binary.BigEndian.Uint16(buf[1:]))
	n.next = storage.PageID(binary.BigEndian.Uint32(buf[3:]))
	n.keys = make([][]byte, count)
	if !n.isLeaf {
		n.children = make([]storage.PageID, count+1)
		n.children[count] = storage.PageID(binary.BigEndian.Uint32(buf[7:]))
	}
	for i := 0; i < count; i++ {
		off := int(binary.BigEndian.Uint16(buf[nodeHdr+2*i:]))
		klen := int(binary.BigEndian.Uint16(buf[off:]))
		key := make([]byte, klen)
		copy(key, buf[off+2:off+2+klen])
		n.keys[i] = key
		if !n.isLeaf {
			n.children[i] = storage.PageID(binary.BigEndian.Uint32(buf[off+2+klen:]))
		}
	}
	return n, nil
}

// page is a read-only view of a serialized node in a pinned frame. The
// read paths (Scan, Contains, Height) search its slot directory in
// place, so visiting a page copies and allocates nothing; t.mu's read
// side keeps writers off the bytes for as long as the view is used.
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
func (p page) search(key []byte) int {
	lo, hi := 0, p.count()
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

// childIdx returns the child slot to descend into for key (see the
// slice-based childIdx below for the separator convention).
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

func (t *Tree) readNode(id storage.PageID) (*node, error) {
	fr, err := t.pool.Fetch(t.file, id)
	if err != nil {
		return nil, err
	}
	defer t.pool.Unpin(fr, false)
	return deserialize(fr.Buf)
}

func (t *Tree) writeNode(id storage.PageID, n *node) error {
	fr, err := t.pool.Fetch(t.file, id)
	if err != nil {
		return err
	}
	n.serialize(fr.Buf)
	t.pool.Unpin(fr, true)
	return nil
}

func (t *Tree) allocNode(n *node) (storage.PageID, error) {
	fr, id, err := t.pool.NewPage(t.file)
	if err != nil {
		return storage.InvalidPageID, err
	}
	n.serialize(fr.Buf)
	t.pool.Unpin(fr, true)
	return id, nil
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

// searchIdx returns the first index i with keys[i] >= key.
func searchIdx(keys [][]byte, key []byte) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIdx returns the child slot to descend into for key. Keys in
// child i are < keys[i]; the rightmost child holds keys >= the last
// separator.
func childIdx(keys [][]byte, key []byte) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(key, keys[mid]) < 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Insert adds key to the tree. Inserting a key that already exists
// returns ErrKeyExists.
func (t *Tree) Insert(key []byte) error {
	if len(key) > maxKeyLen {
		return ErrKeyTooLarge
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sep, right, err := t.insertRec(t.root, key)
	if err != nil {
		return err
	}
	if right == storage.InvalidPageID {
		return nil
	}
	// Root split: grow the tree by one level.
	newRoot := &node{
		isLeaf:   false,
		next:     storage.InvalidPageID,
		keys:     [][]byte{sep},
		children: []storage.PageID{t.root, right},
	}
	id, err := t.allocNode(newRoot)
	if err != nil {
		return err
	}
	return t.setRoot(id)
}

// insertRec inserts into the subtree at id. On split it returns the
// separator key and new right sibling page; otherwise right is
// InvalidPageID.
func (t *Tree) insertRec(id storage.PageID, key []byte) ([]byte, storage.PageID, error) {
	n, err := t.readNode(id)
	if err != nil {
		return nil, storage.InvalidPageID, err
	}
	if n.isLeaf {
		i := searchIdx(n.keys, key)
		if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
			return nil, storage.InvalidPageID, ErrKeyExists
		}
		n.keys = append(n.keys, nil)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = append([]byte(nil), key...)
		if n.serializedSize() <= storage.PageDataSize {
			return nil, storage.InvalidPageID, t.writeNode(id, n)
		}
		return t.splitLeaf(id, n)
	}
	ci := childIdx(n.keys, key)
	sep, right, err := t.insertRec(n.children[ci], key)
	if err != nil || right == storage.InvalidPageID {
		return nil, storage.InvalidPageID, err
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = sep
	n.children = append(n.children, storage.InvalidPageID)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = right
	if n.serializedSize() <= storage.PageDataSize {
		return nil, storage.InvalidPageID, t.writeNode(id, n)
	}
	return t.splitInner(id, n)
}

// splitAt returns where to split the keys of a node that has outgrown
// its page, each key costing perKey bytes besides its own: after the
// most keys whose bytes stay within half the node's, but at least one
// and before the last. Splitting by bytes rather than by count keeps
// both halves within a page however the key lengths vary; with keys of
// one length it is the middle.
func splitAt(keys [][]byte, perKey int) int {
	total := 0
	for _, k := range keys {
		total += perKey + len(k)
	}
	mid, sum := 0, 0
	for ; mid < len(keys)-1; mid++ {
		if sum += perKey + len(keys[mid]); 2*sum > total {
			break
		}
	}
	return max(mid, 1)
}

func (t *Tree) splitLeaf(id storage.PageID, n *node) ([]byte, storage.PageID, error) {
	mid := splitAt(n.keys, 2+2) // slot offset, key length
	right := &node{
		isLeaf: true,
		next:   n.next,
		keys:   append([][]byte(nil), n.keys[mid:]...),
	}
	rid, err := t.allocNode(right)
	if err != nil {
		return nil, storage.InvalidPageID, err
	}
	n.keys = n.keys[:mid]
	n.next = rid
	if err := t.writeNode(id, n); err != nil {
		return nil, storage.InvalidPageID, err
	}
	sep := append([]byte(nil), right.keys[0]...)
	return sep, rid, nil
}

func (t *Tree) splitInner(id storage.PageID, n *node) ([]byte, storage.PageID, error) {
	mid := splitAt(n.keys, 2+2+4) // slot offset, key length, child
	sep := n.keys[mid]
	right := &node{
		isLeaf:   false,
		next:     storage.InvalidPageID,
		keys:     append([][]byte(nil), n.keys[mid+1:]...),
		children: append([]storage.PageID(nil), n.children[mid+1:]...),
	}
	rid, err := t.allocNode(right)
	if err != nil {
		return nil, storage.InvalidPageID, err
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	if err := t.writeNode(id, n); err != nil {
		return nil, storage.InvalidPageID, err
	}
	return append([]byte(nil), sep...), rid, nil
}

// Delete removes key from the tree (lazy: no rebalancing).
func (t *Tree) Delete(key []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.root
	for {
		n, err := t.readNode(id)
		if err != nil {
			return err
		}
		if n.isLeaf {
			i := searchIdx(n.keys, key)
			if i >= len(n.keys) || !bytes.Equal(n.keys[i], key) {
				return ErrKeyNotFound
			}
			n.keys = append(n.keys[:i], n.keys[i+1:]...)
			return t.writeNode(id, n)
		}
		id = n.children[childIdx(n.keys, key)]
	}
}

// Build fills an empty tree with entries, which must be sorted in
// strictly ascending order. It works bottom-up: the keys are packed
// into leaves to buildFill, written left to right and linked in that
// order; each inner level then holds the level below as children, each
// behind the shortest separator between its keys and its left
// neighbour's, until one node is left to be the root (see runs). Every
// page is written once and none is read back, where inserting the
// entries one at a time reads and rewrites a whole node per entry. The
// first leaf goes into the empty root page, so the file holds the meta
// page and the tree's own pages and nothing else.
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
	root, err := t.readNode(t.root)
	if err != nil {
		return err
	}
	if !root.isLeaf || len(root.keys) > 0 {
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

// laidOut is a node Build has packed: the node, the separator its
// parent puts in front of it, and its page once written.
type laidOut struct {
	n   *node
	sep []byte
	id  storage.PageID
}

// packLeaves packs sorted keys into leaves.
func packLeaves(keys [][]byte) []laidOut {
	b := runs(len(keys), func(i int, _ bool) int {
		return 2 + 2 + len(keys[i]) // slot offset, key length, key
	})
	out := make([]laidOut, len(b)-1)
	for j := range out {
		s, e := b[j], b[j+1]
		out[j] = laidOut{n: &node{isLeaf: true, keys: keys[s:e]}, sep: keys[s]}
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
		n := &node{next: storage.InvalidPageID, keys: make([][]byte, 0, e-s-1), children: make([]storage.PageID, 0, e-s)}
		for i := s; i < e; i++ {
			if i > s {
				n.keys = append(n.keys, kids[i].sep)
			}
			n.children = append(n.children, kids[i].id)
		}
		out[j] = laidOut{n: n, sep: kids[s].sep}
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
// fresh page. A node is serialized once the next one has a page, so a
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
			t.writeBuilt(prev, level[i-1].n, level[i].id)
		}
		prev = fr
	}
	t.writeBuilt(prev, level[len(level)-1].n, storage.InvalidPageID)
	return level, nil
}

// writeBuilt serializes n into its pinned frame, linking a leaf to next,
// and releases the frame.
func (t *Tree) writeBuilt(fr *buffer.Frame, n *node, next storage.PageID) {
	if n.isLeaf {
		n.next = next
	}
	n.serialize(fr.Buf)
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

// Scan visits every key k with lo <= k < hi in order. A nil hi means
// "to the end". fn returning ErrStopScan ends the scan cleanly.
//
// The slice handed to fn aliases the pinned page frame: it is valid
// only until fn returns and must not be modified; a caller that keeps
// the key copies it. The tree's read lock is held for the whole scan,
// so fn must not insert into or delete from this tree.
func (t *Tree) Scan(lo, hi []byte, fn func(key []byte) error) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	fr, _, err := t.descend(lo)
	if err != nil {
		return err
	}
	p := page(fr.Buf)
	i := p.search(lo)
	for {
		for n := p.count(); i < n; i++ {
			k := p.key(i)
			if hi != nil && bytes.Compare(k, hi) >= 0 {
				t.pool.Unpin(fr, false)
				return nil
			}
			if err := fn(k); err != nil {
				t.pool.Unpin(fr, false)
				if errors.Is(err, ErrStopScan) {
					return nil
				}
				return err
			}
		}
		next := p.next()
		t.pool.Unpin(fr, false)
		if next == storage.InvalidPageID {
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
	out := make([]byte, 0, len(key)+6)
	out = append(out, key...)
	out = binary.BigEndian.AppendUint32(out, uint32(rid.Page))
	out = binary.BigEndian.AppendUint16(out, uint16(rid.Slot))
	return out
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
