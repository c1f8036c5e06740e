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

// node is the in-memory form of one page, used by the mutating paths
// (Insert, Delete): a node is deserialized, changed, and re-serialized
// whole; with 8 KiB pages this keeps the code simple and the constant
// factors acceptable. The read paths never build one — see page.
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

func (t *Tree) splitLeaf(id storage.PageID, n *node) ([]byte, storage.PageID, error) {
	mid := len(n.keys) / 2
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
	mid := len(n.keys) / 2
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
