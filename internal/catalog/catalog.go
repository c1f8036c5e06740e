// Package catalog tracks the engine's metadata: relations with their
// schemas, heap files, and secondary indexes. Metadata is persisted as
// JSON next to the page files so a database directory reopens cleanly.
package catalog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"pmv/internal/btree"
	"pmv/internal/buffer"
	"pmv/internal/heap"
	"pmv/internal/keycodec"
	"pmv/internal/storage"
	"pmv/internal/value"
)

// Sentinel errors.
var (
	ErrExists   = errors.New("catalog: already exists")
	ErrNotFound = errors.New("catalog: not found")
)

// Column describes one attribute of a relation.
type Column struct {
	Name string     `json:"name"`
	Type value.Type `json:"type"`
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column `json:"columns"`
}

// NewSchema builds a schema from (name, type) pairs.
func NewSchema(cols ...Column) Schema { return Schema{Columns: cols} }

// Col is shorthand for constructing a Column.
func Col(name string, t value.Type) Column { return Column{Name: name, Type: t} }

// ColIndex returns the position of the named column, or -1.
func (s Schema) ColIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Arity returns the number of columns.
func (s Schema) Arity() int { return len(s.Columns) }

// Concat returns the schema of a join result: this schema followed by
// other, with column names prefixed where given.
func (s Schema) Concat(other Schema) Schema {
	cols := make([]Column, 0, len(s.Columns)+len(other.Columns))
	cols = append(cols, s.Columns...)
	cols = append(cols, other.Columns...)
	return Schema{Columns: cols}
}

// Index is one secondary index over a relation. Its last Covered
// columns are carried, not searched: a query that reads only the
// index's columns can be answered from its entries without the heap.
// Each covered value is written capped (see KeyFor).
type Index struct {
	Name     string      `json:"name"`
	Relation string      `json:"relation"`
	Cols     []int       `json:"cols"` // column positions: the searched key, then the covered ones
	Covered  int         `json:"covered,omitempty"`
	Tree     *btree.Tree `json:"-"`
}

const (
	// CoveredCap is the longest encoding a covered value is stored
	// with; a longer one is written as keycodec's absent tag, and a
	// reader fetches that value from the heap.
	CoveredCap = 64
	// MaxCoveredBytes bounds the covered columns of an index: the most
	// bytes their encodings can take together (see CoveredWidth) must
	// fit a quarter of the longest entry the tree takes.
	MaxCoveredBytes = btree.MaxKeyLen / 4
)

// CoveredWidth is the most bytes a covered column of type t takes in
// an entry: its fixed encoding, or CoveredCap for a string.
func CoveredWidth(t value.Type) int {
	switch t {
	case value.TypeString:
		return CoveredCap
	case value.TypeNull:
		return 1
	case value.TypeBool:
		return 2
	default:
		return 9
	}
}

// KeyFor extracts and encodes the index key of tuple t: every searched
// column in full, every covered one capped at CoveredCap
// (keycodec.AppendCapped).
func (ix *Index) KeyFor(t value.Tuple) []byte {
	return ix.appendKey(make([]byte, 0, 16*len(ix.Cols)), t)
}

func (ix *Index) appendKey(key []byte, t value.Tuple) []byte {
	searched := len(ix.Cols) - ix.Covered
	for i, c := range ix.Cols {
		if i < searched {
			key = keycodec.AppendValue(key, t[c])
		} else {
			key = keycodec.AppendCapped(key, t[c], CoveredCap)
		}
	}
	return key
}

// entry returns the tree entry of t at rid, PackRID(KeyFor(t), rid),
// in one allocation.
func (ix *Index) entry(t value.Tuple, rid storage.RID) []byte {
	return btree.AppendRID(ix.appendKey(make([]byte, 0, 16*len(ix.Cols)+6), t), rid)
}

// Insert adds t (located at rid) to the index.
func (ix *Index) Insert(t value.Tuple, rid storage.RID) error {
	return ix.Tree.Insert(ix.entry(t, rid))
}

// Delete removes t (located at rid) from the index.
func (ix *Index) Delete(t value.Tuple, rid storage.RID) error {
	return ix.Tree.Delete(ix.entry(t, rid))
}

// Same reports whether a and b give one entry at one RID: every column
// of the index holds an identical value (value.Identical, so a float
// that changed sign or NaN payload counts as changed).
func (ix *Index) Same(a, b value.Tuple) bool {
	for _, c := range ix.Cols {
		if !value.Identical(a[c], b[c]) {
			return false
		}
	}
	return true
}

// Replace moves the entry of old at oldRID to that of new at newRID
// (see btree.Tree.Replace: in place when it can be).
func (ix *Index) Replace(old value.Tuple, oldRID storage.RID, new value.Tuple, newRID storage.RID) error {
	return ix.Tree.Replace(ix.entry(old, oldRID), ix.entry(new, newRID))
}

// LookupEq streams the RIDs whose index key equals key (the encoded
// logical key without RID suffix).
func (ix *Index) LookupEq(key []byte, fn func(storage.RID) error) error {
	return ix.LookupRange(key, btree.Successor(key), fn)
}

// LookupRange streams RIDs with lo <= key < hi (encoded logical keys).
func (ix *Index) LookupRange(lo, hi []byte, fn func(storage.RID) error) error {
	return ix.ScanKeys(lo, hi, func(_ []byte, rid storage.RID) error { return fn(rid) })
}

// ScanKeys streams (encoded logical key, RID) for every entry with
// lo <= key < hi, without touching the heap — the index-only access a
// composite index exists for. key aliases the pinned index page (see
// btree.Tree.Scan): it is valid only until fn returns.
func (ix *Index) ScanKeys(lo, hi []byte, fn func(key []byte, rid storage.RID) error) error {
	return ix.Tree.Scan(lo, hi, func(entry []byte) error {
		key, rid, err := btree.UnpackRID(entry)
		if err != nil {
			return err
		}
		return fn(key, rid)
	})
}

// Relation is one base table.
type Relation struct {
	Name    string         `json:"name"`
	Schema  Schema         `json:"schema"`
	Indexes []*Index       `json:"indexes"`
	Stats   *RelationStats `json:"stats,omitempty"`
	Heap    *heap.Heap     `json:"-"`
}

// IndexOn returns an index whose key is exactly the given column
// positions, in that order, or nil. A composite index is not a match
// for its leading column alone.
func (r *Relation) IndexOn(cols ...int) *Index {
	for _, ix := range r.Indexes {
		if len(ix.Cols) != len(cols) {
			continue
		}
		match := true
		for i := range cols {
			if ix.Cols[i] != cols[i] {
				match = false
				break
			}
		}
		if match {
			return ix
		}
	}
	return nil
}

// IndexLedBy returns an index whose key starts with column position
// col, or nil: every entry for one value of col lies in one prefix
// range of it. Of several, the one with the fewest key columns wins —
// the shortest entries, so the fewest leaf pages per range.
func (r *Relation) IndexLedBy(col int) *Index {
	var best *Index
	for _, ix := range r.Indexes {
		if len(ix.Cols) > 0 && ix.Cols[0] == col && (best == nil || len(ix.Cols) < len(best.Cols)) {
			best = ix
		}
	}
	return best
}

// CoveringIndex returns, of the indexes whose columns start with
// prefix and include every column of cols, the one with the fewest
// columns, or nil when there is none.
func (r *Relation) CoveringIndex(prefix, cols []int) *Index {
	var best *Index
	for _, ix := range r.Indexes {
		if len(ix.Cols) < len(prefix) || !slices.Equal(ix.Cols[:len(prefix)], prefix) ||
			best != nil && len(ix.Cols) >= len(best.Cols) {
			continue
		}
		holds := true
		for _, c := range cols {
			holds = holds && slices.Contains(ix.Cols, c)
		}
		if holds {
			best = ix
		}
	}
	return best
}

// Catalog is the metadata root for one database directory.
type Catalog struct {
	mu        sync.RWMutex
	dir       string
	pool      *buffer.Pool
	mgr       *storage.Manager
	relations map[string]*Relation
	// rev counts the changes that can change a plan: a relation or an
	// index created, statistics collected, indexes rebuilt. A plan
	// chosen at one revision is reused only while it holds (see
	// Revision).
	rev atomic.Uint64
}

// Revision is the catalog's plan revision. It moves after every
// change a planner reads — CreateRelation, CreateIndex,
// CreateCoveringIndex, Analyze, RebuildIndexes — has become visible, so
// a plan built after reading revision r is current while Revision()
// still returns r.
func (c *Catalog) Revision() uint64 { return c.rev.Load() }

// Open loads (or initializes) the catalog in dir.
func Open(dir string, pool *buffer.Pool, mgr *storage.Manager) (*Catalog, error) {
	c := &Catalog{dir: dir, pool: pool, mgr: mgr, relations: make(map[string]*Relation)}
	path := c.metaPath()
	data, err := mgr.FS().ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("catalog: read %s: %w", path, err)
	}
	var rels []*Relation
	if err := json.Unmarshal(data, &rels); err != nil {
		return nil, fmt.Errorf("catalog: parse %s: %w", path, err)
	}
	for _, r := range rels {
		h, err := heap.Open(pool, mgr, heapFile(r.Name))
		if err != nil {
			return nil, err
		}
		r.Heap = h
		for _, ix := range r.Indexes {
			tr, err := btree.Open(pool, mgr, indexFile(ix.Name))
			if err != nil {
				return nil, err
			}
			ix.Tree = tr
		}
		c.relations[r.Name] = r
	}
	return c, nil
}

func (c *Catalog) metaPath() string { return filepath.Join(c.dir, "catalog.json") }

func heapFile(rel string) string   { return "heap." + rel }
func indexFile(name string) string { return "idx." + name }

// saveLocked writes catalog.json (synced), listing pending, when
// non-nil, as one more index of its relation.
func (c *Catalog) saveLocked(pending *Index) error {
	rels := make([]*Relation, 0, len(c.relations))
	for _, r := range c.relations {
		if pending != nil && r.Name == pending.Relation {
			withIx := *r
			withIx.Indexes = append(slices.Clip(r.Indexes), pending)
			r = &withIx
		}
		rels = append(rels, r)
	}
	sort.Slice(rels, func(i, j int) bool { return rels[i].Name < rels[j].Name })
	data, err := json.MarshalIndent(rels, "", "  ")
	if err != nil {
		return err
	}
	return c.mgr.FS().WriteFile(c.metaPath(), data)
}

// CreateRelation defines a new base relation.
func (c *Catalog) CreateRelation(name string, schema Schema) (*Relation, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.relations[name]; ok {
		return nil, fmt.Errorf("catalog: relation %s: %w", name, ErrExists)
	}
	h, err := heap.Open(c.pool, c.mgr, heapFile(name))
	if err != nil {
		return nil, err
	}
	r := &Relation{Name: name, Schema: schema, Heap: h}
	c.relations[name] = r
	c.rev.Add(1)
	return r, c.saveLocked(nil)
}

// GetRelation returns the named relation.
func (c *Catalog) GetRelation(name string) (*Relation, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.relations[name]
	if !ok {
		return nil, fmt.Errorf("catalog: relation %s: %w", name, ErrNotFound)
	}
	return r, nil
}

// Relations returns every relation, sorted by name.
func (c *Catalog) Relations() []*Relation {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Relation, 0, len(c.relations))
	for _, r := range c.relations {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RebuildIndexes discards and rebuilds every secondary index from its
// relation's heap. Recovery uses it: heap changes are WAL-logged but
// index changes are not, so after a crash the indexes are rebuilt
// wholesale — into fresh files, from one heap scan per relation.
func (c *Catalog) RebuildIndexes() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.relations {
		if len(r.Indexes) == 0 {
			continue
		}
		for _, ix := range r.Indexes {
			tr, err := c.freshTree(ix.Name)
			if err != nil {
				return err
			}
			ix.Tree = tr
		}
		if err := backfill(r, r.Indexes); err != nil {
			return fmt.Errorf("catalog: rebuild indexes of %s: %w", r.Name, err)
		}
	}
	c.rev.Add(1)
	return nil
}

// freshTree opens an empty tree for index name in a new file. Whatever
// the name's file held — an index's previous life, a build that failed
// or was cut short by a crash before catalog.json named it — is
// discarded from the pool unwritten and deleted first.
func (c *Catalog) freshTree(name string) (*btree.Tree, error) {
	if err := c.removeIndexFile(name); err != nil {
		return nil, err
	}
	return btree.Open(c.pool, c.mgr, indexFile(name))
}

func (c *Catalog) removeIndexFile(name string) error {
	file := indexFile(name)
	if err := c.pool.DiscardFile(file); err != nil {
		return err
	}
	return c.mgr.Remove(file)
}

// backfill fills the empty trees of ixs, all indexes of r, from one scan
// of r's heap: the scan encodes every index's entries, and each index
// sorts its own once and hands them to btree.Build.
func backfill(r *Relation, ixs []*Index) error {
	entries := make([][][]byte, len(ixs))
	for i := range entries {
		entries[i] = make([][]byte, 0, r.Heap.Count())
	}
	err := r.Heap.Scan(func(rid storage.RID, t value.Tuple) error {
		for i, ix := range ixs {
			entries[i] = append(entries[i], ix.entry(t, rid))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("scan %s: %w", r.Name, err)
	}
	for i, ix := range ixs {
		slices.SortFunc(entries[i], bytes.Compare)
		if err := ix.Tree.Build(entries[i]); err != nil {
			return fmt.Errorf("index %s: %w", ix.Name, err)
		}
	}
	return nil
}

// CreateIndex builds a secondary index over the named columns of rel,
// backfilling it from the heap. The index is registered only once it is
// built; a failed build leaves no file behind.
func (c *Catalog) CreateIndex(name, rel string, colNames ...string) (*Index, error) {
	return c.CreateCoveringIndex(name, rel, colNames, nil)
}

// CreateCoveringIndex is CreateIndex over the key columns followed by
// the covered ones (see Index).
func (c *Catalog) CreateCoveringIndex(name, rel string, key, covered []string) (*Index, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.relations[rel]
	if !ok {
		return nil, fmt.Errorf("catalog: relation %s: %w", rel, ErrNotFound)
	}
	// Index files are named after the index alone, so a name is taken
	// catalog-wide.
	for _, other := range c.relations {
		for _, ix := range other.Indexes {
			if ix.Name == name {
				return nil, fmt.Errorf("catalog: index %s: %w", name, ErrExists)
			}
		}
	}
	colNames := append(slices.Clip(key), covered...)
	cols := make([]int, len(colNames))
	for i, cn := range colNames {
		ci := r.Schema.ColIndex(cn)
		if ci < 0 {
			return nil, fmt.Errorf("catalog: relation %s has no column %s: %w", rel, cn, ErrNotFound)
		}
		cols[i] = ci
	}
	tr, err := c.freshTree(name)
	if err != nil {
		return nil, err
	}
	ix := &Index{Name: name, Relation: rel, Cols: cols, Covered: len(covered), Tree: tr}
	if err := backfill(r, []*Index{ix}); err != nil {
		if rerr := c.removeIndexFile(name); rerr != nil {
			err = errors.Join(err, rerr)
		}
		return nil, fmt.Errorf("catalog: backfill %w", err)
	}
	// The index's pages are durable before catalog.json names it: with
	// the WAL empty, Open runs no recovery and trusts the file.
	err = c.pool.SyncFile(indexFile(name))
	if err == nil {
		err = c.saveLocked(ix)
	}
	if err != nil {
		if rerr := c.removeIndexFile(name); rerr != nil {
			err = errors.Join(err, rerr)
		}
		return nil, fmt.Errorf("catalog: create index %s: %w", name, err)
	}
	r.Indexes = append(r.Indexes, ix)
	c.rev.Add(1)
	return ix, nil
}
