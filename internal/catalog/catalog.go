// Package catalog tracks the engine's metadata: relations with their
// schemas, heap files, and secondary indexes. Metadata is persisted as
// JSON next to the page files so a database directory reopens cleanly.
package catalog

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

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

// Index is one secondary index over a relation.
type Index struct {
	Name     string      `json:"name"`
	Relation string      `json:"relation"`
	Cols     []int       `json:"cols"` // column positions forming the key
	Tree     *btree.Tree `json:"-"`
}

// KeyFor extracts and encodes the index key of tuple t.
func (ix *Index) KeyFor(t value.Tuple) []byte {
	key := make([]byte, 0, 16*len(ix.Cols))
	for _, c := range ix.Cols {
		key = keycodec.AppendValue(key, t[c])
	}
	return key
}

// Insert adds t (located at rid) to the index.
func (ix *Index) Insert(t value.Tuple, rid storage.RID) error {
	return ix.Tree.Insert(btree.PackRID(ix.KeyFor(t), rid))
}

// Delete removes t (located at rid) from the index.
func (ix *Index) Delete(t value.Tuple, rid storage.RID) error {
	return ix.Tree.Delete(btree.PackRID(ix.KeyFor(t), rid))
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

// Catalog is the metadata root for one database directory.
type Catalog struct {
	mu        sync.RWMutex
	dir       string
	pool      *buffer.Pool
	mgr       *storage.Manager
	relations map[string]*Relation
}

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

func (c *Catalog) saveLocked() error {
	rels := make([]*Relation, 0, len(c.relations))
	for _, r := range c.relations {
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
	return r, c.saveLocked()
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
// wholesale.
func (c *Catalog) RebuildIndexes() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.relations {
		for _, ix := range r.Indexes {
			file := indexFile(ix.Name)
			if err := c.pool.DiscardFile(file); err != nil {
				return err
			}
			if err := c.mgr.Remove(file); err != nil {
				return err
			}
			tr, err := btree.Open(c.pool, c.mgr, file)
			if err != nil {
				return err
			}
			ix.Tree = tr
			err = r.Heap.Scan(func(rid storage.RID, t value.Tuple) error {
				return ix.Insert(t, rid)
			})
			if err != nil {
				return fmt.Errorf("catalog: rebuild index %s: %w", ix.Name, err)
			}
		}
	}
	return nil
}

// CreateIndex builds a secondary index over the named columns of rel,
// backfilling it from the heap.
func (c *Catalog) CreateIndex(name, rel string, colNames ...string) (*Index, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.relations[rel]
	if !ok {
		return nil, fmt.Errorf("catalog: relation %s: %w", rel, ErrNotFound)
	}
	for _, ix := range r.Indexes {
		if ix.Name == name {
			return nil, fmt.Errorf("catalog: index %s: %w", name, ErrExists)
		}
	}
	cols := make([]int, len(colNames))
	for i, cn := range colNames {
		ci := r.Schema.ColIndex(cn)
		if ci < 0 {
			return nil, fmt.Errorf("catalog: relation %s has no column %s: %w", rel, cn, ErrNotFound)
		}
		cols[i] = ci
	}
	tr, err := btree.Open(c.pool, c.mgr, indexFile(name))
	if err != nil {
		return nil, err
	}
	ix := &Index{Name: name, Relation: rel, Cols: cols, Tree: tr}
	// Backfill from existing heap contents.
	err = r.Heap.Scan(func(rid storage.RID, t value.Tuple) error {
		return ix.Insert(t, rid)
	})
	if err != nil {
		return nil, fmt.Errorf("catalog: backfill index %s: %w", name, err)
	}
	r.Indexes = append(r.Indexes, ix)
	return ix, c.saveLocked()
}
