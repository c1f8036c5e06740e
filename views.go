package pmv

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"pmv/internal/cache"
	"pmv/internal/core"
	"pmv/internal/expr"
	"pmv/internal/value"
)

// View definitions are persisted to views.json in the database
// directory, so a reopened database recreates its PMVs automatically
// (empty — a PMV is a cache and refills from query execution, exactly
// as a freshly-created one does in the paper).

type viewDef struct {
	Name              string                `json:"name"`
	Template          *expr.Template        `json:"template"`
	MaxEntries        int                   `json:"max_entries"`
	TuplesPerBCP      int                   `json:"tuples_per_bcp"`
	MaxConditionParts int                   `json:"max_condition_parts,omitempty"`
	Policy            cache.PolicyKind      `json:"policy"`
	Dividers          map[int][]value.Value `json:"dividers,omitempty"`
	UseMaintIndex     bool                  `json:"use_maint_index,omitempty"`
}

func (db *DB) viewsPath() string { return filepath.Join(db.eng.Dir(), "views.json") }

func (db *DB) saveViews() error {
	defs := make([]viewDef, 0, len(db.views))
	for _, v := range db.views {
		cfg := v.Config()
		defs = append(defs, viewDef{
			Name:              cfg.Name,
			Template:          cfg.Template,
			MaxEntries:        cfg.MaxEntries,
			TuplesPerBCP:      cfg.TuplesPerBCP,
			MaxConditionParts: cfg.MaxConditionParts,
			Policy:            cfg.Policy,
			Dividers:          cfg.Dividers,
			UseMaintIndex:     cfg.UseMaintIndex,
		})
	}
	sort.Slice(defs, func(i, j int) bool { return defs[i].Name < defs[j].Name })
	data, err := json.MarshalIndent(defs, "", "  ")
	if err != nil {
		return err
	}
	return db.eng.FS().WriteFile(db.viewsPath(), data)
}

func (db *DB) loadViews() error {
	data, err := db.eng.FS().ReadFile(db.viewsPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var defs []viewDef
	if err := json.Unmarshal(data, &defs); err != nil {
		return fmt.Errorf("pmv: parse %s: %w", db.viewsPath(), err)
	}
	for _, d := range defs {
		v, err := core.NewView(db.eng, core.Config{
			Name:              d.Name,
			Template:          d.Template,
			MaxEntries:        d.MaxEntries,
			TuplesPerBCP:      d.TuplesPerBCP,
			MaxConditionParts: d.MaxConditionParts,
			Policy:            d.Policy,
			Dividers:          d.Dividers,
			UseMaintIndex:     d.UseMaintIndex,
		})
		if err != nil {
			return fmt.Errorf("pmv: recreate view %q: %w", d.Name, err)
		}
		db.views[v.Name()] = v
	}
	return nil
}

// Views returns every partial materialized view, sorted by name.
func (db *DB) Views() []*View {
	out := make([]*View, 0, len(db.views))
	for _, v := range db.views {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// DBStats aggregates the database's runtime counters.
type DBStats struct {
	// BufferHits / BufferMisses are buffer-pool counters.
	BufferHits, BufferMisses int64
	// PhysicalReads / PhysicalWrites are page I/Os that reached the OS.
	PhysicalReads, PhysicalWrites int64
	// Views summarizes every PMV: entries, cached tuples, bytes, and
	// hit probability.
	Views []ViewSummary
	// ViewBytes is the aggregate PMV footprint — the paper's claim
	// that "the RDBMS can afford storing many PMVs" in memory.
	ViewBytes int
}

// ViewSummary is one view's line in DBStats.
type ViewSummary struct {
	Name      string
	Entries   int
	Tuples    int
	Bytes     int
	HitProb   float64
	Purged    int64
	Evictions int64
}

// Stats snapshots the database's counters.
func (db *DB) Stats() DBStats {
	var s DBStats
	s.BufferHits, s.BufferMisses = db.eng.Pool().Stats()
	s.PhysicalReads, s.PhysicalWrites = db.eng.IOStats()
	for _, v := range db.Views() {
		st := v.Stats()
		sz := v.SizeBytes()
		s.Views = append(s.Views, ViewSummary{
			Name:      v.Name(),
			Entries:   v.Len(),
			Tuples:    v.TupleCount(),
			Bytes:     sz,
			HitProb:   st.HitProbability(),
			Purged:    st.TuplesPurged,
			Evictions: st.EntriesEvicted,
		})
		s.ViewBytes += sz
	}
	return s
}

// DropPartialView detaches and forgets a view. The composite indexes
// CreatePartialView derived for it stay: they are ordinary catalog
// indexes and another view, or a plain query of the same shape, may be
// using them.
func (db *DB) DropPartialView(name string) error {
	v, ok := db.views[name]
	if !ok {
		return fmt.Errorf("pmv: no view %q", name)
	}
	v.Drop()
	delete(db.views, name)
	return db.saveViews()
}
