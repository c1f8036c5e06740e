package catalog

import (
	"strings"

	"pmv/internal/keycodec"
	"pmv/internal/storage"
	"pmv/internal/value"
)

// Statistics mirror what the paper relies on ("we ran the PostgreSQL
// statistics collection program on all the relations"): row counts and
// per-column distinct-value/min/max estimates, used by the planner to
// pick the most selective driving relation and access path.

// ColumnStats summarizes one column.
type ColumnStats struct {
	// NDistinct is the number of distinct non-null values (exact up to
	// the collection cap, then an estimate flagged by Estimated).
	NDistinct int64 `json:"n_distinct"`
	// Estimated is true when NDistinct hit the collection cap.
	Estimated bool `json:"estimated,omitempty"`
	// NullCount counts NULLs.
	NullCount int64 `json:"null_count,omitempty"`
	// Min and Max bound the non-null values.
	Min value.Value `json:"min"`
	Max value.Value `json:"max"`
}

// RelationStats summarizes one relation.
type RelationStats struct {
	RowCount int64         `json:"row_count"`
	Cols     []ColumnStats `json:"cols"`
}

// distinctCap bounds the exact distinct-count set per column.
const distinctCap = 1 << 16

// CollectStats scans the relation once and computes fresh statistics.
// It allocates per distinct value, not per value: each value's key is
// encoded into one reused buffer, and the distinct set copies it only
// when the lookup misses.
func CollectStats(r *Relation) (*RelationStats, error) {
	n := r.Schema.Arity()
	st := &RelationStats{Cols: make([]ColumnStats, n)}
	sets := make([]map[string]struct{}, n)
	for i := range sets {
		sets[i] = make(map[string]struct{})
	}
	var key []byte
	err := r.Heap.Scan(func(_ storage.RID, t value.Tuple) error {
		st.RowCount++
		for i := 0; i < n; i++ {
			v := t[i]
			cs := &st.Cols[i]
			if v.IsNull() {
				cs.NullCount++
				continue
			}
			if cs.Min.IsNull() || value.Compare(v, cs.Min) < 0 {
				cs.Min = v
			}
			if cs.Max.IsNull() || value.Compare(v, cs.Max) > 0 {
				cs.Max = v
			}
			if !cs.Estimated {
				key = keycodec.AppendValue(key[:0], v)
				if _, ok := sets[i][string(key)]; !ok {
					sets[i][string(key)] = struct{}{}
				}
				if len(sets[i]) >= distinctCap {
					cs.Estimated = true
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range st.Cols {
		cs := &st.Cols[i]
		// When the cap was hit, NDistinct is a lower bound — which only
		// makes the planner's selectivity estimates conservative.
		cs.NDistinct = int64(len(sets[i]))
		// A scanned string shares its page's copy; the catalog keeps
		// its bounds for good, so they get their own bytes.
		cs.Min, cs.Max = ownString(cs.Min), ownString(cs.Max)
	}
	return st, nil
}

// ownString returns v with a string payload copied out of whatever
// larger string it shares.
func ownString(v value.Value) value.Value {
	if v.Type() != value.TypeString {
		return v
	}
	return value.Str(strings.Clone(v.Str()))
}

// Analyze recomputes and stores the relation's statistics, persisting
// them with the catalog metadata.
func (c *Catalog) Analyze(rel string) (*RelationStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.relations[rel]
	if !ok {
		return nil, ErrNotFound
	}
	st, err := CollectStats(r)
	if err != nil {
		return nil, err
	}
	r.Stats = st
	c.rev.Add(1)
	return st, c.saveLocked(nil)
}

// AnalyzeAll analyzes every relation.
func (c *Catalog) AnalyzeAll() error {
	for _, r := range c.Relations() {
		if _, err := c.Analyze(r.Name); err != nil {
			return err
		}
	}
	return nil
}

// EqSelectivity estimates the fraction of rows matching an equality
// disjunction with k distinct values on column col. Returns 1 when no
// statistics exist.
func (r *Relation) EqSelectivity(col, k int) float64 {
	if r.Stats == nil || col >= len(r.Stats.Cols) {
		return 1
	}
	nd := r.Stats.Cols[col].NDistinct
	if nd <= 0 {
		return 1
	}
	sel := float64(k) / float64(nd)
	if sel > 1 {
		sel = 1
	}
	return sel
}

// RangeSelectivity estimates the fraction of rows in [lo, hi] on a
// numeric/date column using the min-max span. Null bounds mean
// unbounded. Returns 1 when no statistics apply.
func (r *Relation) RangeSelectivity(col int, lo, hi value.Value) float64 {
	if r.Stats == nil || col >= len(r.Stats.Cols) {
		return 1
	}
	cs := r.Stats.Cols[col]
	if cs.Min.IsNull() || cs.Max.IsNull() {
		return 1
	}
	switch cs.Min.Type() {
	case value.TypeInt, value.TypeFloat, value.TypeDate:
	default:
		return 1 // no span arithmetic for strings/bools
	}
	span := cs.Max.Float64() - cs.Min.Float64()
	if span <= 0 {
		return 1
	}
	l := cs.Min.Float64()
	if !lo.IsNull() && lo.Float64() > l {
		l = lo.Float64()
	}
	h := cs.Max.Float64()
	if !hi.IsNull() && hi.Float64() < h {
		h = hi.Float64()
	}
	if h < l {
		return 0
	}
	sel := (h - l) / span
	if sel > 1 {
		sel = 1
	}
	return sel
}
