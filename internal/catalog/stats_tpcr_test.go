package catalog_test

import (
	"testing"

	"pmv/internal/catalog"
	"pmv/internal/keycodec"
	"pmv/internal/storage"
	"pmv/internal/value"
)

// TestCollectStatsMatchesReference holds Analyze over the TPC-R data to
// a straightforward reference: every row fetched on its own with
// Heap.Get, NULLs counted, bounds by value.Compare, distinct values as
// a set of their keys, one fresh string per value. At this scale no
// column reaches the distinct cap, so every count is exact.
func TestCollectStatsMatchesReference(t *testing.T) {
	eng := benchEngine(t, false)
	for _, rel := range []string{"customer", "orders", "lineitem"} {
		r, err := eng.Catalog().GetRelation(rel)
		if err != nil {
			t.Fatal(err)
		}
		var rids []storage.RID
		if err := r.Heap.Scan(func(rid storage.RID, _ value.Tuple) error {
			rids = append(rids, rid)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		n := r.Schema.Arity()
		want := catalog.RelationStats{RowCount: int64(len(rids)), Cols: make([]catalog.ColumnStats, n)}
		sets := make([]map[string]bool, n)
		for i := range sets {
			sets[i] = map[string]bool{}
		}
		for _, rid := range rids {
			tu, err := r.Heap.Get(rid)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range tu {
				cs := &want.Cols[i]
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
				sets[i][string(keycodec.AppendValue(nil, v))] = true
			}
		}
		for i := range want.Cols {
			want.Cols[i].NDistinct = int64(len(sets[i]))
		}
		got, err := eng.Catalog().Analyze(rel)
		if err != nil {
			t.Fatal(err)
		}
		if got.RowCount != want.RowCount || len(got.Cols) != n {
			t.Fatalf("%s: %d rows and %d columns, want %d and %d", rel, got.RowCount, len(got.Cols), want.RowCount, n)
		}
		for i, g := range got.Cols {
			w := want.Cols[i]
			if g.NDistinct != w.NDistinct || g.Estimated != w.Estimated || g.NullCount != w.NullCount ||
				!value.Identical(g.Min, w.Min) || !value.Identical(g.Max, w.Max) {
				t.Errorf("%s.%s: stats %+v, want %+v", rel, r.Schema.Columns[i].Name, g, w)
			}
		}
	}
}
