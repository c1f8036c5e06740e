package catalog_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pmv/internal/engine"
	"pmv/internal/storage"
	"pmv/internal/workload"
)

// benchEngine loads the benchmark of record's dataset (bench/spec.go
// fullScale: TPC-R 0.005, 100 days × 100 suppliers, a 2,048-page pool)
// with LoadTPCR's seven single-column indexes; composites adds the two
// CreatePartialView derives for T1, for nine indexes and 121,500
// entries in all.
func benchEngine(b testing.TB, composites bool) *engine.Engine {
	b.Helper()
	eng, err := engine.Open(b.TempDir(), engine.Options{BufferPoolPages: 2048})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	if _, err := workload.LoadTPCR(eng, workload.TPCRConfig{
		ScaleFactor: 0.005, Days: 100, Suppliers: 100, Nations: 25, Seed: 1, Deterministic: true}); err != nil {
		b.Fatal(err)
	}
	if composites {
		for _, cols := range [][]string{{"orders", "orderdate", "orderkey"}, {"lineitem", "suppkey", "orderkey"}} {
			if _, err := eng.CreateIndex("", cols[0], cols[1:]...); err != nil {
				b.Fatal(err)
			}
		}
	}
	return eng
}

// BenchmarkCreateIndex builds T1's lineitem (suppkey, orderkey)
// composite over 30,000 rows, under a new name each time.
func BenchmarkCreateIndex(b *testing.B) {
	eng := benchEngine(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.CreateIndex(fmt.Sprintf("lineitem_suppkey_orderkey_%d", i), "lineitem", "suppkey", "orderkey"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRebuildIndexes is recovery's index step over all nine
// indexes. index-pages is the page count of their files, meta pages
// included.
func BenchmarkRebuildIndexes(b *testing.B) {
	eng := benchEngine(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Catalog().RebuildIndexes(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	files, err := filepath.Glob(filepath.Join(eng.Dir(), "idx.*.pg"))
	if err != nil {
		b.Fatal(err)
	}
	var size int64
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			b.Fatal(err)
		}
		size += st.Size()
	}
	b.ReportMetric(float64(size/storage.PageSize), "index-pages")
}
