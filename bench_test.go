package pmv_test

import (
	"math/rand"
	"testing"

	"pmv"
	"pmv/internal/expr"
	"pmv/internal/value"
	"pmv/internal/workload"
)

// t1Fixture is BenchmarkPMVT1's set-up: the database, the T1 view and
// the 4,096-query hot stream (see BenchmarkPMVT1).
func t1Fixture(tb testing.TB) (*pmv.DB, *pmv.View, []*expr.Query) {
	tb.Helper()
	db, err := pmv.Open(tb.TempDir(), pmv.Options{BufferPoolPages: 2048})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	cfg, err := workload.LoadTPCR(db.Engine(), workload.TPCRConfig{
		ScaleFactor: 0.005, Days: 100, Suppliers: 100, Nations: 25, Seed: 1, Deterministic: true})
	if err != nil {
		tb.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		tb.Fatal(err)
	}
	tpl := workload.TemplateT1()
	view, err := db.CreatePartialView(tpl, pmv.ViewOptions{MaxEntries: 5000, TuplesPerBCP: 3})
	if err != nil {
		tb.Fatal(err)
	}

	// The first orderdate LoadTPCR generates (2026-01-01).
	const epochDay = 20454
	rng := rand.New(rand.NewSource(1))
	z := workload.NewPermutedZipf(rng, cfg.Days*cfg.Suppliers, 1.1)
	queries := make([]*expr.Query, 4096)
	for i := range queries {
		k := z.Draw()
		d1, s1 := k/cfg.Suppliers, k%cfg.Suppliers
		d2, s2 := d1, s1
		for d2 == d1 || s2 == s1 {
			k = z.Draw()
			d2, s2 = k/cfg.Suppliers, k%cfg.Suppliers
		}
		queries[i] = &expr.Query{Template: tpl, Conds: []expr.CondInstance{
			{Values: []value.Value{value.Date(epochDay + int64(d1)), value.Date(epochDay + int64(d2))}},
			{Values: []value.Value{value.Int(int64(s1)), value.Int(int64(s2))}},
		}}
	}
	return db, view, queries
}

// BenchmarkPMVT1 is the PMV core path's layer number on the benchmark
// of record's set-up (bench/spec.go fullScale): 750 customers, 7,500
// orders and 30,000 lineitems over 100 days × 100 suppliers, analyzed,
// under a T1 view of MaxEntries 5,000 and TuplesPerBCP 3. The stream is
// embed-hot's: 4,096 T1 queries of 2 dates × 2 suppliers whose two
// (date, supplier) pairs are drawn from a Zipf(1.1) over the 10,000
// bcps, replayed once to warm the view and the pool. One op is one
// View.ExecutePartial, Operations O1 to O3; fetches/op is buffer-pool
// fetches (hits + misses) per query.
func BenchmarkPMVT1(b *testing.B) {
	db, view, queries := t1Fixture(b)
	run := func(q *expr.Query) {
		if _, err := view.ExecutePartial(q, func(pmv.Result) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
	for _, q := range queries {
		run(q)
	}
	h0, m0 := db.Engine().Pool().Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(queries[i%len(queries)])
	}
	b.StopTimer()
	h1, m1 := db.Engine().Pool().Stats()
	b.ReportMetric(float64(h1-h0+m1-m0)/float64(b.N), "fetches/op")
}
