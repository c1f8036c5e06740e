package exec_test

import (
	"testing"

	"pmv/internal/engine"
	"pmv/internal/expr"
	"pmv/internal/value"
	"pmv/internal/workload"
)

// BenchmarkO3T1 is the executor's layer number on the benchmark of
// record's set-up (bench/spec.go fullScale): one PMV-less T1 query of
// 2 dates × 2 suppliers against a warm pool, planned and drained. The
// two sub-benchmarks run the same queries over the same data; what
// differs is whether the catalog holds the composite indexes
// pmv.DB.CreatePartialView derives, and so which plan PlanQuery picks.
// fetches/op is buffer-pool fetches (hits + misses) per query.
func BenchmarkO3T1(b *testing.B) {
	eng, err := engine.Open(b.TempDir(), engine.Options{BufferPoolPages: 2048})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	cfg, err := workload.LoadTPCR(eng, workload.TPCRConfig{
		ScaleFactor: 0.005, Days: 100, Suppliers: 100, Nations: 25, Seed: 1, Deterministic: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.AnalyzeAll(); err != nil {
		b.Fatal(err)
	}
	tpl := workload.TemplateT1()
	gen := workload.NewQueryGen(cfg, 7, 0.1)
	queries := make([]*expr.Query, 256)
	for i := range queries {
		queries[i] = gen.T1Query(tpl, 2, 2, false)
	}
	run := func(b *testing.B) {
		drain := func(q *expr.Query) {
			if err := eng.ExecuteProject(q, tpl.Select, func(value.Tuple) error { return nil }); err != nil {
				b.Fatal(err)
			}
		}
		for _, q := range queries { // warm the pool
			drain(q)
		}
		h0, m0 := eng.Pool().Stats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			drain(queries[i%len(queries)])
		}
		b.StopTimer()
		h1, m1 := eng.Pool().Stats()
		b.ReportMetric(float64(h1-h0+m1-m0)/float64(b.N), "fetches/op")
	}
	b.Run("indexjoin", run)
	for _, ix := range [][3]string{{"orders", "orderdate", "orderkey"}, {"lineitem", "suppkey", "orderkey"}} {
		if _, err := eng.CreateIndex("", ix[0], ix[1], ix[2]); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("keyonly", run)
}
