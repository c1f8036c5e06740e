package maint_test

import (
	"context"
	"testing"

	"pmv"
	"pmv/internal/maint"
	"pmv/internal/value"
	"pmv/internal/wire"
)

// BenchmarkPlaneApply is the write plane's layer number in serve-rw's
// write shape: one writer sends 64-statement update requests back to
// back, each waiting for its ack, on a database with the WAL on and a
// plane with BatchSize 256. One op is one request: its apply, the
// in-batch purge of a cached view and the group-commit fsync.
func BenchmarkPlaneApply(b *testing.B) {
	const stmts = 64
	db, err := pmv.Open(b.TempDir(), pmv.Options{EnableWAL: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	tpl := storefront(b, db)
	view, err := db.CreatePartialView(tpl, pmv.ViewOptions{MaxEntries: 50, TuplesPerBCP: 3})
	if err != nil {
		b.Fatal(err)
	}
	q := pmv.NewQuery(tpl).In(0, pmv.Int(1), pmv.Int(2)).In(1, pmv.Int(3)).Query()
	if _, err := view.ExecutePartial(q, func(pmv.Result) error { return nil }); err != nil {
		b.Fatal(err)
	}
	p := newPlane(b, db, maint.Config{BatchSize: 256})

	ops := make([]wire.UpdateOp, stmts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ops {
			pid := int64((i*stmts + j) % 400)
			ops[j] = wire.UpdateOp{Kind: wire.OpUpdate, Rel: "sale", Col: "pid", Val: value.Int(pid),
				SetCol: "discount", SetVal: value.Int(int64(i % 50))}
		}
		if _, err := p.Apply(context.Background(), ops, false); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*stmts)/b.Elapsed().Seconds(), "stmts/s")
}
