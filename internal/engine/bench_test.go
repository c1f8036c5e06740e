package engine

import (
	"context"
	"testing"

	"pmv/internal/catalog"
	"pmv/internal/value"
)

func benchEngine(b *testing.B, opts Options) *Engine {
	b.Helper()
	e, err := Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	if _, err := e.CreateRelation("kv", catalog.NewSchema(
		catalog.Col("k", value.TypeInt), catalog.Col("v", value.TypeString))); err != nil {
		b.Fatal(err)
	}
	if _, err := e.CreateIndex("", "kv", "k"); err != nil {
		b.Fatal(err)
	}
	return e
}

func BenchmarkInsertNoWAL(b *testing.B) {
	e := benchEngine(b, Options{BufferPoolPages: 256})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Insert("kv", value.Tuple{value.Int(int64(i)), value.Str("payload-payload")}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertWALBuffered(b *testing.B) {
	e := benchEngine(b, Options{BufferPoolPages: 256, EnableWAL: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Insert("kv", value.Tuple{value.Int(int64(i)), value.Str("payload-payload")}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertWALSyncEveryOp(b *testing.B) {
	e := benchEngine(b, Options{BufferPoolPages: 256, EnableWAL: true, SyncEveryOp: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Insert("kv", value.Tuple{value.Int(int64(i)), value.Str("payload-payload")}); err != nil {
			b.Fatal(err)
		}
	}
}

// pointRel loads the benchmark of record's orders cardinality: 7,500
// rows, k unique and indexed, u the same values with no index, one the
// same value in every row (indexed: the locator's worst case, where
// every row is a hit fetched by sorted RID).
func pointRel(b *testing.B) *Engine {
	b.Helper()
	e, err := Open(b.TempDir(), Options{BufferPoolPages: 1024})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	if _, err := e.CreateRelation("o", catalog.NewSchema(
		catalog.Col("k", value.TypeInt), catalog.Col("u", value.TypeInt), catalog.Col("one", value.TypeInt),
		catalog.Col("price", value.TypeInt), catalog.Col("comment", value.TypeString))); err != nil {
		b.Fatal(err)
	}
	rows := make([]value.Tuple, pointRows)
	for i := range rows {
		k := value.Int(int64(i))
		rows[i] = value.Tuple{k, k, value.Int(1), value.Int(0), value.Str("a comment about as long as an order's")}
	}
	if err := e.InsertBulk("o", rows); err != nil {
		b.Fatal(err)
	}
	for _, col := range []string{"k", "one"} {
		if _, err := e.CreateIndex("", "o", col); err != nil {
			b.Fatal(err)
		}
	}
	return e
}

const pointRows = 7500

// pointCases are the two ends of the locator and the path it replaces
// on an indexed column: val maps the iteration to the match value.
var pointCases = []struct {
	name, col string
	val       func(i int) int64
}{
	{"indexed", "k", func(i int) int64 { return int64(i*31) % pointRows }},
	{"unindexed", "u", func(i int) int64 { return int64(i*31) % pointRows }},
	{"every-row", "one", func(int) int64 { return 1 }},
}

// BenchmarkPointUpdate is `UPDATE o SET price = i WHERE col = v`. Its
// covered case is the indexed one with one more index, (one, k)
// carrying price, as a derived index carries a view's columns: every
// statement then rewrites that index's entry of the row.
func BenchmarkPointUpdate(b *testing.B) {
	run := func(b *testing.B, e *Engine, col string, val func(int) int64) {
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			price := value.Int(int64(i))
			_, err := e.UpdateEqCtx(ctx, "o", col, NewEqSet(value.Int(val(i))), func(t value.Tuple) value.Tuple {
				t[3] = price
				return t
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, c := range pointCases {
		b.Run(c.name, func(b *testing.B) { run(b, pointRel(b), c.col, c.val) })
	}
	b.Run("covered", func(b *testing.B) {
		e := pointRel(b)
		if _, err := e.CreateCoveringIndex("", "o", []string{"one", "k"}, []string{"price"}); err != nil {
			b.Fatal(err)
		}
		run(b, e, pointCases[0].col, pointCases[0].val)
	})
}

// BenchmarkPointDelete is `DELETE FROM o WHERE col = v`, the victims
// put back outside the timer so every iteration meets the same rows.
func BenchmarkPointDelete(b *testing.B) {
	for _, c := range pointCases {
		b.Run(c.name, func(b *testing.B) {
			e := pointRel(b)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				victims, err := e.DeleteEqCtx(ctx, "o", c.col, NewEqSet(value.Int(c.val(i))))
				if err != nil || len(victims) == 0 {
					b.Fatalf("deleted %d rows: %v", len(victims), err)
				}
				b.StopTimer()
				if err := e.InsertBulk("o", victims); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
