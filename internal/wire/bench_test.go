package wire

import (
	"fmt"
	"testing"

	"pmv/internal/expr"
	"pmv/internal/value"
)

// BenchmarkCodecs times one encode/decode round trip of the payloads
// on the query path: a client query, a router's 8-part probe batch,
// the closing report, a write batch and a streamed row.
func BenchmarkCodecs(b *testing.B) {
	query := QueryRequest{View: "pmv_orders", Deadline: 1e9, Conds: []expr.CondInstance{
		{Values: []value.Value{value.Int(7), value.Int(9)}},
		{Intervals: []expr.Interval{{Lo: value.Date(100), Hi: value.Date(200), LoIncl: true}}},
	}}
	probe := ProbeRequest{View: "pmv_orders", Epoch: 3, BudgetNs: 5e8}
	for i := 0; i < 8; i++ {
		probe.Parts = append(probe.Parts, ProbePart{Key: fmt.Sprintf("bcp-%d", i), Exact: i%2 == 0, Conds: []expr.CondInstance{
			{Values: []value.Value{value.Int(int64(i))}},
			{Intervals: []expr.Interval{{Lo: value.Int(1), Hi: value.Int(9), LoIncl: true}}},
		}})
	}
	report := Report{Hit: true, ConditionParts: 4, PartialTuples: 9, TotalTuples: 11, PartialLatency: 1e5, ExecLatency: 2e6}
	row := value.Tuple{value.Int(42), value.Str("hello"), value.Float(2.5), value.Date(9000)}
	cases := []struct {
		name string
		trip func() error
	}{
		{"query", func() error {
			p, err := EncodeQuery(query)
			if err == nil {
				_, err = DecodeQuery(p)
			}
			return err
		}},
		{"probe8", func() error {
			p, err := EncodeProbe(probe)
			if err == nil {
				_, err = DecodeProbe(p)
			}
			return err
		}},
		{"report", func() error {
			_, err := DecodeReport(EncodeReport(nil, report))
			return err
		}},
		{"update", func() error {
			p, err := EncodeUpdate(updateFixture())
			if err == nil {
				_, err = DecodeUpdate(p)
			}
			return err
		}},
		{"row", func() error {
			_, _, err := DecodeRow(EncodeRow(nil, row, true))
			return err
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.trip(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
