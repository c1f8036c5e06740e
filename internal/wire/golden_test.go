package wire

import (
	"encoding/hex"
	"testing"
	"time"

	"pmv/internal/expr"
	"pmv/internal/value"
)

// goldenPayloads encodes one fixture of every binary message. The hex
// in TestGoldenPayloads pins the exact bytes, so a codec change that
// moves a single byte of any frame fails here.
func goldenPayloads() []struct {
	name string
	enc  func() ([]byte, error)
} {
	ok := func(b []byte) func() ([]byte, error) {
		return func() ([]byte, error) { return b, nil }
	}
	budgeted := probeFixture()
	budgeted.BudgetNs = 123456789
	refill := RefillRequest{View: "v", Epoch: 3, Tuples: []value.Tuple{
		{value.Int(1), value.Str("a")}, {value.Null(), value.Bool(true)},
	}}
	refillBudget := refill
	refillBudget.BudgetNs = 987654321
	tc := TraceContext{TraceID: 0x1122334455667788, ParentSpan: 7, Sampled: true}
	return []struct {
		name string
		enc  func() ([]byte, error)
	}{
		{"query/empty", func() ([]byte, error) { return EncodeQuery(QueryRequest{View: "v"}) }},
		{"query/full", func() ([]byte, error) {
			return EncodeQuery(QueryRequest{
				View:     "pmv_orders",
				Deadline: 1500 * time.Millisecond,
				Conds: []expr.CondInstance{
					{Values: []value.Value{value.Int(7), value.Str("x"), value.Null()}},
					{Intervals: []expr.Interval{
						{Lo: value.Date(100), Hi: value.Date(200), LoIncl: true},
						{Lo: value.Null(), Hi: value.Float(3.5), HiIncl: true},
						{Lo: value.Int(1), Hi: value.Int(2), LoIncl: true, HiIncl: true},
					}},
					{},
				},
			})
		}},
		{"row/partial", ok(EncodeRow(nil, value.Tuple{value.Int(42), value.Str("hello"), value.Bool(true)}, true))},
		{"row/empty", ok(EncodeRow(nil, value.Tuple{}, false))},
		{"report/zero", ok(EncodeReport(nil, Report{}))},
		{"report/full", ok(EncodeReport(nil, Report{
			Hit: true, Skipped: true, Degraded: true, DeadlineExpired: true, PartialOnly: true, Shed: true,
			ConditionParts: 4, PartialTuples: 9, TotalTuples: 11,
			PartialLatency: 12345, ExecLatency: 99 * time.Millisecond, Overhead: 77 * time.Microsecond,
		}))},
		{"peek", func() ([]byte, error) { return EncodePeek("lineitem", 17) }},
		{"hello", ok(EncodeHello())},
		{"version-err", ok(EncodeVersionErr(3))},
		{"epoch-err", ok(EncodeEpochErr(1 << 40))},
		{"probe", func() ([]byte, error) { return EncodeProbe(probeFixture()) }},
		{"probe/budget", func() ([]byte, error) { return EncodeProbe(budgeted) }},
		{"probe/empty", func() ([]byte, error) { return EncodeProbe(ProbeRequest{View: "v", Epoch: 1}) }},
		{"refill", func() ([]byte, error) { return EncodeRefill(refill) }},
		{"refill/budget", func() ([]byte, error) { return EncodeRefill(refillBudget) }},
		{"refill/empty", func() ([]byte, error) { return EncodeRefill(RefillRequest{View: "v"}) }},
		{"update", func() ([]byte, error) { return EncodeUpdate(updateFixture()) }},
		{"update/empty", func() ([]byte, error) { return EncodeUpdate(UpdateRequest{}) }},
		{"invalidate", func() ([]byte, error) { return EncodeInvalidate(invalidateFixture()) }},
		{"invalidate/all", func() ([]byte, error) { return EncodeInvalidate(InvalidateRequest{View: "v", Epoch: 1, All: true}) }},
		{"hot-set", func() ([]byte, error) {
			return EncodeHotSet(HotSetRequest{View: "pmv_orders", Epoch: 7, Seq: 42, Keys: []HotKey{
				{Key: "k1", Tuples: []value.Tuple{{value.Int(1), value.Str("a")}, {value.Float(-0.5)}}},
				{Key: "k2"},
			}})
		}},
		{"hot-set/empty", func() ([]byte, error) { return EncodeHotSet(HotSetRequest{View: "v", Epoch: 1, Seq: 1}) }},
		{"hot-inval", func() ([]byte, error) {
			return EncodeHotInval(HotInvalRequest{View: "v", Epoch: 3, Seq: 9, Keys: []string{"a", "", "c"}})
		}},
		{"filter", func() ([]byte, error) { return EncodeFilterReq("pmv_orders") }},
		{"trace-context", ok(AppendTraceContext(nil, tc))},
		{"traced", func() ([]byte, error) { return EncodeTraced(tc, MsgPing, EncodePing(nil, 5)) }},
		{"spans", func() ([]byte, error) {
			return EncodeSpans(123, []SpanRecord{
				{Kind: 2, StartNs: 10, DurNs: 500, N1: 1, N2: 3, N3: 1, Rows: 3, Bytes: 96},
				{Kind: 9, StartNs: -5, Allocs: 8192, Fsyncs: 1},
			})
		}},
		{"spans/empty", func() ([]byte, error) { return EncodeSpans(1, nil) }},
		{"ping", ok(EncodePing(nil, 1<<63))},
		{"pong", ok(EncodePong(nil, 42, 7))},
	}
}

// TestGoldenPayloads pins the exact encoding of every binary message.
func TestGoldenPayloads(t *testing.T) {
	want := map[string]string{
		"query/empty":    "00000000000000000001760000",
		"query/full":     "0000000059682f00000a706d765f6f72646572730003000003010000000000000007030000000178000100030100020400000000000000640400000000000000c80200020002400c000000000000030002010000000000000001010000000000000002010000",
		"row/partial":    "01000301000000000000002a030000000568656c6c6f0501",
		"row/empty":      "000000",
		"report/zero":    "00000000000000000000000000000000000000000000000000000000000000000000000000",
		"report/full":    "3f00000004000000090000000b00000000000030390000000005e69ec00000000000012cc8",
		"peek":           "00086c696e656974656d00000011",
		"hello":          "05",
		"version-err":    "03",
		"epoch-err":      "0000010000000000",
		"probe":          "000000000000002a000b706d765f6f6e5f73616c65000200026b3101000000026b32000002000001010000000000000003010001010002010000000000000001010000000000000009",
		"probe/budget":   "000000000000002a000b706d765f6f6e5f73616c65000200026b3101000000026b3200000200000101000000000000000301000101000201000000000000000101000000000000000900000000075bcd15",
		"probe/empty":    "00000000000000010001760000",
		"refill":         "00000000000000030001760000000200020100000000000000010300000001610002000501",
		"refill/budget":  "00000000000000030001760000000200020100000000000000010300000001610002000501000000003ade68b1",
		"refill/empty":   "000000000000000000017600000000",
		"update":         "01000300000473616c65000301000000000000000103000000017801000000000000000301000473616c650003706964000101000000000000000702000770726f647563740003706964000570726963650002010000000000000002024023000000000000",
		"update/empty":   "000000",
		"invalidate":     "000000000000002a00000b706d765f6f6e5f73616c650000000300026b310000001361206c6f6e6765722062696e617279006b6579",
		"invalidate/all": "00000000000000010100017600000000",
		"hot-set":        "0000000000000007000000000000002a000a706d765f6f7264657273000200026b3100020002010000000000000001030000000161000102bfe000000000000000026b320000",
		"hot-set/empty":  "000000000000000100000000000000010001760000",
		"hot-inval":      "0000000000000003000000000000000900017600030001610000000163",
		"filter":         "000a706d765f6f7264657273",
		"trace-context":  "1122334455667788000000000000000701",
		"traced":         "1122334455667788000000000000000701180000000000000005",
		"spans":          "000000000000007b000202000000000000000a00000000000001f4000000000000000100000000000000030000000000000001000000000000000300000000000000600000000000000000000000000000000009fffffffffffffffb00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000020000000000000000001",
		"spans/empty":    "00000000000000010000",
		"ping":           "8000000000000000",
		"pong":           "000000000000002a0000000000000007",
	}
	for _, g := range goldenPayloads() {
		b, err := g.enc()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		w, ok := want[g.name]
		if !ok {
			t.Errorf("%s: no golden bytes", g.name)
			continue
		}
		if got := hex.EncodeToString(b); got != w {
			t.Errorf("%s:\n got %s\nwant %s", g.name, got, w)
		}
	}
	if n := len(goldenPayloads()); n != len(want) {
		t.Errorf("%d fixtures, %d golden encodings", n, len(want))
	}
}
