package value

import "testing"

var benchTuple = Tuple{
	Int(123456789), Str("a-medium-length-string-payload"), Float(3.14159),
	Date(20454), Bool(true), Null(),
}

func BenchmarkEncodeTuple(b *testing.B) {
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = EncodeTuple(buf[:0], benchTuple)
	}
}

func BenchmarkDecodeTuple(b *testing.B) {
	enc := EncodeTuple(nil, benchTuple)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeTuple(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompareTuples(b *testing.B) {
	other := benchTuple.Clone()
	other[0] = Int(123456790)
	for i := 0; i < b.N; i++ {
		CompareTuples(benchTuple, other)
	}
}

// ordersRow is shaped like the benchmark's orders tuple: key, customer,
// date, price, priority and clerk.
var ordersRow = Tuple{
	Int(48213), Int(1187), Date(20454), Float(123456.75),
	Str("3-MEDIUM"), Str("Clerk#000000042"),
}

// BenchmarkAppendDecodedString decodes one orders-shaped record into a
// reused row, as a heap scan does: the scan's per-row cost, 0 allocs.
func BenchmarkAppendDecodedString(b *testing.B) {
	enc := string(EncodeTuple(nil, ordersRow))
	row := make(Tuple, 0, len(ordersRow))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if row, _, err = AppendDecodedString(row[:0], enc, nil); err != nil {
			b.Fatal(err)
		}
	}
}
