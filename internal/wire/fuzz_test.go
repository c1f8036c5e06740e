package wire

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"pmv/internal/expr"
	"pmv/internal/value"
)

// Fuzz targets for the decoders that face hostile bytes: everything a
// peer sends crosses ReadFrame, and every payload crosses its decoder
// before touching the engine. Hostile input must produce an error,
// never a panic or an unbounded allocation, and every target checks
// one shared property with canonical: a payload a decoder accepts
// re-encodes to exactly the same bytes.

// canonical asserts that a payload decode accepts re-encodes to data.
func canonical[T any](t *testing.T, what string, data []byte, decode func([]byte) (T, error), encode func(T) ([]byte, error)) {
	t.Helper()
	v, err := decode(data)
	if err != nil {
		return
	}
	b, err := encode(v)
	if err != nil {
		t.Fatalf("%s: re-encode of accepted payload failed: %v", what, err)
	}
	if !bytes.Equal(b, data) {
		t.Fatalf("%s: accepted % x but re-encodes to % x", what, data, b)
	}
}

// fuzzFrameCorpus seeds the frame fuzzer with valid frames of every
// shape the round-trip tests cover.
func fuzzFrameCorpus(f *testing.F) {
	for i, p := range [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xab}, 4096)} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, byte(i+1), p); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, MsgQuery})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0})
}

func FuzzReadFrame(f *testing.F) {
	fuzzFrameCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A frame that decoded must round-trip byte-identically.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, payload); err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			t.Fatalf("frame round trip changed bytes")
		}
	})
}

func FuzzDecodeQuery(f *testing.F) {
	seeds := []QueryRequest{
		{View: "v"},
		{
			View:     "pmv_orders",
			Deadline: 1500 * time.Millisecond,
			Conds: []expr.CondInstance{
				{Values: []value.Value{value.Int(7), value.Str("x"), value.Null()}},
				{Intervals: []expr.Interval{
					{Lo: value.Date(100), Hi: value.Date(200), LoIncl: true},
					{Lo: value.Null(), Hi: value.Float(3.5), HiIncl: true},
				}},
			},
		},
	}
	for _, q := range seeds {
		b, err := EncodeQuery(q)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		canonical(t, "query", data, DecodeQuery, EncodeQuery)
	})
}

func FuzzDecodeRow(f *testing.F) {
	f.Add(EncodeRow(nil, value.Tuple{value.Int(42), value.Str("hello"), value.Bool(true)}, true))
	f.Add(EncodeRow(nil, value.Tuple{}, false))
	f.Add(EncodeReport(nil, Report{Hit: true, TotalTuples: 3}))
	type row struct {
		t       value.Tuple
		partial bool
	}
	type peek struct {
		rel string
		n   int
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		canonical(t, "row", data, func(b []byte) (row, error) {
			tu, partial, err := DecodeRow(b)
			return row{tu, partial}, err
		}, func(r row) ([]byte, error) { return EncodeRow(nil, r.t, r.partial), nil })
		canonical(t, "report", data, DecodeReport, func(r Report) ([]byte, error) { return EncodeReport(nil, r), nil })
		canonical(t, "peek", data, func(b []byte) (peek, error) {
			rel, n, err := DecodePeek(b)
			return peek{rel, n}, err
		}, func(p peek) ([]byte, error) { return EncodePeek(p.rel, p.n) })
	})
}

// TestCorruptFrameTyped pins the typed-error contract the client's
// retry logic relies on.
func TestCorruptFrameTyped(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgRow, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0x01
	if _, _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("payload corruption not typed ErrCorruptFrame: %v", err)
	}
}

func FuzzDecodeHotSet(f *testing.F) {
	seeds := []HotSetRequest{
		{View: "v", Epoch: 1, Seq: 1},
		{
			View: "pmv_orders", Epoch: 7, Seq: 42,
			Keys: []HotKey{
				{Key: "k1", Tuples: []value.Tuple{
					{value.Int(1), value.Str("a")},
					{value.Int(2), value.Str("b")},
				}},
				{Key: "k2"},
			},
		},
	}
	for _, req := range seeds {
		b, err := EncodeHotSet(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		canonical(t, "hot set", data, DecodeHotSet, EncodeHotSet)
	})
}

// FuzzDecodeHotInval also covers DecodeFilterReq.
func FuzzDecodeHotInval(f *testing.F) {
	seeds := []HotInvalRequest{
		{View: "v", Epoch: 1, Seq: 1},
		{View: "pmv_orders", Epoch: 7, Seq: 43, Keys: []string{"k1", "", "k3"}},
	}
	for _, req := range seeds {
		b, err := EncodeHotInval(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	if b, err := EncodeFilterReq("pmv_orders"); err == nil {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		canonical(t, "hot inval", data, DecodeHotInval, EncodeHotInval)
		canonical(t, "filter request", data, DecodeFilterReq, EncodeFilterReq)
	})
}
