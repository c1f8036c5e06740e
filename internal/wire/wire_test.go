package wire

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"pmv/internal/expr"
	"pmv/internal/value"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xab}, 4096)}
	for i, p := range payloads {
		before := buf.Len()
		if err := WriteFrame(&buf, byte(i+1), p); err != nil {
			t.Fatal(err)
		}
		// A frame sealed in place is the same bytes WriteFrame emits.
		sealed := append(make([]byte, FrameHeaderLen), p...)
		if err := SealFrame(sealed, byte(i+1)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sealed, buf.Bytes()[before:]) {
			t.Fatalf("frame %d: SealFrame and WriteFrame disagree", i)
		}
	}
	for i, p := range payloads {
		typ, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != byte(i+1) {
			t.Fatalf("frame %d: type %d, want %d", i, typ, i+1)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	// A length field beyond MaxFrame must be rejected before allocation.
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, MsgQuery})
	if _, _, err := ReadFrame(&buf); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

func TestFrameDetectsCorruption(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5a}, 300)
	var clean bytes.Buffer
	if err := WriteFrame(&clean, MsgRow, payload); err != nil {
		t.Fatal(err)
	}
	// Flipping any single bit — length, checksum, type, or payload —
	// must surface as a corrupt frame or a read error, never as a
	// successfully decoded wrong frame.
	for i := 0; i < clean.Len(); i++ {
		raw := append([]byte(nil), clean.Bytes()...)
		raw[i] ^= 1 << uint(i%8)
		typ, body, err := ReadFrame(bytes.NewReader(raw))
		if err == nil {
			t.Fatalf("bit flip at byte %d accepted (type 0x%02x, %d bytes)", i, typ, len(body))
		}
	}
	typ, body, err := ReadFrame(&clean)
	if err != nil || typ != MsgRow || !bytes.Equal(body, payload) {
		t.Fatalf("clean frame rejected: %v", err)
	}
}

func TestQueryRoundTrip(t *testing.T) {
	q := QueryRequest{
		View:     "pmv_orders",
		Deadline: 1500 * time.Millisecond,
		Conds: []expr.CondInstance{
			{Values: []value.Value{value.Int(7), value.Str("x"), value.Null()}},
			{Intervals: []expr.Interval{
				{Lo: value.Date(100), Hi: value.Date(200), LoIncl: true},
				{Lo: value.Null(), Hi: value.Float(3.5), HiIncl: true},
			}},
		},
	}
	b, err := EncodeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeQuery(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, q) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, q)
	}
}

func TestQueryDecodeRejectsGarbage(t *testing.T) {
	q := QueryRequest{View: "v", Conds: []expr.CondInstance{{Values: []value.Value{value.Int(1)}}}}
	b, err := EncodeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(b); cut++ {
		if _, err := DecodeQuery(b[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeQuery(append(append([]byte(nil), b...), 0)); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing byte accepted: %v", err)
	}
}

func TestRowRoundTrip(t *testing.T) {
	tu := value.Tuple{value.Int(42), value.Str("hello"), value.Bool(true)}
	for _, partial := range []bool{true, false} {
		b := EncodeRow(nil, tu, partial)
		got, p, err := DecodeRow(b)
		if err != nil {
			t.Fatal(err)
		}
		if p != partial {
			t.Fatalf("partial flag %v, want %v", p, partial)
		}
		if value.CompareTuples(got, tu) != 0 {
			t.Fatalf("tuple %v, want %v", got, tu)
		}
	}
}

func TestReportRoundTrip(t *testing.T) {
	r := Report{
		Hit: true, DeadlineExpired: true, Shed: true,
		ConditionParts: 4, PartialTuples: 9, TotalTuples: 9,
		PartialLatency: 12345 * time.Nanosecond,
		ExecLatency:    99 * time.Millisecond,
		Overhead:       77 * time.Microsecond,
	}
	got, err := DecodeReport(EncodeReport(nil, r))
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
}

func TestPeekRoundTrip(t *testing.T) {
	rel, n, err := DecodePeek(EncodePeek("lineitem", 17))
	if err != nil {
		t.Fatal(err)
	}
	if rel != "lineitem" || n != 17 {
		t.Fatalf("got %q/%d", rel, n)
	}
}
