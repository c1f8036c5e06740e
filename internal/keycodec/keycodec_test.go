package keycodec

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pmv/internal/value"
)

// TestOrderPreservation is the package's core contract: bytewise order
// of encodings equals value.Compare order.
func TestOrderPreservation(t *testing.T) {
	vals := []value.Value{
		value.Null(),
		value.Int(math.MinInt64), value.Int(-1), value.Int(0), value.Int(1), value.Int(math.MaxInt64),
		value.Float(math.Inf(-1)), value.Float(-1e300), value.Float(-1.5), value.Float(-0.0),
		value.Float(0.0), value.Float(1.5), value.Float(1e300), value.Float(math.Inf(1)),
		value.Str(""), value.Str("a"), value.Str("a\x00"), value.Str("a\x00b"), value.Str("aa"), value.Str("b"),
		value.Date(-100), value.Date(0), value.Date(100),
		value.Bool(false), value.Bool(true),
	}
	for _, a := range vals {
		for _, b := range vals {
			if a.Type() != b.Type() && !(a.IsNull() || b.IsNull()) {
				continue // cross-type order not used by indexes
			}
			ea, eb := Encode(value.Tuple{a}), Encode(value.Tuple{b})
			want := value.Compare(a, b)
			got := bytes.Compare(ea, eb)
			if sign(got) != sign(want) {
				t.Errorf("order mismatch: %v vs %v: value %d, bytes %d", a, b, want, got)
			}
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

func TestOrderPreservationQuickInts(t *testing.T) {
	f := func(a, b int64) bool {
		ea := Encode(value.Tuple{value.Int(a)})
		eb := Encode(value.Tuple{value.Int(b)})
		return sign(bytes.Compare(ea, eb)) == sign(value.Compare(value.Int(a), value.Int(b)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOrderPreservationQuickFloats(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ea := Encode(value.Tuple{value.Float(a)})
		eb := Encode(value.Tuple{value.Float(b)})
		return sign(bytes.Compare(ea, eb)) == sign(value.Compare(value.Float(a), value.Float(b)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOrderPreservationQuickStrings(t *testing.T) {
	f := func(a, b string) bool {
		ea := Encode(value.Tuple{value.Str(a)})
		eb := Encode(value.Tuple{value.Str(b)})
		return sign(bytes.Compare(ea, eb)) == sign(value.Compare(value.Str(a), value.Str(b)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompositeOrderPreservation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mk := func() value.Tuple {
		return value.Tuple{
			value.Int(rng.Int63n(5)),
			value.Str(string(rune('a' + rng.Intn(3)))),
			value.Float(float64(rng.Intn(4))),
		}
	}
	for i := 0; i < 2000; i++ {
		a, b := mk(), mk()
		ea, eb := Encode(a), Encode(b)
		if sign(bytes.Compare(ea, eb)) != sign(value.CompareTuples(a, b)) {
			t.Fatalf("composite mismatch: %v vs %v", a, b)
		}
	}
}

func TestRoundtrip(t *testing.T) {
	tup := value.Tuple{
		value.Null(), value.Int(-7), value.Float(3.25),
		value.Str("he\x00llo"), value.Date(9), value.Bool(true),
	}
	enc := Encode(tup)
	dec, n, err := DecodeTuple(enc, len(tup))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Errorf("consumed %d of %d", n, len(enc))
	}
	if value.CompareTuples(tup, dec) != 0 {
		t.Errorf("roundtrip %v -> %v", tup, dec)
	}
}

func TestRoundtripQuick(t *testing.T) {
	f := func(i int64, s string, fl float64, b bool) bool {
		if math.IsNaN(fl) {
			return true
		}
		tup := value.Tuple{value.Int(i), value.Str(s), value.Float(fl), value.Bool(b)}
		dec, _, err := DecodeTuple(Encode(tup), len(tup))
		return err == nil && value.CompareTuples(tup, dec) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringPrefixProperty(t *testing.T) {
	// "a" must sort before "aa": terminator below all content bytes.
	a := Encode(value.Tuple{value.Str("a")})
	aa := Encode(value.Tuple{value.Str("aa")})
	if bytes.Compare(a, aa) >= 0 {
		t.Error(`"a" >= "aa" in encoded order`)
	}
	// Zero bytes must not break ordering: "a\x00" < "a\x01".
	z0 := Encode(value.Tuple{value.Str("a\x00")})
	z1 := Encode(value.Tuple{value.Str("a\x01")})
	if bytes.Compare(z0, z1) >= 0 {
		t.Error(`"a\x00" >= "a\x01" in encoded order`)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		{},                 // empty
		{0x02},             // truncated int
		{0x03, 1, 2},       // truncated float
		{0x04, 'a'},        // unterminated string
		{0x04, 'a', 0x00},  // truncated escape
		{0x04, 0x00, 0x07}, // invalid escape byte
		{0x06},             // truncated bool
		{0xEE},             // unknown tag
	}
	for _, c := range cases {
		if _, _, err := DecodeValue(c); err == nil {
			t.Errorf("DecodeValue(%v) succeeded", c)
		}
	}
}

func TestAppendValueGrowsBuffer(t *testing.T) {
	buf := make([]byte, 0, 1)
	buf = AppendValue(buf, value.Int(1))
	buf = AppendValue(buf, value.Str("abc"))
	dec, _, err := DecodeTuple(buf, 2)
	if err != nil || dec[0].Int64() != 1 || dec[1].Str() != "abc" {
		t.Errorf("append chain broken: %v %v", dec, err)
	}
}

// TestSkipAndCapped: Skip measures every encoding DecodeValue reads
// without decoding it; AppendCapped writes a value whose encoding fits
// the cap as AppendValue does and a longer one as the one-byte absent
// tag, which DecodeValue reports as ErrAbsent and Skip steps over.
func TestSkipAndCapped(t *testing.T) {
	vals := []value.Value{
		value.Null(), value.Int(-7), value.Float(math.Copysign(0, -1)), value.Float(math.NaN()),
		value.Str(""), value.Str("a\x00b\x00"), value.Str("\x00\x01\x00"), value.Date(3), value.Bool(true),
		value.Str(string(bytes.Repeat([]byte{'x'}, 70))),
	}
	for _, v := range vals {
		enc := AppendValue(nil, v)
		n, err := Skip(append(enc, 0xEE))
		if err != nil || n != len(enc) {
			t.Errorf("Skip(%v) = %d, %v; want %d", v, n, err, len(enc))
		}
		got, m, err := DecodeValue(enc)
		if err != nil || m != len(enc) || !value.Identical(got, v) && !(v.Type() == value.TypeFloat && math.IsNaN(v.Float64())) {
			t.Errorf("DecodeValue(%v) = %v, %d, %v", v, got, m, err)
		}
		capped := AppendCapped([]byte{9}, v, 64)
		switch {
		case len(enc) <= 64 && !bytes.Equal(capped[1:], enc):
			t.Errorf("AppendCapped(%v) = %x, want %x", v, capped[1:], enc)
		case len(enc) > 64:
			if !bytes.Equal(capped, []byte{9, tagAbsent}) {
				t.Errorf("AppendCapped(%v) over the cap = %x, want the absent tag", v, capped)
			}
			if _, n, err := DecodeValue(capped[1:]); n != 1 || !errors.Is(err, ErrAbsent) {
				t.Errorf("DecodeValue(absent) = %d, %v", n, err)
			}
			if n, err := Skip(capped[1:]); n != 1 || err != nil {
				t.Errorf("Skip(absent) = %d, %v", n, err)
			}
		}
	}
	nan := math.Float64frombits(0x7ff8000000000123)
	if got, _, _ := DecodeValue(AppendValue(nil, value.Float(nan))); math.Float64bits(got.Float64()) != math.Float64bits(nan) {
		t.Errorf("NaN payload lost: %x", math.Float64bits(got.Float64()))
	}
	for _, bad := range [][]byte{{}, {tagInt, 1}, {tagString, 'a'}, {tagString, 0}, {tagString, 0, 2}, {0x7F}} {
		if _, err := Skip(bad); err == nil {
			t.Errorf("Skip(%x) accepted a malformed encoding", bad)
		}
	}
}
