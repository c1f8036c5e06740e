package value

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func roundtrip(t *testing.T, tup Tuple) {
	t.Helper()
	enc := EncodeTuple(nil, tup)
	if len(enc) != EncodedSize(tup) {
		t.Errorf("EncodedSize(%v) = %d, actual %d", tup, EncodedSize(tup), len(enc))
	}
	dec, n, err := DecodeTuple(enc)
	if err != nil {
		t.Fatalf("decode %v: %v", tup, err)
	}
	if n != len(enc) {
		t.Errorf("decode consumed %d of %d bytes", n, len(enc))
	}
	if CompareTuples(tup, dec) != 0 {
		t.Errorf("roundtrip: %v -> %v", tup, dec)
	}
}

func TestCodecRoundtrip(t *testing.T) {
	cases := []Tuple{
		{},
		{Int(0)},
		{Int(-1), Int(1 << 62), Int(math.MinInt64)},
		{Float(0), Float(-1.5), Float(math.Inf(1)), Float(math.SmallestNonzeroFloat64)},
		{Str(""), Str("hello"), Str("with\x00zero")},
		{Bool(true), Bool(false)},
		{Date(0), Date(-365), Date(40000)},
		{Null(), Int(1), Null()},
		{Int(1), Float(2.5), Str("mixed"), Bool(true), Date(3), Null()},
	}
	for _, c := range cases {
		roundtrip(t, c)
	}
}

func TestCodecRoundtripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	randValue := func() Value {
		switch rng.Intn(6) {
		case 0:
			return Null()
		case 1:
			return Int(rng.Int63() - rng.Int63())
		case 2:
			return Float(rng.NormFloat64() * 1e6)
		case 3:
			b := make([]byte, rng.Intn(40))
			rng.Read(b)
			return Str(string(b))
		case 4:
			return Bool(rng.Intn(2) == 0)
		default:
			return Date(rng.Int63n(100000) - 50000)
		}
	}
	for i := 0; i < 500; i++ {
		tup := make(Tuple, rng.Intn(8))
		for j := range tup {
			tup[j] = randValue()
		}
		roundtrip(t, tup)
	}
}

func TestCodecConcatenatedTuples(t *testing.T) {
	a := Tuple{Int(1), Str("a")}
	b := Tuple{Float(2.5)}
	buf := EncodeTuple(nil, a)
	buf = EncodeTuple(buf, b)
	da, n, err := DecodeTuple(buf)
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := DecodeTuple(buf[n:])
	if err != nil {
		t.Fatal(err)
	}
	if CompareTuples(a, da) != 0 || CompareTuples(b, db) != 0 {
		t.Error("concatenated decode broken")
	}
}

func TestCodecTruncationErrors(t *testing.T) {
	enc := EncodeTuple(nil, Tuple{Int(1), Str("hello"), Float(2.5)})
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := DecodeTuple(enc[:cut]); err == nil && cut < len(enc) {
			// A shorter prefix may still decode if it happens to form a
			// valid tuple; but cutting the header must fail.
			if cut < 2 {
				t.Errorf("decode of %d-byte prefix succeeded", cut)
			}
		}
	}
}

func TestCodecGarbageTag(t *testing.T) {
	buf := []byte{0, 1, 0xEE} // one column with unknown tag
	if _, _, err := DecodeTuple(buf); err == nil {
		t.Error("unknown tag accepted")
	}
}

func TestEncodedSizeQuick(t *testing.T) {
	f := func(i int64, s string, b bool) bool {
		tup := Tuple{Int(i), Str(s), Bool(b), Null()}
		return EncodedSize(tup) == len(EncodeTuple(nil, tup))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	tup := Tuple{Int(5), Str("x"), Float(1.25)}
	a := EncodeTuple(nil, tup)
	b := EncodeTuple(nil, tup)
	if !reflect.DeepEqual(a, b) {
		t.Error("encoding is not deterministic")
	}
}

// FuzzAppendDecoded holds the masked decode to the full one: on a random
// tuple's encoding, cut short, with a bit flipped or with bytes after
// it, AppendDecoded under a random mask must fail exactly when the full
// decode fails, consume the same bytes, keep dst's columns, and yield
// the full decode's value on every marked column and NULL elsewhere.
// It holds the two input forms to each other the same way:
// AppendDecodedString of the same bytes, under the same mask and dst,
// must fail exactly when AppendDecoded fails and otherwise consume the
// same bytes and yield identical values (NULL, ±0, NaN payloads,
// strings with 0x00 all included).
func FuzzAppendDecoded(f *testing.F) {
	f.Add(int64(1), uint8(6), uint64(0b101101), uint8(6), uint16(0), uint16(0), uint8(0))
	f.Add(int64(2), uint8(9), uint64(0), uint8(0), uint16(0), uint16(0), uint8(0))
	f.Add(int64(3), uint8(12), ^uint64(0), uint8(40), uint16(0), uint16(0), uint8(0))
	f.Add(int64(4), uint8(8), uint64(0b0110), uint8(4), uint16(17), uint16(0), uint8(0))
	f.Add(int64(5), uint8(8), uint64(0b1010), uint8(8), uint16(0), uint16(9), uint8(3))
	f.Add(int64(6), uint8(3), uint64(0b111), uint8(3), uint16(0), uint16(2), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, cols uint8, maskBits uint64, maskLen uint8, cut, flipAt uint16, flipBit uint8) {
		rng := rand.New(rand.NewSource(seed))
		tup := make(Tuple, int(cols)%24)
		for i := range tup {
			switch rng.Intn(7) {
			case 0:
				tup[i] = Null()
			case 6:
				// -0 and a NaN with a random payload: Identical tells
				// them from +0 and from another NaN.
				tup[i] = Float(math.Copysign(0, -1))
				if rng.Intn(2) == 0 {
					tup[i] = Float(math.Float64frombits(0x7ff8_0000_0000_0001 | rng.Uint64()&0x0007_ffff_ffff_ffff))
				}
			case 1:
				tup[i] = Int(rng.Int63() - rng.Int63())
			case 2:
				tup[i] = Float(rng.NormFloat64())
			case 3:
				b := make([]byte, rng.Intn(20))
				rng.Read(b)
				tup[i] = Str(string(b))
			case 4:
				tup[i] = Bool(rng.Intn(2) == 0)
			default:
				tup[i] = Date(rng.Int63n(100000))
			}
		}
		b := EncodeTuple(nil, tup)
		if flipBit != 0 && len(b) > 0 {
			b[int(flipAt)%len(b)] ^= 1 << (flipBit % 8)
		}
		switch {
		case cut > 0 && int(cut) < len(b):
			b = b[:len(b)-int(cut)]
		case cut > 0:
			b = append(b, byte(cut), byte(cut>>8)) // bytes after the record
		}
		mask := make([]bool, int(maskLen)%72)
		for i := range mask {
			mask[i] = maskBits>>(i%64)&1 == 1
		}

		full, nf, ferr := AppendDecoded(nil, b, nil)
		dst := Tuple{Str("kept")}
		got, nm, merr := AppendDecoded(dst, b, mask)
		for _, m := range [][]bool{nil, mask} {
			want, nw, werr := AppendDecoded(Tuple{Str("kept")}, b, m)
			fromStr, ns, serr := AppendDecodedString(Tuple{Str("kept")}, string(b), m)
			if (werr == nil) != (serr == nil) || ns != nw || len(fromStr) != len(want) {
				t.Fatalf("string decode: %d columns, %d bytes, err %v; []byte decode: %d columns, %d bytes, err %v",
					len(fromStr), ns, serr, len(want), nw, werr)
			}
			for i := range want {
				if !Identical(fromStr[i], want[i]) {
					t.Fatalf("column %d: string decode %v, []byte decode %v", i, fromStr[i], want[i])
				}
			}
		}
		if (ferr == nil) != (merr == nil) {
			t.Fatalf("full decode err %v, masked decode err %v", ferr, merr)
		}
		if ferr != nil {
			if got != nil || nm != 0 {
				t.Fatalf("failed masked decode returned %v, %d bytes", got, nm)
			}
			return
		}
		if nm != nf {
			t.Fatalf("masked decode consumed %d bytes, full %d", nm, nf)
		}
		if len(got) != len(dst)+len(full) || !Identical(got[0], dst[0]) {
			t.Fatalf("masked decode returned %v for dst %v and %d columns", got, dst, len(full))
		}
		for i, v := range full {
			want := Null()
			if i < len(mask) && mask[i] {
				want = v
			}
			if !Identical(got[len(dst)+i], want) {
				t.Fatalf("column %d: masked decode %v, want %v (full %v)", i, got[len(dst)+i], want, v)
			}
		}
	})
}
