package value

import (
	"encoding/binary"
	"fmt"
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

// refAppendDecoded is the decoder body as it stood before the
// in-place rewrite: it appends each column and reads fields at offsets
// into the whole record. FuzzAppendDecoded holds both entry points to
// it, so it stays here as the reference for values, byte counts and
// error texts.
func refAppendDecoded(dst Tuple, b []byte, mask []bool) (Tuple, int, error) {
	if len(b) < 2 {
		return nil, 0, fmt.Errorf("value: short tuple header")
	}
	n := int(binary.BigEndian.Uint16(b))
	off := 2
	t := dst
	if t == nil || cap(t)-len(t) < n {
		t = make(Tuple, len(dst), len(dst)+n)
		copy(t, dst)
	}
	for i := 0; i < n; i++ {
		if off >= len(b) {
			return nil, 0, fmt.Errorf("value: truncated tuple at column %d", i)
		}
		typ := Type(b[off])
		off++
		keep := mask == nil || i < len(mask) && mask[i]
		var v Value
		switch typ {
		case TypeNull:
		case TypeInt, TypeDate:
			if off+8 > len(b) {
				return nil, 0, fmt.Errorf("value: truncated int at column %d", i)
			}
			v = Value{typ: typ, i: int64(binary.BigEndian.Uint64(b[off:]))}
			off += 8
		case TypeBool:
			if off+1 > len(b) {
				return nil, 0, fmt.Errorf("value: truncated bool at column %d", i)
			}
			if b[off] > 1 {
				return nil, 0, fmt.Errorf("value: bad bool byte 0x%02x at column %d", b[off], i)
			}
			v = Bool(b[off] != 0)
			off++
		case TypeFloat:
			if off+8 > len(b) {
				return nil, 0, fmt.Errorf("value: truncated float at column %d", i)
			}
			v = Float(math.Float64frombits(binary.BigEndian.Uint64(b[off:])))
			off += 8
		case TypeString:
			if off+4 > len(b) {
				return nil, 0, fmt.Errorf("value: truncated string length at column %d", i)
			}
			l := int(binary.BigEndian.Uint32(b[off:]))
			off += 4
			if off+l > len(b) {
				return nil, 0, fmt.Errorf("value: truncated string at column %d", i)
			}
			if keep {
				v = Str(string(b[off : off+l]))
			}
			off += l
		default:
			return nil, 0, fmt.Errorf("value: unknown type tag %d at column %d", typ, i)
		}
		if !keep {
			v = Value{}
		}
		t = append(t, v)
	}
	return t, off, nil
}

// FuzzAppendDecoded holds the decoder to refAppendDecoded and the
// masked decode to the full one. Its input is a random tuple's
// encoding, cut short, with a bit flipped or with bytes after it, or
// raw bytes when raw is not empty (the seeds name a bad bool byte, an
// unknown tag and truncations of every field).
//
// Both entry points, AppendDecoded and AppendDecodedString of the same
// bytes, with no mask and with a random one, onto a nil dst, a dst
// without room and a dst with room, must do what the reference does:
// fail exactly when it fails, with its error text and a nil row, and
// otherwise consume the same bytes and yield identical values (NULL,
// ±0, NaN payloads, strings with 0x00 all included).
//
// The masked decode must fail exactly when the full decode fails,
// consume the same bytes, keep dst's columns, and yield the full
// decode's value on every marked column and NULL elsewhere.
func FuzzAppendDecoded(f *testing.F) {
	none := []byte(nil)
	f.Add(int64(1), uint8(6), uint64(0b101101), uint8(6), uint16(0), uint16(0), uint8(0), none)
	f.Add(int64(2), uint8(9), uint64(0), uint8(0), uint16(0), uint16(0), uint8(0), none)
	f.Add(int64(3), uint8(12), ^uint64(0), uint8(40), uint16(0), uint16(0), uint8(0), none)
	f.Add(int64(4), uint8(8), uint64(0b0110), uint8(4), uint16(17), uint16(0), uint8(0), none)
	f.Add(int64(5), uint8(8), uint64(0b1010), uint8(8), uint16(0), uint16(9), uint8(3), none)
	f.Add(int64(6), uint8(3), uint64(0b111), uint8(3), uint16(0), uint16(2), uint8(7), none)
	for _, raw := range [][]byte{
		{0},                            // short header
		{0, 2, byte(TypeBool), 1},      // truncated tuple
		{0, 1, byte(TypeBool), 2},      // bad bool byte
		{0, 1, byte(TypeBool)},         // truncated bool
		{0, 1, 0xEE},                   // unknown tag
		{0, 1, byte(TypeInt), 1, 2, 3}, // truncated int
		{0, 1, byte(TypeDate), 1, 2, 3, 4, 5, 6, 7},
		{0, 1, byte(TypeFloat), 0x7f, 0xf8},
		{0, 1, byte(TypeString), 0, 0},                               // truncated length
		{0, 1, byte(TypeString), 0, 0, 0, 3, 'a', 'b'},               // truncated string
		{0, 1, byte(TypeString), 0xff, 0xff, 0xff, 0xff, 'a'},        // length past any input
		{0, 2, byte(TypeString), 0, 0, 0, 1, 'a', byte(TypeBool), 1}, // whole
	} {
		f.Add(int64(0), uint8(0), uint64(0b01), uint8(1), uint16(0), uint16(0), uint8(0), raw)
	}
	f.Fuzz(func(t *testing.T, seed int64, cols uint8, maskBits uint64, maskLen uint8, cut, flipAt uint16, flipBit uint8, raw []byte) {
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
		if len(raw) > 0 {
			b = raw
		}
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

		dsts := []func() Tuple{
			func() Tuple { return nil },
			func() Tuple { return Tuple{Str("kept")} },
			func() Tuple { return append(make(Tuple, 0, 40), Str("kept")) },
		}
		for _, m := range [][]bool{nil, mask} {
			for _, dst := range dsts {
				want, nw, werr := refAppendDecoded(dst(), b, m)
				fromBytes, nb, berr := AppendDecoded(dst(), b, m)
				fromStr, ns, serr := AppendDecodedString(dst(), string(b), m)
				sameAsRef(t, "AppendDecoded", want, nw, werr, fromBytes, nb, berr)
				sameAsRef(t, "AppendDecodedString", want, nw, werr, fromStr, ns, serr)
			}
		}

		full, nf, ferr := AppendDecoded(nil, b, nil)
		dst := Tuple{Str("kept")}
		got, nm, merr := AppendDecoded(dst, b, mask)
		if (ferr == nil) != (merr == nil) {
			t.Fatalf("full decode err %v, masked decode err %v", ferr, merr)
		}
		if ferr != nil {
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

// sameAsRef fails t unless one decode's result is the reference's: the
// same error text, or else the same byte count and identical columns.
// A failed decode must return a nil row and no bytes.
func sameAsRef(t *testing.T, name string, want Tuple, nw int, werr error, got Tuple, n int, err error) {
	t.Helper()
	if (werr == nil) != (err == nil) || werr != nil && werr.Error() != err.Error() {
		t.Fatalf("%s: err %v, reference err %v", name, err, werr)
	}
	if err != nil {
		if got != nil || n != 0 {
			t.Fatalf("%s: failed decode returned %v, %d bytes", name, got, n)
		}
		return
	}
	if n != nw || len(got) != len(want) {
		t.Fatalf("%s: %d columns from %d bytes, reference %d columns from %d bytes", name, len(got), n, len(want), nw)
	}
	for i := range want {
		if !Identical(got[i], want[i]) {
			t.Fatalf("%s: column %d = %v, reference %v", name, i, got[i], want[i])
		}
	}
}
