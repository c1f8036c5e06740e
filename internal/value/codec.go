package value

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Tuple wire format (used by heap pages and the PMV store):
//
//	u16 column count
//	per column: u8 type tag, then payload
//	  int/date: 8-byte big-endian two's complement
//	  bool:     1 byte
//	  float:    8-byte big-endian IEEE 754
//	  string:   u32 length + bytes
//	  null:     nothing
//
// The format is self-describing so heap tuples survive schema evolution
// of the reading code, and compact enough that Table 1 style size
// accounting is meaningful.

// EncodeTuple appends the wire encoding of t to dst and returns the
// extended slice.
func EncodeTuple(dst []byte, t Tuple) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(t)))
	for _, v := range t {
		dst = append(dst, byte(v.typ))
		switch v.typ {
		case TypeNull:
		case TypeInt, TypeDate:
			dst = binary.BigEndian.AppendUint64(dst, uint64(v.i))
		case TypeBool:
			dst = append(dst, byte(v.i))
		case TypeFloat:
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v.f))
		case TypeString:
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(v.s)))
			dst = append(dst, v.s...)
		default:
			panic(fmt.Sprintf("value: encode unknown type %d", v.typ))
		}
	}
	return dst
}

// DecodeTuple parses one tuple from the front of b, returning the tuple
// and the number of bytes consumed.
func DecodeTuple(b []byte) (Tuple, int, error) {
	return AppendDecoded(nil, b, nil)
}

// AppendDecoded parses one tuple from the front of b and appends its
// columns to dst, returning the extended row and the number of bytes
// consumed. It allocates only when dst lacks room for the columns, so a
// caller that sizes dst for several records decodes them into one row;
// each decoded string is a copy, so the row outlives b.
//
// A non-nil mask names the columns the caller reads: column i is
// decoded when i < len(mask) && mask[i], and appended as NULL
// otherwise, so a skipped string costs no allocation. A nil mask
// decodes every column. A skipped column is still parsed and
// bounds-checked, so the byte count and the errors do not depend on the
// mask. On error it returns a nil row.
func AppendDecoded(dst Tuple, b []byte, mask []bool) (Tuple, int, error) {
	return appendDecoded(dst, b, mask)
}

// AppendDecodedString is AppendDecoded over an immutable string: each
// decoded string is a substring of b, so a row whose columns all fit in
// dst costs no allocation, and the row keeps b alive.
func AppendDecodedString(dst Tuple, b string, mask []bool) (Tuple, int, error) {
	return appendDecoded(dst, b, mask)
}

// appendDecoded is the one decoder body behind both input forms. It
// sizes the row once and writes each column in place, reading every
// fixed-width field from a sub-slice bounded by its length check.
func appendDecoded[B []byte | string](dst Tuple, b B, mask []bool) (Tuple, int, error) {
	if len(b) < 2 {
		return nil, 0, fmt.Errorf("value: short tuple header")
	}
	n := int(be16(b[:2]))
	base := len(dst)
	t := dst
	if t == nil || cap(t)-base < n {
		t = make(Tuple, base, base+n)
		copy(t, dst)
	}
	t = t[:base+n]
	out := t[base:]
	off := 2
	for i := range out {
		if off >= len(b) {
			return nil, 0, fmt.Errorf("value: truncated tuple at column %d", i)
		}
		typ := Type(b[off])
		off++
		rest := b[off:]
		v := &out[i]
		switch typ {
		case TypeNull:
			*v = Value{}
		case TypeInt, TypeDate:
			if len(rest) < 8 {
				return nil, 0, fmt.Errorf("value: truncated int at column %d", i)
			}
			*v = Value{typ: typ, i: int64(be64(rest[:8]))}
			off += 8
		case TypeBool:
			if len(rest) < 1 {
				return nil, 0, fmt.Errorf("value: truncated bool at column %d", i)
			}
			if rest[0] > 1 {
				// Only 0 and 1 are written; anything else is corruption,
				// not a sloppy encoder.
				return nil, 0, fmt.Errorf("value: bad bool byte 0x%02x at column %d", rest[0], i)
			}
			*v = Value{typ: TypeBool, i: int64(rest[0])}
			off++
		case TypeFloat:
			if len(rest) < 8 {
				return nil, 0, fmt.Errorf("value: truncated float at column %d", i)
			}
			*v = Value{typ: TypeFloat, f: math.Float64frombits(be64(rest[:8]))}
			off += 8
		case TypeString:
			if len(rest) < 4 {
				return nil, 0, fmt.Errorf("value: truncated string length at column %d", i)
			}
			l := int(be32(rest[:4]))
			if l > len(rest)-4 {
				return nil, 0, fmt.Errorf("value: truncated string at column %d", i)
			}
			// A []byte input copies the string, so a column the mask
			// skips is not converted.
			var s string
			if mask == nil || i < len(mask) && mask[i] {
				s = string(rest[4 : 4+l])
			}
			*v = Value{typ: TypeString, s: s}
			off += 4 + l
		default:
			return nil, 0, fmt.Errorf("value: unknown type tag %d at column %d", typ, i)
		}
		if mask != nil && (i >= len(mask) || !mask[i]) {
			*v = Value{}
		}
	}
	return t, off, nil
}

// be16, be32 and be64 read a big-endian integer from a sub-slice of
// exactly its width, for either input form (encoding/binary takes only
// []byte).
func be16[B []byte | string](b B) uint16 {
	_ = b[1]
	return uint16(b[0])<<8 | uint16(b[1])
}

func be32[B []byte | string](b B) uint32 {
	_ = b[3]
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func be64[B []byte | string](b B) uint64 {
	_ = b[7]
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

// EncodedSize returns the wire size of t without encoding it.
func EncodedSize(t Tuple) int {
	n := 2
	for _, v := range t {
		n++
		switch v.typ {
		case TypeInt, TypeDate, TypeFloat:
			n += 8
		case TypeBool:
			n++
		case TypeString:
			n += 4 + len(v.s)
		}
	}
	return n
}
