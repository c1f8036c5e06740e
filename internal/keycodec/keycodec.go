// Package keycodec encodes tuples of values into byte strings whose
// bytewise (memcmp) order equals value.CompareTuples order. The B+tree
// stores only these encoded keys, which keeps its comparison loop a
// single bytes.Compare.
//
// Encoding per value:
//
//	null:   0x00
//	int:    0x02 + 8 bytes big-endian with the sign bit flipped
//	float:  0x03 + 8 bytes of order-preserving IEEE 754 transform
//	string: 0x04 + escaped bytes + terminator (0x00 0x01 escapes a zero
//	        byte, 0x00 0x00 terminates), so "a" < "aa" < "b" holds
//	date:   0x05 + same as int
//	bool:   0x06 + one byte
//	absent: 0x01 (a covered index column whose value was too long to
//	        carry; see AppendCapped)
//
// Tag bytes are ordered so that NULL sorts first, matching
// value.Compare. Int and Float share a numeric ordering in
// value.Compare only when types are mixed inside one column; the engine
// never builds an index over a mixed-type column, so the per-type tags
// are safe here.
package keycodec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"

	"pmv/internal/value"
)

// Type tags, chosen so bytewise tag order matches value.Compare's
// cross-type order (NULL first, then by value.Type).
const (
	tagNull   = 0x00
	tagAbsent = 0x01
	tagInt    = 0x02
	tagFloat  = 0x03
	tagString = 0x04
	tagDate   = 0x05
	tagBool   = 0x06
)

// AppendValue appends the order-preserving encoding of v to dst.
func AppendValue(dst []byte, v value.Value) []byte {
	switch v.Type() {
	case value.TypeNull:
		return append(dst, tagNull)
	case value.TypeInt:
		dst = append(dst, tagInt)
		return appendOrderedInt(dst, v.Int64())
	case value.TypeDate:
		dst = append(dst, tagDate)
		return appendOrderedInt(dst, v.Int64())
	case value.TypeFloat:
		dst = append(dst, tagFloat)
		return appendOrderedFloat(dst, v.Float64())
	case value.TypeString:
		dst = append(dst, tagString)
		return appendOrderedString(dst, v.Str())
	case value.TypeBool:
		dst = append(dst, tagBool)
		if v.BoolVal() {
			return append(dst, 1)
		}
		return append(dst, 0)
	default:
		panic(fmt.Sprintf("keycodec: unknown type %v", v.Type()))
	}
}

// ErrAbsent is DecodeValue's error for the absent tag: the value was
// not stored, and the reader must fetch it from the row.
var ErrAbsent = errors.New("keycodec: value absent")

// Absent reports whether the encoding b begins with is the absent tag.
func Absent(b []byte) bool { return len(b) > 0 && b[0] == tagAbsent }

// AppendCapped appends the encoding of v, or the one-byte absent tag
// when that encoding would be longer than max bytes. A covered index
// column is written this way, so one long value cannot make its entry
// too long for the tree.
func AppendCapped(dst []byte, v value.Value, max int) []byte {
	n := len(dst)
	if dst = AppendValue(dst, v); len(dst)-n > max {
		dst = append(dst[:n], tagAbsent)
	}
	return dst
}

// AppendTuple appends the order-preserving encoding of every value in t.
func AppendTuple(dst []byte, t value.Tuple) []byte {
	for _, v := range t {
		dst = AppendValue(dst, v)
	}
	return dst
}

// Encode returns the order-preserving encoding of t as a fresh slice.
func Encode(t value.Tuple) []byte {
	return AppendTuple(make([]byte, 0, 16*len(t)), t)
}

func appendOrderedInt(dst []byte, v int64) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(v)^(1<<63))
}

func appendOrderedFloat(dst []byte, f float64) []byte {
	u := math.Float64bits(f)
	if u&(1<<63) != 0 {
		u = ^u // negative: flip all bits
	} else {
		u ^= 1 << 63 // positive: flip sign bit
	}
	return binary.BigEndian.AppendUint64(dst, u)
}

func appendOrderedString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] == 0x00 {
			dst = append(dst, 0x00, 0x01)
		} else {
			dst = append(dst, s[i])
		}
	}
	return append(dst, 0x00, 0x00)
}

// DecodeValue parses one encoded value from the front of b, returning
// the value and the number of bytes consumed.
func DecodeValue(b []byte) (value.Value, int, error) {
	if len(b) == 0 {
		return value.Null(), 0, fmt.Errorf("keycodec: empty input")
	}
	switch b[0] {
	case tagNull:
		return value.Null(), 1, nil
	case tagAbsent:
		return value.Null(), 1, ErrAbsent
	case tagInt, tagDate:
		if len(b) < 9 {
			return value.Null(), 0, fmt.Errorf("keycodec: truncated int")
		}
		v := int64(binary.BigEndian.Uint64(b[1:]) ^ (1 << 63))
		if b[0] == tagInt {
			return value.Int(v), 9, nil
		}
		return value.Date(v), 9, nil
	case tagFloat:
		if len(b) < 9 {
			return value.Null(), 0, fmt.Errorf("keycodec: truncated float")
		}
		u := binary.BigEndian.Uint64(b[1:])
		if u&(1<<63) != 0 {
			u ^= 1 << 63
		} else {
			u = ^u
		}
		return value.Float(math.Float64frombits(u)), 9, nil
	case tagString:
		n, err := Skip(b)
		if err != nil {
			return value.Null(), 0, err
		}
		body := b[1 : n-2]
		if bytes.IndexByte(body, 0x00) < 0 {
			return value.Str(string(body)), n, nil
		}
		var sb strings.Builder
		sb.Grow(len(body) - bytes.Count(body, []byte{0x00, 0x01}))
		for len(body) > 0 {
			i := bytes.IndexByte(body, 0x00)
			if i < 0 {
				sb.Write(body)
				break
			}
			sb.Write(body[:i+1])
			body = body[i+2:]
		}
		return value.Str(sb.String()), n, nil
	case tagBool:
		if len(b) < 2 {
			return value.Null(), 0, fmt.Errorf("keycodec: truncated bool")
		}
		return value.Bool(b[1] != 0), 2, nil
	default:
		return value.Null(), 0, fmt.Errorf("keycodec: unknown tag %#x", b[0])
	}
}

// Skip returns the length of the encoded value at the front of b
// without decoding it: it allocates nothing, a string included.
func Skip(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("keycodec: empty input")
	}
	switch b[0] {
	case tagNull, tagAbsent:
		return 1, nil
	case tagInt, tagDate, tagFloat:
		if len(b) < 9 {
			return 0, fmt.Errorf("keycodec: truncated value")
		}
		return 9, nil
	case tagBool:
		if len(b) < 2 {
			return 0, fmt.Errorf("keycodec: truncated bool")
		}
		return 2, nil
	case tagString:
		for i := 1; ; i += 2 {
			z := bytes.IndexByte(b[i:], 0x00)
			if z < 0 {
				return 0, fmt.Errorf("keycodec: unterminated string")
			}
			i += z
			if i+1 >= len(b) {
				return 0, fmt.Errorf("keycodec: truncated escape")
			}
			switch b[i+1] {
			case 0x00:
				return i + 2, nil
			case 0x01:
			default:
				return 0, fmt.Errorf("keycodec: bad escape byte %#x", b[i+1])
			}
		}
	default:
		return 0, fmt.Errorf("keycodec: unknown tag %#x", b[0])
	}
}

// DecodeTuple parses n encoded values from b.
func DecodeTuple(b []byte, n int) (value.Tuple, int, error) {
	t := make(value.Tuple, 0, n)
	off := 0
	for i := 0; i < n; i++ {
		v, k, err := DecodeValue(b[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("keycodec: column %d: %w", i, err)
		}
		t = append(t, v)
		off += k
	}
	return t, off, nil
}
