// codec.go is the one payload codec: every binary message is written
// through an enc and read back through a dec, so each Encode*/Decode*
// pair is the same short list of field calls in the same order.
//
// Decoding is strict, because every payload crosses a network that may
// corrupt or forge it:
//   - A malformed payload is a returned *fieldError naming the message
//     and the field, never a panic.
//   - Counts read from the peer preallocate at most maxPrealloc
//     elements; a larger count must be backed by bytes that are
//     actually present.
//   - Flag bytes with bits outside the message's defined set are
//     rejected, as are trailing bytes after the last field.
//   - Every accepted payload has exactly one encoding: re-encoding
//     what a decoder returns gives back the same bytes.
//
// Both cursors keep the first error, so a codec checks for errors once,
// at the end; after a decode error every later field call fails too.
// Their failure paths format nothing, which keeps the fixed-width field
// calls inlinable.
package wire

import (
	"encoding/binary"

	"pmv/internal/expr"
	"pmv/internal/value"
)

// maxPrealloc caps the slice capacity a peer-supplied count reserves.
const maxPrealloc = 1024

// fieldError is the error a field call records: which message, which
// field, and what was wrong with it.
type fieldError struct{ msg, field, what string }

func (e *fieldError) Error() string { return "wire: " + e.msg + " " + e.field + ": " + e.what }

// enc appends a payload's fields in wire order.
type enc struct {
	msg string
	b   []byte
	err error
}

// newEnc starts a payload for msg with room for size bytes.
func newEnc(msg string, size int) enc { return enc{msg: msg, b: make([]byte, 0, size)} }

func (e *enc) fail(field, what string) {
	if e.err == nil {
		e.err = &fieldError{e.msg, field, what}
	}
}

func (e *enc) u8(v byte)    { e.b = append(e.b, v) }
func (e *enc) u16(v uint16) { e.b = binary.BigEndian.AppendUint16(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.BigEndian.AppendUint64(e.b, v) }

// count16 writes a u16 element count.
func (e *enc) count16(n int, field string) {
	if n > 0xffff {
		e.fail(field, "too many")
	}
	e.u16(uint16(n))
}

// str writes a u16-length-prefixed string.
func (e *enc) str(s, field string) {
	e.count16(len(s), field)
	e.b = append(e.b, s...)
}

func (e *enc) tuple(t value.Tuple) { e.b = value.EncodeTuple(e.b, t) }

// Condition-instance kinds on the wire.
const (
	condValues    byte = 0
	condIntervals byte = 1
)

// interval inclusivity flag bits.
const (
	loIncl byte = 1 << iota
	hiIncl
)

// cond writes one condition instance: a kind byte, then a values
// tuple or a u16-counted interval list (flag byte + bounds tuple each).
func (e *enc) cond(ci expr.CondInstance) {
	if len(ci.Values) > 0 {
		e.u8(condValues)
		e.tuple(ci.Values)
		return
	}
	e.u8(condIntervals)
	e.count16(len(ci.Intervals), "intervals")
	for _, iv := range ci.Intervals {
		e.u8(bit(iv.LoIncl, loIncl) | bit(iv.HiIncl, hiIncl))
		e.tuple(value.Tuple{iv.Lo, iv.Hi})
	}
}

// budget writes the optional deadline-budget tail: 8 bytes when ns is
// non-zero, nothing otherwise.
func (e *enc) budget(ns uint64) {
	if ns != 0 {
		e.u64(ns)
	}
}

// bytes returns the finished payload, or the first error.
func (e *enc) bytes() ([]byte, error) {
	if e.err != nil {
		return nil, e.err
	}
	if len(e.b)+1 > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	return e.b, nil
}

// bit returns b when set, else 0.
func bit(set bool, b byte) byte {
	if set {
		return b
	}
	return 0
}

// dec reads a payload's fields in wire order: b[off:] is unread.
type dec struct {
	msg string
	b   []byte
	off int
	err error
}

// fail records the first error and skips to the end of the payload,
// so every later field call fails too.
func (d *dec) fail(field, what string) {
	if d.err == nil {
		d.err = &fieldError{d.msg, field, what}
	}
	d.off = len(d.b)
}

// zeros is what take returns once a dec has failed.
var zeros [8]byte

// take consumes the next n ≤ 8 bytes and returns a slice that starts
// with them; after a failure it returns zeros.
func (d *dec) take(n int, field string) []byte {
	off := d.off
	if len(d.b)-off < n {
		d.fail(field, "truncated")
		return zeros[:]
	}
	d.off = off + n
	return d.b[off:]
}

func (d *dec) u8(field string) byte     { return d.take(1, field)[0] }
func (d *dec) u16(field string) uint16  { return binary.BigEndian.Uint16(d.take(2, field)) }
func (d *dec) u32(field string) uint32  { return binary.BigEndian.Uint32(d.take(4, field)) }
func (d *dec) u64(field string) uint64  { return binary.BigEndian.Uint64(d.take(8, field)) }
func (d *dec) count16(field string) int { return int(d.u16(field)) }

// fixed fails unless exactly n bytes remain: a fixed-size payload is
// length-checked once, before its fields are read.
func (d *dec) fixed(n int) {
	if len(d.b)-d.off != n {
		d.fail("payload", "wrong size")
	}
}

// str reads a u16-length-prefixed string.
func (d *dec) str(field string) string {
	n := d.count16(field)
	if len(d.b)-d.off < n {
		d.fail(field, "truncated")
		return ""
	}
	d.off += n
	return string(d.b[d.off-n : d.off])
}

// flags reads a flag byte, rejecting bits outside known.
func (d *dec) flags(known byte, field string) byte {
	fl := d.u8(field)
	if fl&^known != 0 {
		d.fail(field, "undefined bits set")
	}
	return fl
}

// tuple reads one tuple of the given arity (any arity when negative).
func (d *dec) tuple(arity int, field string) value.Tuple {
	if d.err != nil {
		return nil
	}
	t, used, err := value.DecodeTuple(d.b[d.off:])
	if err != nil {
		d.fail(field, err.Error())
		return nil
	}
	if arity >= 0 && len(t) != arity {
		d.fail(field, "wrong number of values")
		return nil
	}
	d.off += used
	return t
}

// cond reads one condition instance (see enc.cond). An empty values
// condition is rejected: no encoder writes one, and it would re-encode
// as an empty interval list.
func (d *dec) cond() expr.CondInstance {
	var ci expr.CondInstance
	switch d.u8("condition kind") {
	case condValues:
		ci.Values = d.tuple(-1, "condition values")
		if d.err == nil && len(ci.Values) == 0 {
			d.fail("condition values", "empty")
		}
	case condIntervals:
		n := d.count16("interval count")
		ci.Intervals = make([]expr.Interval, 0, prealloc(n))
		for j := 0; j < n && d.err == nil; j++ {
			fl := d.flags(loIncl|hiIncl, "interval flags")
			if t := d.tuple(2, "interval bounds"); t != nil {
				ci.Intervals = append(ci.Intervals, expr.Interval{
					Lo: t[0], Hi: t[1], LoIncl: fl&loIncl != 0, HiIncl: fl&hiIncl != 0,
				})
			}
		}
	default:
		d.fail("condition kind", "unknown")
	}
	return ci
}

// budget reads the optional deadline-budget tail: exactly 8 remaining
// bytes holding a non-zero value, or nothing.
func (d *dec) budget() uint64 {
	if len(d.b)-d.off != 8 {
		return 0
	}
	ns := d.u64("budget")
	if ns == 0 {
		d.fail("budget", "zero tail")
	}
	return ns
}

// done rejects trailing bytes and returns the first error.
func (d *dec) done() error {
	if d.off != len(d.b) {
		d.fail("payload", "trailing bytes")
	}
	return d.err
}

// prealloc caps a peer-supplied count for use as a slice capacity.
func prealloc(n int) int { return min(n, maxPrealloc) }
