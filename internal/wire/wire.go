// Package wire is the pmvd client/server protocol: length-prefixed
// binary frames over a byte stream.
//
// Every frame is
//
//	u32 big-endian length (of everything after the checksum field)
//	u32 big-endian CRC-32C of the type byte and payload
//	u8  message type
//	payload (length-1 bytes)
//
// The checksum makes in-flight byte corruption detectable: a flipped
// bit anywhere in the frame (length, type, or payload) surfaces as
// ErrCorruptFrame instead of a silently wrong tuple, so readers can
// drop the connection rather than deliver garbage.
//
// The query path is fully binary — condition instances, result rows,
// and the closing report reuse the engine's tuple codec
// (value.EncodeTuple), so a streamed row costs one frame header plus
// its heap-page encoding. Admin commands (stats, views, tables, …) are
// low-rate and reply with JSON payloads in a Reply frame.
//
// A query exchange is:
//
//	C→S  MsgQuery   (view name, deadline, bound conditions)
//	S→C  MsgRow*    (flag bit 0 set on O2 partials, clear on O3 rows)
//	S→C  MsgDone    (QueryReport: flags, counts, per-phase latencies)
//	     — or MsgError at any point, terminating the stream.
//
// The server answers requests in order, one at a time per connection;
// clients pipeline at most one request.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"pmv/internal/expr"
	"pmv/internal/value"
)

// Message types. Requests (client→server) have the high bit clear,
// responses (server→client) have it set.
const (
	// MsgQuery runs the PMV protocol on a view (QueryRequest payload).
	MsgQuery byte = 0x01
	// MsgStats requests the server's counters (empty payload).
	MsgStats byte = 0x02
	// MsgViews lists views with their templates (empty payload).
	MsgViews byte = 0x03
	// MsgTables lists relations (empty payload).
	MsgTables byte = 0x04
	// MsgSchema describes one relation (string payload: name).
	MsgSchema byte = 0x05
	// MsgCount returns a relation's live tuple count (string payload).
	MsgCount byte = 0x06
	// MsgPeek returns a relation's first n tuples (string payload +
	// u32 n).
	MsgPeek byte = 0x07
	// MsgAnalyze recomputes optimizer statistics (empty payload).
	MsgAnalyze byte = 0x08
	// MsgCheckpoint flushes pages and truncates the WAL (empty).
	MsgCheckpoint byte = 0x09
	// MsgTrace reads or updates the server's tracing/slow-query-log
	// settings (JSON TraceRequest payload; empty fields leave the
	// current setting untouched).
	MsgTrace byte = 0x0a
	// MsgSlowlog dumps the slow-query ring buffer (JSON SlowlogRequest).
	MsgSlowlog byte = 0x0b
	// MsgViewStats returns per-view core counters (empty payload).
	MsgViewStats byte = 0x0c

	// MsgRow is one streamed result row (u8 flags + tuple encoding).
	MsgRow byte = 0x81
	// MsgDone closes a query stream with its QueryReport.
	MsgDone byte = 0x82
	// MsgError reports a failure (string payload).
	MsgError byte = 0x83
	// MsgReply carries a JSON-encoded admin response.
	MsgReply byte = 0x84
)

// MaxFrame bounds a frame's length field; a peer announcing more is
// treated as corrupt (protects against unbounded allocations on a
// garbage stream).
const MaxFrame = 16 << 20

// ErrFrameTooLarge marks a frame whose announced length exceeds
// MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// ErrCorruptFrame marks a frame whose bytes fail validation: a
// checksum mismatch, a zero-length header, or an impossible length
// field. The stream position is unrecoverable; the connection must be
// dropped.
var ErrCorruptFrame = errors.New("wire: corrupt frame")

// castagnoli is the CRC-32C table (hardware-accelerated on amd64 and
// arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FrameHeaderLen is the fixed header: u32 length + u32 crc + u8 type.
const FrameHeaderLen = 9

// putFrameHeader fills hdr for a frame of the given type and payload.
func putFrameHeader(hdr []byte, typ byte, payload []byte) {
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[8] = typ
	crc := crc32.Update(crc32.Update(0, castagnoli, hdr[8:9]), castagnoli, payload)
	binary.BigEndian.PutUint32(hdr[4:8], crc)
}

// WriteFrame writes one frame.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload)+1 > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [FrameHeaderLen]byte
	putFrameHeader(hdr[:], typ, payload)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// SealFrame completes a frame built in place: frame[FrameHeaderLen:]
// already holds the payload and the header bytes before it are filled
// in, so a caller that reuses one buffer per connection writes a whole
// frame with one Write and no allocation.
func SealFrame(frame []byte, typ byte) error {
	payload := frame[FrameHeaderLen:]
	if len(payload)+1 > MaxFrame {
		return ErrFrameTooLarge
	}
	putFrameHeader(frame, typ, payload)
	return nil
}

// ReadFrame reads one frame, returning its type and payload. A frame
// that fails validation (bad length, checksum mismatch) returns an
// error wrapping ErrCorruptFrame.
func ReadFrame(r io.Reader) (byte, []byte, error) {
	var hdr [FrameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n == 0 {
		return 0, nil, fmt.Errorf("%w: zero-length frame", ErrCorruptFrame)
	}
	if n > MaxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	typ := hdr[8]
	payload := make([]byte, n-1)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	crc := crc32.Update(crc32.Checksum([]byte{typ}, castagnoli), castagnoli, payload)
	if crc != binary.BigEndian.Uint32(hdr[4:8]) {
		return 0, nil, fmt.Errorf("%w: checksum mismatch on 0x%02x frame", ErrCorruptFrame, typ)
	}
	return typ, payload, nil
}

// QueryRequest is the decoded MsgQuery payload: which view to run
// against, how long the caller is willing to wait, and the bound
// condition instances (matching the view template's condition list).
type QueryRequest struct {
	View string
	// Deadline bounds the whole query (0 = the server's default). When
	// it expires mid-O3 the server finishes the stream with the rows
	// delivered so far and flags DeadlineExpired in the report.
	Deadline time.Duration
	Conds    []expr.CondInstance
}

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

// EncodeQuery encodes a QueryRequest as a MsgQuery payload.
func EncodeQuery(q QueryRequest) ([]byte, error) {
	if len(q.View) > 0xffff {
		return nil, fmt.Errorf("wire: view name too long")
	}
	if len(q.Conds) > 0xffff {
		return nil, fmt.Errorf("wire: too many conditions")
	}
	b := make([]byte, 0, 64)
	b = binary.BigEndian.AppendUint64(b, uint64(q.Deadline))
	b = binary.BigEndian.AppendUint16(b, uint16(len(q.View)))
	b = append(b, q.View...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(q.Conds)))
	for _, ci := range q.Conds {
		if len(ci.Values) > 0 {
			b = append(b, condValues)
			b = value.EncodeTuple(b, value.Tuple(ci.Values))
			continue
		}
		b = append(b, condIntervals)
		if len(ci.Intervals) > 0xffff {
			return nil, fmt.Errorf("wire: too many intervals")
		}
		b = binary.BigEndian.AppendUint16(b, uint16(len(ci.Intervals)))
		for _, iv := range ci.Intervals {
			var fl byte
			if iv.LoIncl {
				fl |= loIncl
			}
			if iv.HiIncl {
				fl |= hiIncl
			}
			b = append(b, fl)
			b = value.EncodeTuple(b, value.Tuple{iv.Lo, iv.Hi})
		}
	}
	return b, nil
}

// DecodeQuery parses a MsgQuery payload.
func DecodeQuery(b []byte) (QueryRequest, error) {
	var q QueryRequest
	if len(b) < 12 {
		return q, fmt.Errorf("wire: short query header")
	}
	q.Deadline = time.Duration(binary.BigEndian.Uint64(b))
	b = b[8:]
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return q, fmt.Errorf("wire: truncated view name")
	}
	q.View = string(b[:n])
	b = b[n:]
	if len(b) < 2 {
		return q, fmt.Errorf("wire: truncated condition count")
	}
	nc := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	q.Conds = make([]expr.CondInstance, 0, nc)
	for i := 0; i < nc; i++ {
		if len(b) < 1 {
			return q, fmt.Errorf("wire: truncated condition %d", i)
		}
		kind := b[0]
		b = b[1:]
		var ci expr.CondInstance
		switch kind {
		case condValues:
			t, used, err := value.DecodeTuple(b)
			if err != nil {
				return q, fmt.Errorf("wire: condition %d values: %w", i, err)
			}
			b = b[used:]
			ci.Values = t
		case condIntervals:
			if len(b) < 2 {
				return q, fmt.Errorf("wire: truncated interval count")
			}
			ni := int(binary.BigEndian.Uint16(b))
			b = b[2:]
			ci.Intervals = make([]expr.Interval, 0, ni)
			for j := 0; j < ni; j++ {
				if len(b) < 1 {
					return q, fmt.Errorf("wire: truncated interval %d.%d", i, j)
				}
				fl := b[0]
				b = b[1:]
				t, used, err := value.DecodeTuple(b)
				if err != nil {
					return q, fmt.Errorf("wire: interval %d.%d bounds: %w", i, j, err)
				}
				if len(t) != 2 {
					return q, fmt.Errorf("wire: interval %d.%d has %d bounds", i, j, len(t))
				}
				b = b[used:]
				ci.Intervals = append(ci.Intervals, expr.Interval{
					Lo: t[0], Hi: t[1],
					LoIncl: fl&loIncl != 0, HiIncl: fl&hiIncl != 0,
				})
			}
		default:
			return q, fmt.Errorf("wire: unknown condition kind %d", kind)
		}
		q.Conds = append(q.Conds, ci)
	}
	if len(b) != 0 {
		return q, fmt.Errorf("wire: %d trailing bytes after query", len(b))
	}
	return q, nil
}

// Row flag bits.
const (
	// RowPartial marks a tuple served from the PMV in Operation O2.
	RowPartial byte = 1 << iota
)

// EncodeRow encodes a MsgRow payload.
func EncodeRow(dst []byte, t value.Tuple, partial bool) []byte {
	var fl byte
	if partial {
		fl |= RowPartial
	}
	dst = append(dst, fl)
	return value.EncodeTuple(dst, t)
}

// DecodeRow parses a MsgRow payload.
func DecodeRow(b []byte) (value.Tuple, bool, error) {
	if len(b) < 1 {
		return nil, false, fmt.Errorf("wire: empty row")
	}
	if b[0]&^RowPartial != 0 {
		return nil, false, fmt.Errorf("wire: unknown row flags 0x%02x", b[0])
	}
	partial := b[0]&RowPartial != 0
	t, used, err := value.DecodeTuple(b[1:])
	if err != nil {
		return nil, false, err
	}
	if used != len(b)-1 {
		return nil, false, fmt.Errorf("wire: %d trailing bytes after row", len(b)-1-used)
	}
	return t, partial, nil
}

// Report is a QueryReport on the wire, plus the service-level Shed
// flag (true when admission control answered from the PMV only
// because every worker slot was busy).
type Report struct {
	Hit             bool          `json:"hit"`
	Skipped         bool          `json:"skipped"`
	Degraded        bool          `json:"degraded"`
	DeadlineExpired bool          `json:"deadline_expired"`
	PartialOnly     bool          `json:"partial_only"`
	Shed            bool          `json:"shed"`
	ConditionParts  int           `json:"condition_parts"`
	PartialTuples   int           `json:"partial_tuples"`
	TotalTuples     int           `json:"total_tuples"`
	PartialLatency  time.Duration `json:"partial_latency_ns"`
	ExecLatency     time.Duration `json:"exec_latency_ns"`
	Overhead        time.Duration `json:"overhead_ns"`
}

// Report flag bits.
const (
	repHit byte = 1 << iota
	repSkipped
	repDegraded
	repDeadline
	repPartialOnly
	repShed
)

// EncodeReport encodes a MsgDone payload.
func EncodeReport(dst []byte, r Report) []byte {
	var fl byte
	if r.Hit {
		fl |= repHit
	}
	if r.Skipped {
		fl |= repSkipped
	}
	if r.Degraded {
		fl |= repDegraded
	}
	if r.DeadlineExpired {
		fl |= repDeadline
	}
	if r.PartialOnly {
		fl |= repPartialOnly
	}
	if r.Shed {
		fl |= repShed
	}
	dst = append(dst, fl)
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.ConditionParts))
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.PartialTuples))
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.TotalTuples))
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.PartialLatency))
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.ExecLatency))
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Overhead))
	return dst
}

// DecodeReport parses a MsgDone payload.
func DecodeReport(b []byte) (Report, error) {
	var r Report
	if len(b) != 1+3*4+3*8 {
		return r, fmt.Errorf("wire: report payload is %d bytes", len(b))
	}
	fl := b[0]
	if fl&^(repHit|repSkipped|repDegraded|repDeadline|repPartialOnly|repShed) != 0 {
		return r, fmt.Errorf("wire: unknown report flags 0x%02x", fl)
	}
	r.Hit = fl&repHit != 0
	r.Skipped = fl&repSkipped != 0
	r.Degraded = fl&repDegraded != 0
	r.DeadlineExpired = fl&repDeadline != 0
	r.PartialOnly = fl&repPartialOnly != 0
	r.Shed = fl&repShed != 0
	b = b[1:]
	r.ConditionParts = int(binary.BigEndian.Uint32(b))
	r.PartialTuples = int(binary.BigEndian.Uint32(b[4:]))
	r.TotalTuples = int(binary.BigEndian.Uint32(b[8:]))
	r.PartialLatency = time.Duration(binary.BigEndian.Uint64(b[12:]))
	r.ExecLatency = time.Duration(binary.BigEndian.Uint64(b[20:]))
	r.Overhead = time.Duration(binary.BigEndian.Uint64(b[28:]))
	return r, nil
}

// EncodePeek encodes a MsgPeek payload (relation name + row limit).
func EncodePeek(rel string, n int) []byte {
	b := make([]byte, 0, len(rel)+6)
	b = binary.BigEndian.AppendUint16(b, uint16(len(rel)))
	b = append(b, rel...)
	b = binary.BigEndian.AppendUint32(b, uint32(n))
	return b
}

// DecodePeek parses a MsgPeek payload.
func DecodePeek(b []byte) (string, int, error) {
	if len(b) < 2 {
		return "", 0, fmt.Errorf("wire: short peek payload")
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) != n+4 {
		return "", 0, fmt.Errorf("wire: peek payload length mismatch")
	}
	return string(b[:n]), int(binary.BigEndian.Uint32(b[n:])), nil
}
