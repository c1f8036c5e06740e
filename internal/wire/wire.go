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

// EncodeQuery encodes a QueryRequest as a MsgQuery payload.
func EncodeQuery(q QueryRequest) ([]byte, error) {
	e := newEnc("query", 64)
	e.u64(uint64(q.Deadline))
	e.str(q.View, "view")
	e.count16(len(q.Conds), "conditions")
	for _, ci := range q.Conds {
		e.cond(ci)
	}
	return e.bytes()
}

// DecodeQuery parses a MsgQuery or MsgExec payload.
func DecodeQuery(b []byte) (QueryRequest, error) {
	d := &dec{msg: "query", b: b}
	q := QueryRequest{Deadline: time.Duration(d.u64("deadline")), View: d.str("view")}
	n := d.count16("condition count")
	q.Conds = make([]expr.CondInstance, 0, prealloc(n))
	for i := 0; i < n && d.err == nil; i++ {
		q.Conds = append(q.Conds, d.cond())
	}
	return q, d.done()
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

// reportLen is the fixed size of a MsgDone payload.
const reportLen = 1 + 3*4 + 3*8

// EncodeReport encodes a MsgDone payload.
func EncodeReport(dst []byte, r Report) []byte {
	e := enc{b: dst}
	e.u8(bit(r.Hit, repHit) | bit(r.Skipped, repSkipped) | bit(r.Degraded, repDegraded) |
		bit(r.DeadlineExpired, repDeadline) | bit(r.PartialOnly, repPartialOnly) | bit(r.Shed, repShed))
	e.u32(uint32(r.ConditionParts))
	e.u32(uint32(r.PartialTuples))
	e.u32(uint32(r.TotalTuples))
	e.u64(uint64(r.PartialLatency))
	e.u64(uint64(r.ExecLatency))
	e.u64(uint64(r.Overhead))
	return e.b
}

// DecodeReport parses a MsgDone payload.
func DecodeReport(b []byte) (Report, error) {
	d := &dec{msg: "report", b: b}
	d.fixed(reportLen)
	fl := d.flags(repHit|repSkipped|repDegraded|repDeadline|repPartialOnly|repShed, "flags")
	r := Report{
		Hit: fl&repHit != 0, Skipped: fl&repSkipped != 0, Degraded: fl&repDegraded != 0,
		DeadlineExpired: fl&repDeadline != 0, PartialOnly: fl&repPartialOnly != 0, Shed: fl&repShed != 0,
		ConditionParts: int(d.u32("condition parts")),
		PartialTuples:  int(d.u32("partial tuples")),
		TotalTuples:    int(d.u32("total tuples")),
		PartialLatency: time.Duration(d.u64("partial latency")),
		ExecLatency:    time.Duration(d.u64("exec latency")),
		Overhead:       time.Duration(d.u64("overhead")),
	}
	return r, d.done()
}

// EncodePeek encodes a MsgPeek payload (relation name + row limit).
func EncodePeek(rel string, n int) ([]byte, error) {
	e := newEnc("peek", len(rel)+6)
	e.str(rel, "relation")
	e.u32(uint32(n))
	return e.bytes()
}

// DecodePeek parses a MsgPeek payload.
func DecodePeek(b []byte) (string, int, error) {
	d := &dec{msg: "peek", b: b}
	rel, n := d.str("relation"), int(d.u32("limit"))
	return rel, n, d.done()
}
