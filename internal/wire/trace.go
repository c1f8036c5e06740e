// trace.go defines the wire surface of the cluster observability
// plane: the trace context carried in-band with query/probe/exec/
// refill/update frames (Dapper-style — a trace id, the sender's span
// id, and a sampling bit), the MsgTraced request wrapper that carries
// it, and the MsgSpans response frame a traced peer uses to piggyback
// its span summary back to the caller just before closing the request.
//
// The context costs zero bytes when tracing is off: an untraced
// request is the plain inner frame, byte-identical to protocol v2's.
// Only when a trace is sampled does the sender wrap the request in
// MsgTraced, adding 18 bytes. Version 3 of the protocol gates the new
// frames — a v2 peer never sees them because the hello handshake
// rejects the session first.
package wire

// Observability message types. Requests continue the 0x0c sequence
// (0x13/0x14 are the write plane's), responses the 0x84 one.
const (
	// MsgTraced wraps one request frame with a trace context: payload =
	// TraceContext (17 bytes) ‖ inner type byte ‖ inner payload. The
	// receiver serves the inner request exactly as if it had arrived
	// bare, parents its own spans under the context, and piggybacks a
	// MsgSpans frame onto the response. Nesting is rejected.
	MsgTraced byte = 0x15
	// MsgTraceGet asks a router for one assembled cross-shard trace
	// (JSON TraceGetRequest payload; answered with a MsgReply
	// TraceGetReply). ID 0 lists the ids the trace store retains.
	MsgTraceGet byte = 0x16
	// MsgFleet asks a router for the federated fleet view: per-shard
	// health, epoch, snapshot freshness, and maint backlog aggregated
	// from every shard's stats (empty payload; answered with a MsgReply
	// FleetReply).
	MsgFleet byte = 0x17

	// MsgSpans carries a traced peer's span summary: payload = trace id
	// (u64) ‖ span count (u16) ‖ count × SpanRecord. It is emitted at
	// most once per traced request, immediately before the closing
	// MsgDone/MsgReply frame, and never for untraced requests.
	MsgSpans byte = 0x88
)

// TraceContext is the wire trace context: enough for a shard's spans
// to parent correctly under the router's (and the router's under the
// client's), nothing more. Assembly happens at the trace's root from
// the piggybacked MsgSpans reports.
type TraceContext struct {
	// TraceID identifies the whole distributed trace (nonzero).
	TraceID uint64
	// ParentSpan is the sender's span id — the id the receiver's spans
	// hang under (0 = the receiver is the root's direct child).
	ParentSpan uint64
	// Sampled tells the receiver to record and report spans. A context
	// with Sampled clear still propagates the id for log correlation.
	Sampled bool
}

// TraceContextLen is the encoded size of a TraceContext.
const TraceContextLen = 17

// tcSampled is the only defined trace-context flag bit.
const tcSampled byte = 1 << 0

// AppendTraceContext appends the 17-byte encoding of tc to b.
func AppendTraceContext(b []byte, tc TraceContext) []byte {
	e := enc{b: b}
	e.traceContext(tc)
	return e.b
}

// traceContext writes tc: trace id, parent span id, flag byte.
func (e *enc) traceContext(tc TraceContext) {
	e.traceID(tc.TraceID)
	e.u64(tc.ParentSpan)
	e.u8(bit(tc.Sampled, tcSampled))
}

func (d *dec) traceContext() TraceContext {
	tc := TraceContext{TraceID: d.traceID(), ParentSpan: d.u64("parent span")}
	tc.Sampled = d.flags(tcSampled, "trace flags")&tcSampled != 0
	return tc
}

// traceID writes a trace id, rejecting zero.
func (e *enc) traceID(id uint64) {
	if id == 0 {
		e.fail("trace id", "zero")
	}
	e.u64(id)
}

func (d *dec) traceID() uint64 {
	id := d.u64("trace id")
	if id == 0 {
		d.fail("trace id", "zero")
	}
	return id
}

// DecodeTraceContext parses exactly one encoded TraceContext,
// rejecting unknown flag bits, a zero trace id, and any length
// mismatch.
func DecodeTraceContext(b []byte) (TraceContext, error) {
	d := &dec{msg: "trace context", b: b}
	tc := d.traceContext()
	return tc, d.done()
}

// EncodeTraced wraps an encoded inner request in a MsgTraced payload.
func EncodeTraced(tc TraceContext, inner byte, payload []byte) ([]byte, error) {
	e := newEnc("traced frame", TraceContextLen+1+len(payload))
	if inner == MsgTraced {
		e.fail("inner type", "nested traced frame")
	}
	e.traceContext(tc)
	e.u8(inner)
	e.b = append(e.b, payload...)
	return e.bytes()
}

// DecodeTraced parses a MsgTraced payload into its context, the inner
// request type, and the inner payload (a subslice of b).
func DecodeTraced(b []byte) (TraceContext, byte, []byte, error) {
	d := &dec{msg: "traced frame", b: b}
	tc, inner := d.traceContext(), d.u8("inner type")
	if inner == MsgTraced {
		d.fail("inner type", "nested traced frame")
	}
	return tc, inner, d.b[d.off:], d.err
}

// SpanRecord is one span in a MsgSpans frame: the kind's numeric code
// (obs.Kind), its timing relative to the reporting peer's own trace
// begin, the per-kind counters, and the cost bill.
type SpanRecord struct {
	Kind    uint8
	StartNs int64
	DurNs   int64
	N1      int64
	N2      int64
	N3      int64
	Rows    int64
	Bytes   int64
	Allocs  int64
	Fsyncs  int64
}

// spanRecLen is one encoded SpanRecord: kind byte + nine i64 fields.
const spanRecLen = 1 + 9*8

// MaxSpansPerFrame bounds a MsgSpans frame; a traced request that
// records more reports the first MaxSpansPerFrame spans.
const MaxSpansPerFrame = 4096

// EncodeSpans encodes a MsgSpans payload. Spans beyond
// MaxSpansPerFrame are dropped (the frame is a summary, not a log).
func EncodeSpans(traceID uint64, recs []SpanRecord) ([]byte, error) {
	recs = recs[:min(len(recs), MaxSpansPerFrame)]
	e := newEnc("spans", 10+len(recs)*spanRecLen)
	e.traceID(traceID)
	e.count16(len(recs), "spans")
	for _, r := range recs {
		e.u8(r.Kind)
		for _, v := range [...]int64{r.StartNs, r.DurNs, r.N1, r.N2, r.N3, r.Rows, r.Bytes, r.Allocs, r.Fsyncs} {
			e.u64(uint64(v))
		}
	}
	return e.bytes()
}

// DecodeSpans parses a MsgSpans payload, rejecting any length that is
// not exactly header + count × record.
func DecodeSpans(b []byte) (uint64, []SpanRecord, error) {
	d := &dec{msg: "spans", b: b}
	traceID, n := d.traceID(), d.count16("span count")
	d.fixed(n * spanRecLen)
	if d.err != nil {
		return 0, nil, d.err
	}
	recs := make([]SpanRecord, n)
	for i := range recs {
		r := &recs[i]
		r.Kind = d.u8("kind")
		for _, dst := range [...]*int64{&r.StartNs, &r.DurNs, &r.N1, &r.N2, &r.N3, &r.Rows, &r.Bytes, &r.Allocs, &r.Fsyncs} {
			*dst = int64(d.u64("span field"))
		}
	}
	return traceID, recs, d.done()
}
