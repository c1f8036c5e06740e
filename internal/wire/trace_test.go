package wire

import (
	"bytes"
	"testing"
)

func TestTraceContextRoundTrip(t *testing.T) {
	for _, tc := range []TraceContext{
		{TraceID: 1, ParentSpan: 0, Sampled: false},
		{TraceID: 42, ParentSpan: 7, Sampled: true},
		{TraceID: ^uint64(0), ParentSpan: ^uint64(0), Sampled: true},
	} {
		b := AppendTraceContext(nil, tc)
		if len(b) != TraceContextLen {
			t.Fatalf("encoded %d bytes, want %d", len(b), TraceContextLen)
		}
		got, err := DecodeTraceContext(b)
		if err != nil {
			t.Fatalf("decode %+v: %v", tc, err)
		}
		if got != tc {
			t.Fatalf("round trip: got %+v, want %+v", got, tc)
		}
	}
}

func TestTraceContextStrict(t *testing.T) {
	good := AppendTraceContext(nil, TraceContext{TraceID: 9, Sampled: true})

	if _, err := DecodeTraceContext(good[:16]); err == nil {
		t.Fatal("short context accepted")
	}
	if _, err := DecodeTraceContext(append(append([]byte{}, good...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	bad := append([]byte{}, good...)
	bad[16] |= 0x80
	if _, err := DecodeTraceContext(bad); err == nil {
		t.Fatal("unknown flag bit accepted")
	}
	zero := AppendTraceContext(nil, TraceContext{TraceID: 0})
	if _, err := DecodeTraceContext(zero); err == nil {
		t.Fatal("zero trace id accepted")
	}
}

func TestTracedRoundTrip(t *testing.T) {
	inner, err := EncodeQuery(QueryRequest{View: "v", Conds: nil})
	if err != nil {
		t.Fatal(err)
	}
	tc := TraceContext{TraceID: 77, ParentSpan: 3, Sampled: true}
	b, err := EncodeTraced(tc, MsgQuery, inner)
	if err != nil {
		t.Fatal(err)
	}
	gotTC, gotType, gotPayload, err := DecodeTraced(b)
	if err != nil {
		t.Fatal(err)
	}
	if gotTC != tc || gotType != MsgQuery || !bytes.Equal(gotPayload, inner) {
		t.Fatalf("round trip: tc=%+v type=0x%02x payload %d bytes", gotTC, gotType, len(gotPayload))
	}
}

func TestTracedRejectsNesting(t *testing.T) {
	tc := TraceContext{TraceID: 1, Sampled: true}
	if _, err := EncodeTraced(tc, MsgTraced, nil); err == nil {
		t.Fatal("encoder accepted a nested traced frame")
	}
	b, err := EncodeTraced(tc, MsgStats, nil)
	if err != nil {
		t.Fatal(err)
	}
	b[TraceContextLen] = MsgTraced
	if _, _, _, err := DecodeTraced(b); err == nil {
		t.Fatal("decoder accepted a nested traced frame")
	}
	if _, _, _, err := DecodeTraced(b[:TraceContextLen]); err == nil {
		t.Fatal("decoder accepted a traced frame with no inner type")
	}
}

func TestSpansRoundTrip(t *testing.T) {
	recs := []SpanRecord{
		{Kind: 2, StartNs: 10, DurNs: 500, N1: 1, N2: 3, N3: 1, Rows: 3, Bytes: 96},
		{Kind: 5, StartNs: 600, DurNs: 4000, N1: 40, N2: 37, N3: 3, Rows: 40, Bytes: 1280, Allocs: 8192},
		{Kind: 9, StartNs: -5, DurNs: 0, Fsyncs: 1},
	}
	b, err := EncodeSpans(123, recs)
	if err != nil {
		t.Fatal(err)
	}
	id, got, err := DecodeSpans(b)
	if err != nil {
		t.Fatal(err)
	}
	if id != 123 || len(got) != len(recs) {
		t.Fatalf("id=%d spans=%d", id, len(got))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("span %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestSpansStrict(t *testing.T) {
	b, err := EncodeSpans(5, []SpanRecord{{Kind: 1, DurNs: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeSpans(b[:len(b)-1]); err == nil {
		t.Fatal("truncated record accepted")
	}
	if _, _, err := DecodeSpans(append(append([]byte{}, b...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, _, err := DecodeSpans(b[:4]); err == nil {
		t.Fatal("short header accepted")
	}
	zero := append([]byte{}, b...)
	for i := 0; i < 8; i++ {
		zero[i] = 0
	}
	if _, _, err := DecodeSpans(zero); err == nil {
		t.Fatal("zero trace id accepted")
	}
	// Over-cap encodes truncate instead of failing.
	many := make([]SpanRecord, MaxSpansPerFrame+10)
	big, err := EncodeSpans(5, many)
	if err != nil {
		t.Fatal(err)
	}
	if _, got, err := DecodeSpans(big); err != nil || len(got) != MaxSpansPerFrame {
		t.Fatalf("cap: %d spans, err %v", len(got), err)
	}
}

// TestVersionNegotiationGatesTraceFrames pins the negotiation story the
// trace, tail-tolerance, and frequency planes rely on: this build
// announces v5, and the handshake is exact-match, so a peer that
// would not understand MsgTraced/MsgSpans (v3), MsgPing/MsgPong and
// budget tails (v4), or MsgHotSet/MsgHotInval/MsgFilter (v5) never
// gets a session.
func TestVersionNegotiationGatesTraceFrames(t *testing.T) {
	if ProtocolVersion != 5 {
		t.Fatalf("ProtocolVersion = %d, want 5 (hot-replication frames are v5)", ProtocolVersion)
	}
	hello := EncodeHello()
	v, err := DecodeHello(hello)
	if err != nil || v != 5 {
		t.Fatalf("hello advertises %d (%v)", v, err)
	}
	// An older peer's hello must decode (so the server can answer
	// MsgErrVersion) but not match.
	for _, oldV := range []byte{2, 3, 4} {
		old, err := DecodeHello([]byte{oldV})
		if err != nil {
			t.Fatal(err)
		}
		if old == ProtocolVersion {
			t.Fatalf("v%d hello matches v%d", oldV, ProtocolVersion)
		}
	}
	rej, err := DecodeVersionErr(EncodeVersionErr(ProtocolVersion))
	if err != nil || rej != 5 {
		t.Fatalf("version-error round trip: %d, %v", rej, err)
	}
}

func FuzzDecodeTraceContext(f *testing.F) {
	f.Add(AppendTraceContext(nil, TraceContext{TraceID: 1}))
	f.Add(AppendTraceContext(nil, TraceContext{TraceID: 99, ParentSpan: 7, Sampled: true}))
	tr, _ := EncodeTraced(TraceContext{TraceID: 3, Sampled: true}, MsgStats, []byte(`{}`))
	f.Add(tr)
	sp, _ := EncodeSpans(11, []SpanRecord{{Kind: 4, DurNs: 9, Rows: 2}})
	f.Add(sp)
	type traced struct {
		tc      TraceContext
		inner   byte
		payload []byte
	}
	type spans struct {
		id   uint64
		recs []SpanRecord
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		canonical(t, "trace context", b, DecodeTraceContext, func(tc TraceContext) ([]byte, error) {
			return AppendTraceContext(nil, tc), nil
		})
		canonical(t, "traced", b, func(b []byte) (traced, error) {
			tc, inner, payload, err := DecodeTraced(b)
			return traced{tc, inner, payload}, err
		}, func(v traced) ([]byte, error) { return EncodeTraced(v.tc, v.inner, v.payload) })
		canonical(t, "spans", b, func(b []byte) (spans, error) {
			id, recs, err := DecodeSpans(b)
			return spans{id, recs}, err
		}, func(v spans) ([]byte, error) { return EncodeSpans(v.id, v.recs) })
	})
}

func TestObservabilityTypeCodesUnclaimed(t *testing.T) {
	// The new codes must not collide with any existing message type.
	claimed := map[byte]string{
		MsgHello: "hello", MsgProbeParts: "probe", MsgExec: "exec",
		MsgRefill: "refill", MsgShardMap: "shardmap", MsgShards: "shards",
		MsgUpdate: "update", MsgInvalidate: "invalidate",
		MsgRow: "row", MsgDone: "done", MsgError: "error", MsgReply: "reply",
		MsgErrVersion: "errversion", MsgErrEpoch: "errepoch",
	}
	for code, name := range map[byte]string{
		MsgTraced: "traced", MsgTraceGet: "traceget", MsgFleet: "fleet", MsgSpans: "spans",
	} {
		if prev, dup := claimed[code]; dup {
			t.Fatalf("type 0x%02x (%s) collides with %s", code, name, prev)
		}
		claimed[code] = name
	}
}
