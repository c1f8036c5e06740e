// trace.go is the kernel's half of the distributed-tracing plane: it
// unwraps MsgTraced requests into the session's trace context, builds
// traces that parent correctly under the caller's span, piggybacks the
// recorded span summary back as one MsgSpans frame immediately before
// the request's closing frame, and keeps the trace/slowlog switches
// and the slow-query ring the MsgTrace and MsgSlowlog commands serve.
//
// Overhead contract: an untraced request never touches any of this —
// sess.traceCtx stays nil, Trace falls back to the node-local
// trace/slowlog gate, and EmitSpans is a nil check. The trace context
// costs zero wire bytes when tracing is off because it only exists
// inside a MsgTraced wrapper.
package session

import (
	"encoding/json"
	"fmt"
	"sync"

	"pmv/internal/obs"
	"pmv/internal/wire"
)

// handleTraced unwraps one trace-context-carrying request and serves
// the inner request under that context. Only the request types the
// daemon registered may be wrapped; admin commands have no spans worth
// parenting.
func (k *Kernel) handleTraced(sess *Session, payload []byte) error {
	tc, inner, innerPayload, err := wire.DecodeTraced(payload)
	if err != nil {
		return sess.WriteErr(err)
	}
	if !k.traced[inner] {
		return sess.WriteErr(fmt.Errorf("%s: request type 0x%02x cannot carry a trace context", k.name, inner))
	}
	sess.traceCtx = &tc
	defer func() { sess.traceCtx = nil }()
	return k.dispatch(sess, inner, innerPayload)
}

// Trace builds the trace for the request in flight: a remote-rooted
// trace when it arrived in a sampled MsgTraced envelope (the trace id
// and parent span come from the caller so assembly correlates),
// otherwise the node-local gate — a fresh trace when tracing is on or
// slowNs says the slow-query log is armed (the log needs spans to be
// worth dumping; pass -1 for requests the log never records), nil when
// both are off, so every recording site downstream is a pointer
// compare.
func (sess *Session) Trace(label string, slowNs int64) *obs.Trace {
	if tc := sess.traceCtx; tc != nil && tc.Sampled {
		tr := obs.New(tc.TraceID, label)
		tr.Parent = tc.ParentSpan
		return tr
	}
	if sess.k.traceOn.Load() || slowNs >= 0 {
		return obs.New(sess.k.NextTraceID(), label)
	}
	return nil
}

// EmitSpans piggybacks the trace's span summary (local plus fanned-back
// spans) onto the response when, and only when, the request arrived
// wrapped in a sampled MsgTraced. It is written right before the
// closing MsgDone/MsgReply so stream consumers see it in a
// deterministic place. A write failure ends the session; a spans frame
// that cannot be encoded is dropped — it is telemetry, never a reason
// to fail the request.
func (sess *Session) EmitSpans(tr *obs.Trace) error {
	if tc := sess.traceCtx; tr == nil || tc == nil || !tc.Sampled {
		return nil
	}
	spans := tr.AllSpans()
	recs := make([]wire.SpanRecord, len(spans))
	for i, sp := range spans {
		recs[i] = wire.SpanRecord{
			Kind:    uint8(sp.Kind),
			StartNs: int64(sp.Start),
			DurNs:   int64(sp.Dur),
			N1:      sp.N1,
			N2:      sp.N2,
			N3:      sp.N3,
			Rows:    sp.Rows,
			Bytes:   sp.Bytes,
			Allocs:  sp.Allocs,
			Fsyncs:  sp.Fsyncs,
		}
	}
	payload, err := wire.EncodeSpans(tr.ID, recs)
	if err != nil {
		return nil
	}
	return sess.WriteFrame(wire.MsgSpans, payload)
}

// WireSpans converts a trace's spans (local plus fanned-back) to the
// JSON wire shape used by the slowlog and assembled-trace replies.
func WireSpans(tr *obs.Trace) []wire.TraceSpan {
	spans := tr.AllSpans()
	out := make([]wire.TraceSpan, len(spans))
	for i, sp := range spans {
		out[i] = wire.TraceSpan{
			Kind:    sp.Kind.String(),
			StartNs: int64(sp.Start),
			DurNs:   int64(sp.Dur),
			N1:      sp.N1,
			N2:      sp.N2,
			N3:      sp.N3,
			Rows:    sp.Rows,
			Bytes:   sp.Bytes,
			Allocs:  sp.Allocs,
			Fsyncs:  sp.Fsyncs,
			Source:  sp.Source,
			Detail:  sp.Detail(),
		}
	}
	return out
}

// TraceOn reports whether per-query tracing is enabled.
func (k *Kernel) TraceOn() bool { return k.traceOn.Load() }

// SlowNs is the slow-query threshold in nanoseconds (< 0 = log off).
func (k *Kernel) SlowNs() int64 { return k.slowNs.Load() }

// NextTraceID allocates a node-local trace / slow-record id.
func (k *Kernel) NextTraceID() uint64 { return k.traceID.Add(1) }

// RecordSlow adds one query to the slow-query ring.
func (k *Kernel) RecordSlow(q wire.SlowQuery) { k.slow.add(q) }

// handleTrace reads/updates the tracing and slow-query-log settings.
func (k *Kernel) handleTrace(sess *Session, payload []byte) error {
	var req wire.TraceRequest
	if len(payload) > 0 {
		if err := json.Unmarshal(payload, &req); err != nil {
			return sess.WriteErr(fmt.Errorf("%s: bad trace request: %w", k.name, err))
		}
	}
	if req.Trace != nil {
		k.traceOn.Store(*req.Trace)
	}
	if req.SlowThresholdNs != nil {
		ns := *req.SlowThresholdNs
		if ns < 0 {
			ns = -1
		}
		k.slowNs.Store(ns)
	}
	return sess.Reply(wire.TraceReply{
		Trace:           k.traceOn.Load(),
		SlowThresholdNs: k.slowNs.Load(),
	})
}

// handleSlowlog dumps the slow-query ring, newest first.
func (k *Kernel) handleSlowlog(sess *Session, payload []byte) error {
	var req wire.SlowlogRequest
	if len(payload) > 0 {
		if err := json.Unmarshal(payload, &req); err != nil {
			return sess.WriteErr(fmt.Errorf("%s: bad slowlog request: %w", k.name, err))
		}
	}
	return sess.Reply(wire.SlowlogReply{
		ThresholdNs: k.slowNs.Load(),
		Queries:     k.slow.snapshot(req.Limit),
	})
}

// slowRingCap bounds the slow-query ring; older records are
// overwritten. Sized so a burst of slow queries is fully visible but a
// long-running daemon cannot grow without bound.
const slowRingCap = 128

// slowRing is a fixed-capacity ring of the most recent slow queries.
type slowRing struct {
	mu   sync.Mutex
	buf  [slowRingCap]wire.SlowQuery
	next int // index of the next write
	n    int // records held (≤ slowRingCap)
}

func (l *slowRing) add(q wire.SlowQuery) {
	l.mu.Lock()
	l.buf[l.next] = q
	l.next = (l.next + 1) % slowRingCap
	if l.n < slowRingCap {
		l.n++
	}
	l.mu.Unlock()
}

// snapshot returns up to limit records, newest first (0 = all held).
func (l *slowRing) snapshot(limit int) []wire.SlowQuery {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.n
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]wire.SlowQuery, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, l.buf[(l.next-i+slowRingCap)%slowRingCap])
	}
	return out
}
