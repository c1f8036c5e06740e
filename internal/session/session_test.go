package session

import (
	"encoding/json"
	"net"
	"testing"
	"time"

	"pmv/internal/value"
	"pmv/internal/wire"
)

// echoRow is the one tuple the echo dispatcher streams.
var echoRow = value.Tuple{value.Int(7), value.Str("seven")}

// echo is the trivial daemon the kernel tests run: MsgStats answers a
// reply frame, MsgQuery streams one partial row and closes with a
// MsgDone (under a trace when the kernel says so), anything else is a
// request type the daemon does not speak.
func echo(sess *Session, typ byte, payload []byte) error {
	switch typ {
	case wire.MsgStats:
		return sess.Reply(wire.OKReply{OK: true})
	case wire.MsgQuery:
		tr := sess.Trace("echo", -1)
		allocMark := tr.AllocMark()
		start := time.Now()
		if err := sess.WriteRow(echoRow, true); err != nil {
			return err
		}
		sess.Bill(tr, start, allocMark, 1)
		if err := sess.EmitSpans(tr); err != nil {
			return err
		}
		return sess.WriteFrame(wire.MsgDone, wire.EncodeReport(nil, wire.Report{TotalTuples: 1}))
	default:
		return ErrUnknownRequest
	}
}

// startKernel runs a loopback kernel over dispatch and returns it with
// its counter block.
func startKernel(t testing.TB, cfg Config, dispatch Dispatch) (*Kernel, *Counters) {
	t.Helper()
	c := new(Counters)
	k := New("test", cfg, c, dispatch, wire.MsgQuery)
	if err := k.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { k.Shutdown() })
	return k, c
}

// rawDial opens an unwrapped protocol connection to the kernel.
func rawDial(t testing.TB, k *Kernel) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", k.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// roundTrip issues one request and returns the first response frame.
func roundTrip(t testing.TB, c net.Conn, typ byte, payload []byte) (byte, []byte) {
	t.Helper()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteFrame(c, typ, payload); err != nil {
		t.Fatal(err)
	}
	rtyp, body, err := wire.ReadFrame(c)
	if err != nil {
		t.Fatalf("request 0x%02x: %v", typ, err)
	}
	c.SetDeadline(time.Time{})
	return rtyp, body
}

// statsRoundTrip proves the session is registered and healthy.
func statsRoundTrip(t testing.TB, c net.Conn) {
	t.Helper()
	if typ, _ := roundTrip(t, c, wire.MsgStats, nil); typ != wire.MsgReply {
		t.Fatalf("stats round trip answered 0x%02x", typ)
	}
}

// expectClosed requires the peer to close c without another byte.
func expectClosed(t *testing.T, c net.Conn, why string) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal(why)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("%s (still open after 5s)", why)
	}
}

func TestConnCapRejectsOverflow(t *testing.T) {
	k, cnt := startKernel(t, Config{MaxConns: 2}, echo)

	c1 := rawDial(t, k)
	statsRoundTrip(t, c1)
	c2 := rawDial(t, k)
	statsRoundTrip(t, c2)

	// Third connection is over the cap: one error frame, then close.
	c3 := rawDial(t, k)
	c3.SetDeadline(time.Now().Add(5 * time.Second))
	typ, payload, err := wire.ReadFrame(c3)
	if err != nil {
		t.Fatalf("over-cap conn got no error frame: %v", err)
	}
	if typ != wire.MsgError || len(payload) == 0 {
		t.Fatalf("over-cap conn got frame type 0x%02x, message %q", typ, payload)
	}
	if _, _, err := wire.ReadFrame(c3); err == nil {
		t.Fatal("over-cap conn stayed open past the error frame")
	}
	if got := cnt.ConnRejected.Load(); got != 1 {
		t.Fatalf("ConnRejected = %d, want 1", got)
	}

	// Capacity frees when a session closes: a fourth conn now succeeds.
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c4, err := net.Dial("tcp", k.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c4.SetDeadline(time.Now().Add(time.Second))
		if err := wire.WriteFrame(c4, wire.MsgStats, nil); err == nil {
			if typ, _, err := wire.ReadFrame(c4); err == nil && typ == wire.MsgReply {
				c4.Close()
				return
			}
		}
		c4.Close()
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after closing a session")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestIdleSessionsAreReaped(t *testing.T) {
	k, cnt := startKernel(t, Config{IdleTimeout: 100 * time.Millisecond}, echo)

	c := rawDial(t, k)
	statsRoundTrip(t, c)

	// Go silent; the idle deadline (or the reaper) must close us.
	expectClosed(t, c, "idle session was never closed")
	if got := cnt.IdleReaped.Load(); got < 1 {
		t.Fatalf("IdleReaped = %d, want >= 1", got)
	}

	// The session goroutine must have fully retired.
	deadline := time.Now().Add(5 * time.Second)
	for cnt.SessionsActive.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("SessionsActive = %d after reap", cnt.SessionsActive.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSlowlorisFrameTimeout(t *testing.T) {
	k, cnt := startKernel(t, Config{FrameTimeout: 100 * time.Millisecond}, echo)

	c := rawDial(t, k)
	statsRoundTrip(t, c)

	// Start a frame but never finish it: the per-frame deadline, not
	// the (unset) idle timeout, must kill the session.
	if _, err := c.Write([]byte{0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, c, "half-sent frame kept the session alive")
	if got := cnt.ReadTimeouts.Load(); got != 1 {
		t.Fatalf("ReadTimeouts = %d, want 1", got)
	}
}

func TestCorruptFrameDropsSession(t *testing.T) {
	k, cnt := startKernel(t, Config{}, echo)

	c := rawDial(t, k)
	statsRoundTrip(t, c)

	// A well-framed request whose checksum lies: 1 payload byte, CRC 0.
	if _, err := c.Write([]byte{0, 0, 0, 1, 0, 0, 0, 0, wire.MsgStats}); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, c, "corrupt frame kept the session alive")
	if got := cnt.CorruptFrames.Load(); got != 1 {
		t.Fatalf("CorruptFrames = %d, want 1", got)
	}

	// A request type the daemon does not speak may have desynced the
	// stream: same verdict, same counter.
	c2 := rawDial(t, k)
	if err := wire.WriteFrame(c2, 0xEE, nil); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, c2, "unknown request type kept the session alive")
	if got := cnt.CorruptFrames.Load(); got != 2 {
		t.Fatalf("CorruptFrames = %d after an unknown request, want 2", got)
	}
}

// TestVersionMismatch pins the handshake: a matching hello gets a
// HelloReply; any other version gets the typed MsgErrVersion frame and
// loses the session, and that deliberate close counts as no failure.
func TestVersionMismatch(t *testing.T) {
	k, cnt := startKernel(t, Config{}, echo)

	ok := rawDial(t, k)
	typ, body := roundTrip(t, ok, wire.MsgHello, wire.EncodeHello())
	var hello wire.HelloReply
	if typ != wire.MsgReply || json.Unmarshal(body, &hello) != nil || hello.Version != int(wire.ProtocolVersion) {
		t.Fatalf("matching hello answered 0x%02x %q", typ, body)
	}

	bad := rawDial(t, k)
	typ, body = roundTrip(t, bad, wire.MsgHello, []byte{wire.ProtocolVersion + 1})
	if typ != wire.MsgErrVersion {
		t.Fatalf("mismatched hello answered 0x%02x, want MsgErrVersion", typ)
	}
	if v, err := wire.DecodeVersionErr(body); err != nil || v != wire.ProtocolVersion {
		t.Fatalf("version error carries %d (%v), want %d", v, err, wire.ProtocolVersion)
	}
	expectClosed(t, bad, "session survived a version mismatch")
	if n := cnt.Errors.Load() + cnt.CorruptFrames.Load() + cnt.SessionResets.Load() +
		cnt.ReadTimeouts.Load() + cnt.WriteTimeouts.Load() + cnt.IdleReaped.Load(); n != 0 {
		t.Fatalf("version mismatch bumped a failure counter: %+v", cnt)
	}
}

// TestShutdownDrains pins the drain: a session mid-response finishes
// its response before closing, and a session idling between requests
// is woken and closed at once instead of holding Shutdown for the
// whole drain window.
func TestShutdownDrains(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	k, cnt := startKernel(t, Config{DrainTimeout: 10 * time.Second}, func(sess *Session, typ byte, payload []byte) error {
		if typ == wire.MsgCount {
			close(entered)
			<-release
		}
		return echo(sess, wire.MsgStats, nil)
	})

	idle := rawDial(t, k)
	statsRoundTrip(t, idle)
	busy := rawDial(t, k)
	if err := wire.WriteFrame(busy, wire.MsgCount, nil); err != nil {
		t.Fatal(err)
	}
	<-entered

	done := make(chan error, 1)
	go func() { done <- k.Shutdown() }()
	expectClosed(t, idle, "idle session was not woken by Shutdown")
	select {
	case <-done:
		t.Fatal("Shutdown returned while a response was still in flight")
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	busy.SetReadDeadline(time.Now().Add(5 * time.Second))
	if typ, _, err := wire.ReadFrame(busy); err != nil || typ != wire.MsgReply {
		t.Fatalf("in-flight response lost to Shutdown: typ=0x%02x err=%v", typ, err)
	}
	expectClosed(t, busy, "drained session stayed open")
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return after the last response drained")
	}
	if n := cnt.SessionsActive.Load(); n != 0 {
		t.Fatalf("SessionsActive = %d after Shutdown", n)
	}
	if n := cnt.SessionResets.Load() + cnt.IdleReaped.Load(); n != 0 {
		t.Fatalf("drain counted as a failure: %+v", cnt)
	}
}

// readStream collects one MsgQuery response: row count, whether a
// MsgSpans frame preceded the closing frame, and the spans' trace id.
func readStream(t *testing.T, c net.Conn) (rows int, spans bool, traceID uint64) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		typ, body, err := wire.ReadFrame(c)
		if err != nil {
			t.Fatal(err)
		}
		switch typ {
		case wire.MsgRow:
			if spans {
				t.Fatal("row frame after the spans frame")
			}
			rows++
		case wire.MsgSpans:
			id, recs, err := wire.DecodeSpans(body)
			if err != nil || len(recs) == 0 {
				t.Fatalf("bad spans frame: %d records, %v", len(recs), err)
			}
			spans, traceID = true, id
		case wire.MsgDone:
			return rows, spans, traceID
		default:
			t.Fatalf("unexpected frame 0x%02x %q", typ, body)
		}
	}
}

// TestTracedEnvelope pins the MsgTraced contract: a sampled envelope
// roots the request's trace under the caller's id and fans the spans
// back right before the closing frame; an unsampled one, or no
// envelope at all, costs nothing; and only registered request types
// may be wrapped.
func TestTracedEnvelope(t *testing.T) {
	k, cnt := startKernel(t, Config{}, echo)
	c := rawDial(t, k)

	send := func(tc wire.TraceContext, inner byte) {
		t.Helper()
		payload, err := wire.EncodeTraced(tc, inner, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(c, wire.MsgTraced, payload); err != nil {
			t.Fatal(err)
		}
	}

	send(wire.TraceContext{TraceID: 42, ParentSpan: 9, Sampled: true}, wire.MsgQuery)
	if rows, spans, id := readStream(t, c); rows != 1 || !spans || id != 42 {
		t.Fatalf("sampled envelope: rows=%d spans=%v trace id=%d, want 1 true 42", rows, spans, id)
	}
	if n := cnt.TracesSampled.Load(); n != 1 {
		t.Fatalf("TracesSampled = %d, want 1", n)
	}

	send(wire.TraceContext{TraceID: 43}, wire.MsgQuery)
	if rows, spans, _ := readStream(t, c); rows != 1 || spans {
		t.Fatalf("unsampled envelope: rows=%d spans=%v, want 1 false", rows, spans)
	}
	if err := wire.WriteFrame(c, wire.MsgQuery, nil); err != nil {
		t.Fatal(err)
	}
	if rows, spans, _ := readStream(t, c); rows != 1 || spans {
		t.Fatalf("bare request: rows=%d spans=%v, want 1 false", rows, spans)
	}
	if n := cnt.TracesSampled.Load(); n != 1 {
		t.Fatalf("untraced requests recorded traces: TracesSampled = %d", n)
	}

	// An admin command inside the envelope is refused per request; the
	// session stays usable.
	send(wire.TraceContext{TraceID: 44, Sampled: true}, wire.MsgStats)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if typ, _, err := wire.ReadFrame(c); err != nil || typ != wire.MsgError {
		t.Fatalf("wrapped admin command answered 0x%02x (%v), want MsgError", typ, err)
	}
	statsRoundTrip(t, c)
	if n := cnt.Errors.Load(); n != 1 {
		t.Fatalf("Errors = %d, want 1", n)
	}
}

// TestSlowRingAndTraceSwitches drives the MsgTrace and MsgSlowlog
// commands: the switches read back what was set, tracing switched on
// makes Session.Trace record a node-local trace (with no span
// fan-back — nobody asked), and the ring keeps the newest 128 records
// newest-first.
func TestSlowRingAndTraceSwitches(t *testing.T) {
	k, cnt := startKernel(t, Config{}, echo)
	c := rawDial(t, k)

	trace := func(req wire.TraceRequest) wire.TraceReply {
		t.Helper()
		payload, _ := json.Marshal(req)
		typ, body := roundTrip(t, c, wire.MsgTrace, payload)
		var rep wire.TraceReply
		if typ != wire.MsgReply || json.Unmarshal(body, &rep) != nil {
			t.Fatalf("trace command answered 0x%02x %q", typ, body)
		}
		return rep
	}
	slowlog := func(limit int) wire.SlowlogReply {
		t.Helper()
		payload, _ := json.Marshal(wire.SlowlogRequest{Limit: limit})
		typ, body := roundTrip(t, c, wire.MsgSlowlog, payload)
		var rep wire.SlowlogReply
		if typ != wire.MsgReply || json.Unmarshal(body, &rep) != nil {
			t.Fatalf("slowlog command answered 0x%02x %q", typ, body)
		}
		return rep
	}

	if rep := trace(wire.TraceRequest{}); rep.Trace || rep.SlowThresholdNs != -1 {
		t.Fatalf("defaults = %+v, want tracing off and the slow log disarmed", rep)
	}
	on, ns, off := true, int64(5e6), int64(-7)
	if rep := trace(wire.TraceRequest{Trace: &on, SlowThresholdNs: &ns}); !rep.Trace || rep.SlowThresholdNs != ns {
		t.Fatalf("after arming = %+v", rep)
	}
	if !k.TraceOn() || k.SlowNs() != ns {
		t.Fatalf("kernel switches = %v %d", k.TraceOn(), k.SlowNs())
	}
	if err := wire.WriteFrame(c, wire.MsgQuery, nil); err != nil {
		t.Fatal(err)
	}
	if _, spans, _ := readStream(t, c); spans || cnt.TracesSampled.Load() != 1 {
		t.Fatalf("tracing on: spans=%v TracesSampled=%d, want false 1", spans, cnt.TracesSampled.Load())
	}
	if rep := trace(wire.TraceRequest{SlowThresholdNs: &off}); rep.SlowThresholdNs != -1 {
		t.Fatalf("negative threshold stored as %d, want -1", rep.SlowThresholdNs)
	}

	for i := 1; i <= slowRingCap+2; i++ {
		k.RecordSlow(wire.SlowQuery{ID: uint64(i)})
	}
	all := slowlog(0)
	if len(all.Queries) != slowRingCap || all.Queries[0].ID != slowRingCap+2 || all.Queries[slowRingCap-1].ID != 3 {
		t.Fatalf("ring holds %d records, newest %d, oldest %d", len(all.Queries), all.Queries[0].ID, all.Queries[len(all.Queries)-1].ID)
	}
	if few := slowlog(2); len(few.Queries) != 2 || few.Queries[1].ID != slowRingCap+1 {
		t.Fatalf("limited dump = %+v", few.Queries)
	}
}

// TestWriteRowZeroAlloc pins the hot path: on a warm session a row
// frame — arm the deadline, encode, seal, bill, flush — allocates
// nothing.
func TestWriteRowZeroAlloc(t *testing.T) {
	allocs := make(chan float64, 1)
	k, _ := startKernel(t, Config{}, func(sess *Session, typ byte, payload []byte) error {
		sess.WriteRow(echoRow, true) // warm: grows the frame buffer once
		allocs <- testing.AllocsPerRun(200, func() { sess.WriteRow(echoRow, true) })
		return echo(sess, wire.MsgStats, nil)
	})
	c := rawDial(t, k)
	if err := wire.WriteFrame(c, wire.MsgQuery, nil); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		typ, _, err := wire.ReadFrame(c)
		if err != nil {
			t.Fatal(err)
		}
		if typ == wire.MsgReply {
			break
		}
	}
	if n := <-allocs; n != 0 {
		t.Fatalf("WriteRow allocates %v per row on a warm session", n)
	}
}

// BenchmarkSessionEcho is the session rung of the layer ladder: one
// loopback request, one flushed partial row, one closing frame.
func BenchmarkSessionEcho(b *testing.B) {
	k, _ := startKernel(b, Config{}, echo)
	c := rawDial(b, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wire.WriteFrame(c, wire.MsgQuery, nil); err != nil {
			b.Fatal(err)
		}
		for {
			typ, _, err := wire.ReadFrame(c)
			if err != nil {
				b.Fatal(err)
			}
			if typ == wire.MsgDone {
				break
			}
		}
	}
}
