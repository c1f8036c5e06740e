// Package session is the session kernel shared by pmvd (internal/server)
// and pmvrouter (internal/cluster): everything a network front door
// adds to the PMV protocol that is not the protocol itself.
//
// Each accepted connection is one Session, owned by one goroutine that
// reads length-prefixed requests (internal/wire) and answers them in
// order through the daemon's dispatch function. The kernel owns the
// listener and accept loop, the hello/version handshake, the MsgTraced
// envelope and the trace/slowlog switches (trace.go), and the reply
// primitives — Reply, WriteErr, WriteFrame and WriteRow, the one place
// a row frame is armed, encoded, billed and, when partial, flushed.
//
// Sessions are hardened against a hostile or broken network plane: a
// connection cap bounds accepted sessions; an idle deadline plus a
// reaper goroutine reclaim sessions whose peer went silent between
// requests; a per-frame read deadline caps how long one request may
// take to finish arriving once its first byte is seen (the slowloris
// shape); and write deadlines on every response frame stop a stuck
// peer from pinning a session goroutine mid-response. Every failure
// mode lands in exactly one Counters field so operators, and chaos
// runs auditing their fault budget, can see resets, reaps, corrupt
// frames and timeouts per class.
package session

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pmv/internal/obs"
	"pmv/internal/value"
	"pmv/internal/wire"
)

// Config tunes a Kernel.
type Config struct {
	// MaxConns caps concurrently open sessions (0 = unlimited). A
	// connection arriving beyond it is answered with one error frame
	// and closed.
	MaxConns int
	// IdleTimeout reclaims sessions whose peer sends nothing between
	// requests for this long (0 = sessions may idle forever).
	IdleTimeout time.Duration
	// FrameTimeout bounds how long one request frame may take to finish
	// arriving once its first byte has been read. Default 30s; negative
	// disables.
	FrameTimeout time.Duration
	// WriteTimeout bounds each response write. Default 30s; negative
	// disables.
	WriteTimeout time.Duration
	// DrainTimeout bounds Shutdown's wait for in-flight sessions before
	// force-closing connections. Default 5s.
	DrainTimeout time.Duration
	// Trace starts with per-query tracing on (togglable via MsgTrace).
	Trace bool
	// SlowThreshold arms the slow-query log at startup (0 = disabled;
	// togglable via MsgTrace).
	SlowThreshold time.Duration
}

// Dispatch answers one request the kernel does not handle itself. A
// returned error terminates the session (an unwritable connection, or
// ErrUnknownRequest for a type the daemon does not speak); per-request
// failures that leave the stream well-formed are reported with
// Session.WriteErr and return nil.
type Dispatch func(sess *Session, typ byte, payload []byte) error

// ErrUnknownRequest terminates a session whose peer sent a request
// type the daemon does not speak; the stream may be desynced.
var ErrUnknownRequest = errors.New("session: unknown request type")

// errVersionMismatch terminates a session whose hello announced a
// protocol version this build does not speak. The peer has already
// received a MsgErrVersion frame by the time it is returned.
var errVersionMismatch = errors.New("session: protocol version mismatch")

// Kernel accepts sessions and runs their request loops.
type Kernel struct {
	name     string // error-text prefix: "server" or "router"
	cfg      Config
	c        *Counters
	dispatch Dispatch
	traced   [256]bool // request types allowed inside MsgTraced

	// Observability switches, all togglable at runtime via MsgTrace.
	traceOn atomic.Bool   // per-query tracing
	slowNs  atomic.Int64  // slow-query threshold in ns; < 0 = log off
	traceID atomic.Uint64 // local trace / slow-record ids
	slow    slowRing

	mu       sync.Mutex
	ln       net.Listener
	sessions map[*Session]struct{}
	closing  chan struct{}
	wg       sync.WaitGroup
}

// New builds a kernel that counts into c and hands every request it
// does not own to dispatch. traced lists the request types that may
// arrive wrapped in a MsgTraced envelope.
func New(name string, cfg Config, c *Counters, dispatch Dispatch, traced ...byte) *Kernel {
	if cfg.FrameTimeout == 0 {
		cfg.FrameTimeout = 30 * time.Second
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	k := &Kernel{
		name:     name,
		cfg:      cfg,
		c:        c,
		dispatch: dispatch,
		sessions: make(map[*Session]struct{}),
		closing:  make(chan struct{}),
	}
	for _, typ := range traced {
		k.traced[typ] = true
	}
	k.traceOn.Store(cfg.Trace)
	k.slowNs.Store(-1)
	if cfg.SlowThreshold > 0 {
		k.slowNs.Store(int64(cfg.SlowThreshold))
	}
	return k
}

// Session is one accepted connection's state: the conn with its
// buffered streams, the activity tracking the idle reaper and the
// deadline plumbing need, and the per-request reply state.
type Session struct {
	k    *Kernel
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	// lastActive is the unix-nano time of the last completed request;
	// the reaper compares it against IdleTimeout.
	lastActive atomic.Int64
	// busy is true while a request is being served — the reaper never
	// closes a session mid-request (write deadlines cover that phase).
	busy atomic.Bool
	// reaped marks a session the reaper closed, so its read error is
	// not double-counted.
	reaped atomic.Bool
	// inFrame is true once the first byte of a request has been read,
	// distinguishing an idle-timeout close from a slowloris kill.
	inFrame bool

	// traceCtx is the wire trace context of the MsgTraced envelope being
	// served; nil for every untraced request (the common case).
	traceCtx *wire.TraceContext

	// Row-stream state of the request in flight: the reused frame
	// buffer, the row-frame bytes written so far (Bill's wire-byte
	// charge), and the first write failure.
	row      []byte
	rowBytes int64
	werr     error
}

func (sess *Session) touch() { sess.lastActive.Store(time.Now().UnixNano()) }

// armWrite starts the per-write deadline window; every response write
// (row frames, flushes, reports) must progress within WriteTimeout.
func (sess *Session) armWrite() {
	if wt := sess.k.cfg.WriteTimeout; wt > 0 {
		sess.conn.SetWriteDeadline(time.Now().Add(wt))
	}
}

// readRequest blocks for the next request frame under the session's
// two read budgets: the first byte must arrive within IdleTimeout
// (if set), and the rest of the frame within FrameTimeout.
func (sess *Session) readRequest() (byte, []byte, error) {
	sess.inFrame = false
	if idle := sess.k.cfg.IdleTimeout; idle > 0 {
		sess.conn.SetReadDeadline(time.Now().Add(idle))
	} else {
		sess.conn.SetReadDeadline(time.Time{})
	}
	// Re-arming the deadline races with Shutdown's wake-up poke;
	// checking the closing channel after arming closes the window (a
	// straggler is still force-closed at the end of the drain).
	select {
	case <-sess.k.closing:
		sess.conn.SetReadDeadline(time.Now())
	default:
	}
	if _, err := sess.br.Peek(1); err != nil {
		return 0, nil, err
	}
	sess.inFrame = true
	if ft := sess.k.cfg.FrameTimeout; ft > 0 {
		sess.conn.SetReadDeadline(time.Now().Add(ft))
	}
	return wire.ReadFrame(sess.br)
}

// WriteFrame arms the write deadline and buffers one response frame.
func (sess *Session) WriteFrame(typ byte, payload []byte) error {
	sess.armWrite()
	return wire.WriteFrame(sess.bw, typ, payload)
}

// WriteErr reports a per-request failure and keeps the session open.
func (sess *Session) WriteErr(err error) error {
	sess.k.c.Errors.Add(1)
	return sess.WriteFrame(wire.MsgError, []byte(err.Error()))
}

// Reply marshals v into a MsgReply frame.
func (sess *Session) Reply(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return sess.WriteErr(err)
	}
	return sess.WriteFrame(wire.MsgReply, data)
}

// Pong answers a MsgPing heartbeat with the echoed nonce and the
// daemon's shard-map epoch. It touches no engine state: the round trip
// must measure the daemon's responsiveness, and a zero or stale epoch
// in the pong is how a rebooted shard asks to be re-taught without
// failing a live probe.
func (sess *Session) Pong(payload []byte, epoch uint64) error {
	nonce, err := wire.DecodePing(payload)
	if err != nil {
		return sess.WriteErr(err)
	}
	var buf [16]byte
	return sess.WriteFrame(wire.MsgPong, wire.EncodePong(buf[:0], nonce, epoch))
}

// WriteRow streams one result tuple as a MsgRow frame. The write
// deadline is re-armed per row — progress, not total response time, is
// what WriteTimeout bounds — and a partial row is flushed at once: the
// partial-first contract is that O2 rows reach the client now, not when
// the buffer happens to fill. A failure is also latched for Err, so a
// handler can tell its own dead connection from a query error after the
// emit callback's error has passed through the engine.
func (sess *Session) WriteRow(t value.Tuple, partial bool) error {
	sess.armWrite()
	sess.row = wire.EncodeRow(sess.row[:wire.FrameHeaderLen], t, partial)
	err := wire.SealFrame(sess.row, wire.MsgRow)
	if err == nil {
		_, err = sess.bw.Write(sess.row)
	}
	if err == nil {
		sess.rowBytes += int64(len(sess.row))
		if partial {
			err = sess.bw.Flush()
		}
	}
	if err != nil {
		sess.werr = err
	}
	return err
}

// Bill closes a row-streaming request's cost accounting. Rows and wire
// bytes (row payloads plus framing) are always-on cheap adds; the serve
// span and the heap bill since allocMark are recorded only on traced
// requests (AllocMark reads the runtime, so the untraced path must
// never pay it).
func (sess *Session) Bill(tr *obs.Trace, start time.Time, allocMark int64, rows int) {
	c := sess.k.c
	c.CostRows.Add(int64(rows))
	c.CostBytes.Add(sess.rowBytes)
	if tr != nil {
		allocd := tr.AllocMark() - allocMark
		tr.SpanCost(obs.KindServe, start, int64(rows), 0, 0,
			obs.Cost{Rows: int64(rows), Bytes: sess.rowBytes, Allocs: allocd})
		c.TracesSampled.Add(1)
		c.CostAllocs.Add(allocd)
	}
}

// Err is the first WriteRow failure of the request in flight.
func (sess *Session) Err() error { return sess.werr }

// Closing is closed when Shutdown begins.
func (k *Kernel) Closing() <-chan struct{} { return k.closing }

// Start listens on addr (e.g. ":7070", "127.0.0.1:0") and accepts
// sessions in a background goroutine until Shutdown.
func (k *Kernel) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	k.mu.Lock()
	k.ln = ln
	k.mu.Unlock()
	if k.cfg.IdleTimeout > 0 {
		k.wg.Add(1)
		go k.reaper()
	}
	k.wg.Add(1)
	go k.acceptLoop(ln)
	return nil
}

// Addr returns the bound listen address (nil before Start).
func (k *Kernel) Addr() net.Addr {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.ln == nil {
		return nil
	}
	return k.ln.Addr()
}

func (k *Kernel) acceptLoop(ln net.Listener) {
	defer k.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed by Shutdown
		}
		k.mu.Lock()
		select {
		case <-k.closing:
			k.mu.Unlock()
			c.Close()
			return
		default:
		}
		if k.cfg.MaxConns > 0 && len(k.sessions) >= k.cfg.MaxConns {
			k.mu.Unlock()
			k.c.ConnRejected.Add(1)
			go k.rejectConn(c)
			continue
		}
		sess := &Session{
			k:    k,
			conn: c,
			br:   bufio.NewReaderSize(c, 64<<10),
			bw:   bufio.NewWriterSize(c, 64<<10),
			row:  make([]byte, wire.FrameHeaderLen, 256),
		}
		sess.touch()
		k.sessions[sess] = struct{}{}
		k.mu.Unlock()
		k.wg.Add(1)
		go k.handle(sess)
	}
}

// rejectConn answers an over-cap connection with a single error frame,
// best-effort under a short deadline so a slow peer cannot pin the
// goroutine, then closes it.
func (k *Kernel) rejectConn(c net.Conn) {
	c.SetWriteDeadline(time.Now().Add(time.Second))
	wire.WriteFrame(c, wire.MsgError, []byte(k.name+": connection limit reached"))
	c.Close()
}

// reaper periodically closes sessions that have been idle past
// IdleTimeout. The per-read idle deadline catches most of these; the
// reaper is the backstop that also works when a deadline was cleared
// or the platform missed a poke.
func (k *Kernel) reaper() {
	defer k.wg.Done()
	interval := k.cfg.IdleTimeout / 2
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-k.closing:
			return
		case <-tick.C:
		}
		cutoff := time.Now().Add(-k.cfg.IdleTimeout).UnixNano()
		k.mu.Lock()
		var victims []*Session
		for sess := range k.sessions {
			if sess.busy.Load() || sess.lastActive.Load() > cutoff {
				continue
			}
			victims = append(victims, sess)
		}
		k.mu.Unlock()
		for _, sess := range victims {
			if sess.reaped.CompareAndSwap(false, true) {
				k.c.IdleReaped.Add(1)
				sess.conn.Close()
			}
		}
	}
}

// Shutdown stops accepting, lets in-flight requests finish (bounded by
// DrainTimeout), then force-closes whatever remains. Safe to call more
// than once.
func (k *Kernel) Shutdown() error {
	k.mu.Lock()
	select {
	case <-k.closing:
		k.mu.Unlock()
		return nil
	default:
	}
	close(k.closing)
	ln := k.ln
	// Wake sessions blocked reading the next request; ones mid-response
	// finish it first, then observe the closed channel. The write
	// deadline bounds sessions stuck in a response write to a dead
	// peer — they unblock within the drain window instead of needing
	// the force-close hammer.
	for sess := range k.sessions {
		sess.conn.SetReadDeadline(time.Now())
		sess.conn.SetWriteDeadline(time.Now().Add(k.cfg.DrainTimeout))
	}
	k.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}

	done := make(chan struct{})
	go func() { k.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(k.cfg.DrainTimeout):
		k.mu.Lock()
		for sess := range k.sessions {
			sess.conn.Close()
		}
		k.mu.Unlock()
		<-done
	}
	return err
}

// handle owns one session for the connection's lifetime.
func (k *Kernel) handle(sess *Session) {
	k.c.SessionsTotal.Add(1)
	k.c.SessionsActive.Add(1)
	defer func() {
		k.c.SessionsActive.Add(-1)
		k.mu.Lock()
		delete(k.sessions, sess)
		k.mu.Unlock()
		sess.conn.Close()
		k.wg.Done()
	}()

	for {
		typ, payload, err := sess.readRequest()
		if err != nil {
			k.classifyReadErr(sess, err)
			return
		}
		sess.busy.Store(true)
		sess.rowBytes, sess.werr = 0, nil
		sess.armWrite()
		err = k.serve(sess, typ, payload)
		if err == nil {
			sess.armWrite()
			err = sess.bw.Flush()
		}
		sess.busy.Store(false)
		sess.touch()
		if err != nil {
			k.classifyDispatchErr(sess, err)
			return
		}
		select {
		case <-k.closing:
			return
		default:
		}
	}
}

// serve answers the requests the kernel owns and hands the rest to the
// daemon.
func (k *Kernel) serve(sess *Session, typ byte, payload []byte) error {
	switch typ {
	case wire.MsgHello:
		return k.handleHello(sess, payload)
	case wire.MsgTraced:
		return k.handleTraced(sess, payload)
	case wire.MsgTrace:
		return k.handleTrace(sess, payload)
	case wire.MsgSlowlog:
		return k.handleSlowlog(sess, payload)
	default:
		return k.dispatch(sess, typ, payload)
	}
}

// classifyReadErr counts why a session's request read failed. Clean
// EOF and shutdown pokes are not failures; everything else lands in
// exactly one counter so netchaos runs can audit the failure budget.
func (k *Kernel) classifyReadErr(sess *Session, err error) {
	switch {
	case sess.reaped.Load():
		// The reaper closed it and already counted IdleReaped.
	case errors.Is(err, wire.ErrCorruptFrame) || errors.Is(err, wire.ErrFrameTooLarge):
		k.c.CorruptFrames.Add(1)
	case errors.Is(err, os.ErrDeadlineExceeded):
		select {
		case <-k.closing:
			return // drain poke, not a network failure
		default:
		}
		if sess.inFrame {
			k.c.ReadTimeouts.Add(1) // slowloris: frame stalled mid-arrival
		} else {
			k.c.IdleReaped.Add(1) // peer went silent between requests
		}
	case errors.Is(err, io.EOF):
		// Clean close between requests.
	default:
		k.c.SessionResets.Add(1)
	}
}

// classifyDispatchErr counts why serving a request terminated the
// session: a response write that timed out or failed, or a request the
// daemon cannot parse past.
func (k *Kernel) classifyDispatchErr(sess *Session, err error) {
	switch {
	case sess.reaped.Load():
	case errors.Is(err, errVersionMismatch):
		// Clean, typed rejection: the peer got MsgErrVersion and the
		// session is closed on purpose.
	case errors.Is(err, ErrUnknownRequest):
		k.c.CorruptFrames.Add(1)
	case errors.Is(err, os.ErrDeadlineExceeded):
		k.c.WriteTimeouts.Add(1)
	default:
		select {
		case <-k.closing:
			return // drain deadline fired mid-response
		default:
		}
		k.c.SessionResets.Add(1)
	}
}

// handleHello answers the session-opening version handshake. Matching
// versions get a HelloReply; anything else gets the typed
// MsgErrVersion frame and loses the session — by contract, before any
// other traffic could desync the stream.
func (k *Kernel) handleHello(sess *Session, payload []byte) error {
	v, err := wire.DecodeHello(payload)
	if err != nil {
		return sess.WriteErr(err)
	}
	if v != wire.ProtocolVersion {
		if werr := sess.WriteFrame(wire.MsgErrVersion, wire.EncodeVersionErr(wire.ProtocolVersion)); werr != nil {
			return werr
		}
		if werr := sess.bw.Flush(); werr != nil {
			return werr
		}
		return fmt.Errorf("%w: peer speaks %d, %s speaks %d", errVersionMismatch, v, k.name, wire.ProtocolVersion)
	}
	return sess.Reply(wire.HelloReply{Version: int(wire.ProtocolVersion)})
}
