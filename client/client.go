// Package client is the Go client for pmvd, the pmv query service.
//
// A Client owns one connection, dialed lazily and reused across calls.
// Calls are serialized per client — for concurrent sessions, use one
// Client per goroutine; Clients are cheap until first use.
//
// The client is self-healing: when the connection breaks it redials
// with jittered exponential backoff and retries the call — but only
// when the retry cannot change observable results. Admin calls always
// retry (they are idempotent reads or idempotent maintenance). A query
// retries only while zero rows have been streamed to the caller; once
// any row has been delivered, re-executing could deliver rows twice,
// so the call instead fails with a typed ErrInterrupted carrying the
// partial counts observed so far. When every redial attempt fails the
// call returns a typed ErrUnavailable wrapping the last transport
// error. Server-reported request failures (ErrRemote) and context
// cancellation are never retried.
//
// The query path preserves the PMV latency split end to end:
// ExecutePartial streams rows to the callback as frames arrive, with
// Row.Partial distinguishing Operation O2's cached partials (which the
// server flushes immediately) from Operation O3's remainder rows. A
// context deadline travels with the request; if it expires server-side
// mid-O3, the stream ends cleanly with Report.DeadlineExpired set and
// the rows delivered so far.
package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pmv/internal/expr"
	"pmv/internal/value"
	"pmv/internal/wire"
)

// Re-exported value constructors, so client programs need only this
// package to bind query parameters.
type (
	// Value is one typed scalar.
	Value = value.Value
	// Tuple is one row.
	Tuple = value.Tuple
	// Interval is one selection interval.
	Interval = expr.Interval
	// Cond is one bound selection condition (set Values for
	// equality-form conditions, Intervals for interval-form ones).
	Cond = expr.CondInstance
)

// Value constructors.
var (
	// Int builds an integer value.
	Int = value.Int
	// Float builds a floating-point value.
	Float = value.Float
	// Str builds a string value.
	Str = value.Str
	// Bool builds a boolean value.
	Bool = value.Bool
	// Date builds a date value from days since the Unix epoch.
	Date = value.Date
	// DateFromString parses a YYYY-MM-DD date.
	DateFromString = value.DateFromString
	// Null is the NULL value.
	Null = value.Null
)

// Eq builds an equality-form condition instance.
func Eq(vals ...Value) Cond { return Cond{Values: vals} }

// Between builds an interval-form condition with one [lo, hi)
// interval.
func Between(lo, hi Value) Cond {
	return Cond{Intervals: []Interval{{Lo: lo, Hi: hi, LoIncl: true}}}
}

// Intervals builds an interval-form condition from explicit intervals.
func Intervals(ivs ...Interval) Cond { return Cond{Intervals: ivs} }

// Row is one streamed result row.
type Row struct {
	// Tuple holds the template's select-list columns.
	Tuple Tuple
	// Partial is true for rows served from the PMV before query
	// execution (Operation O2).
	Partial bool
}

// Report summarizes one query (wire.Report re-exported).
type Report = wire.Report

// ErrRemote wraps failures the server reported for a request. They
// are never retried: the connection is healthy and a retry would
// repeat the same failure.
var ErrRemote = errors.New("client: server error")

// ErrUnavailable wraps the last transport error after every reconnect
// attempt failed.
var ErrUnavailable = errors.New("client: server unavailable")

// ErrInterrupted marks a query whose connection died after at least
// one row had been streamed. The client never re-executes such a
// query — a retry could deliver rows twice — so the caller gets the
// typed error and decides. errors.As to *InterruptedError for the
// partial delivery counts.
var ErrInterrupted = errors.New("client: query interrupted mid-stream")

// InterruptedError carries what a mid-stream connection failure
// delivered before dying. It matches errors.Is(err, ErrInterrupted).
type InterruptedError struct {
	// Report holds the client-side observed counts: TotalTuples rows
	// reached the callback, PartialTuples of them flagged Partial. The
	// server-side report never arrived.
	Report Report
	// Err is the underlying transport error.
	Err error
}

// Error formats the interruption with its delivery counts.
func (e *InterruptedError) Error() string {
	return fmt.Sprintf("client: query interrupted after %d rows (%d partial): %v",
		e.Report.TotalTuples, e.Report.PartialTuples, e.Err)
}

// Unwrap exposes the transport error.
func (e *InterruptedError) Unwrap() error { return e.Err }

// Is matches the ErrInterrupted sentinel.
func (e *InterruptedError) Is(target error) bool { return target == ErrInterrupted }

// transient marks an error as a transport-layer failure that a
// reconnect may cure. It is an internal marker: roundTrip unwraps it
// before returning.
type transient struct{ err error }

func (t *transient) Error() string { return t.err.Error() }
func (t *transient) Unwrap() error { return t.err }

// Config tunes a Client. The zero value of every field gets a sane
// default, so Config{Addr: addr} is a working configuration.
type Config struct {
	// Addr is the pmvd address to dial.
	Addr string
	// DialTimeout bounds each dial attempt (default 5s). The dial also
	// respects the call's context.
	DialTimeout time.Duration
	// DeadlineGrace is added to the context deadline when arming the
	// connection's read/write deadlines, covering the server's own
	// deadline handling and the network round trip (default 5s).
	DeadlineGrace time.Duration
	// MaxRetries bounds reconnect-and-retry attempts after a call's
	// first try (default 4; negative disables retrying).
	MaxRetries int
	// BackoffBase is the first retry's backoff (default 50ms); each
	// further retry doubles it, jittered, up to BackoffMax (default
	// 2s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed drives backoff jitter, so torture harnesses can make retry
	// timing reproducible (0 = a fixed default seed).
	Seed int64
}

func (c *Config) fill() {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.DeadlineGrace <= 0 {
		c.DeadlineGrace = 5 * time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 4
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Counters is a snapshot of the client's self-healing activity.
type Counters struct {
	// Dials counts connection attempts that succeeded.
	Dials int64
	// Redials counts successful dials after the first (reconnects).
	Redials int64
	// Retries counts calls re-sent after a transport failure.
	Retries int64
	// Interrupted counts queries failed with ErrInterrupted.
	Interrupted int64
	// GaveUp counts calls failed with ErrUnavailable after exhausting
	// the retry budget.
	GaveUp int64
}

// Client is one pmvd session.
type Client struct {
	cfg Config

	dials       atomic.Int64
	redials     atomic.Int64
	retries     atomic.Int64
	interrupted atomic.Int64
	gaveUp      atomic.Int64
	pingNonce   atomic.Uint64

	mu   sync.Mutex
	rng  *rand.Rand // backoff jitter; guarded by mu
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// New returns a client for addr without connecting; the first call
// dials. Defaults: 5s dial timeout, 4 retries with 50ms–2s jittered
// exponential backoff. Use NewConfig to tune.
func New(addr string) *Client {
	return NewConfig(Config{Addr: addr})
}

// NewConfig returns a client for cfg without connecting.
func NewConfig(cfg Config) *Client {
	cfg.fill()
	return &Client{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Dial returns a connected client (verifying the address is
// reachable).
func Dial(addr string) (*Client, error) {
	c := New(addr)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ensureConn(context.Background()); err != nil {
		return nil, err
	}
	return c, nil
}

// Close releases the connection. The client may be reused; the next
// call redials.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.invalidate()
}

// Counters snapshots the self-healing counters.
func (c *Client) Counters() Counters {
	return Counters{
		Dials:       c.dials.Load(),
		Redials:     c.redials.Load(),
		Retries:     c.retries.Load(),
		Interrupted: c.interrupted.Load(),
		GaveUp:      c.gaveUp.Load(),
	}
}

// ensureConn dials if needed, respecting both the configured dial
// timeout and ctx (so a context deadline bounds connection
// re-establishment too, not just the request). Callers hold c.mu.
func (c *Client) ensureConn(ctx context.Context) error {
	if c.conn != nil {
		return nil
	}
	d := net.Dialer{Timeout: c.cfg.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", c.cfg.Addr)
	if err != nil {
		return err
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	if err := hello(conn, br, bw, c.cfg.DialTimeout); err != nil {
		conn.Close()
		return err
	}
	if c.dials.Add(1) > 1 {
		c.redials.Add(1)
	}
	c.conn = conn
	c.br = br
	c.bw = bw
	return nil
}

// hello performs the protocol version handshake on a fresh connection.
// A MsgErrVersion reply becomes a typed wire.ErrVersion — final, never
// retried, because no amount of redialing the same binaries cures a
// version mismatch.
func hello(conn net.Conn, br *bufio.Reader, bw *bufio.Writer, timeout time.Duration) error {
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	if err := wire.WriteFrame(bw, wire.MsgHello, wire.EncodeHello()); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	typ, body, err := wire.ReadFrame(br)
	if err != nil {
		return err
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return err
	}
	switch typ {
	case wire.MsgReply:
		return nil
	case wire.MsgErrVersion:
		v, derr := wire.DecodeVersionErr(body)
		if derr != nil {
			return derr
		}
		return fmt.Errorf("%w: client speaks %d, server speaks %d", wire.ErrVersion, wire.ProtocolVersion, v)
	case wire.MsgError:
		return fmt.Errorf("%w: %s", ErrRemote, body)
	default:
		return fmt.Errorf("client: unexpected hello reply frame 0x%02x", typ)
	}
}

// invalidate drops the connection so the next call redials. Callers
// hold c.mu.
func (c *Client) invalidate() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn, c.br, c.bw = nil, nil, nil
	return err
}

// setDeadline applies ctx's deadline (plus DeadlineGrace for the
// server's own deadline handling to produce a response) to the
// connection, covering the request write and every response read.
// Callers hold c.mu with a live conn.
func (c *Client) setDeadline(ctx context.Context) error {
	if dl, ok := ctx.Deadline(); ok {
		return c.conn.SetDeadline(dl.Add(c.cfg.DeadlineGrace))
	}
	return c.conn.SetDeadline(time.Time{})
}

// backoff sleeps before retry attempt n (0-based): exponential from
// BackoffBase, capped at BackoffMax, jittered to [d/2, d) so a fleet
// of reconnecting clients does not stampede. Returns early with the
// context's error if it is canceled mid-sleep. Callers hold c.mu.
func (c *Client) backoff(ctx context.Context, n int) error {
	d := c.cfg.BackoffBase
	for i := 0; i < n && d < c.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > c.cfg.BackoffMax {
		d = c.cfg.BackoffMax
	}
	d = d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// roundTrip sends one request frame and hands the reply stream to
// recv, which reads frames until it has the full response. Transport
// failures invalidate the connection (the stream position is unknown)
// and — when canRetry allows it — redial with backoff and re-send, up
// to MaxRetries times; exhausting the budget returns ErrUnavailable.
// Per-request server errors (MsgError) and recv-callback errors are
// never retried.
func (c *Client) roundTrip(ctx context.Context, typ byte, payload []byte, canRetry func() bool, recv func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := c.attempt(ctx, typ, payload, recv)
		if err == nil {
			return nil
		}
		var tr *transient
		if !errors.As(err, &tr) {
			return err // remote error, callback error, or ctx error: final
		}
		if canRetry == nil || !canRetry() {
			return tr.err
		}
		if attempt >= c.cfg.MaxRetries {
			c.gaveUp.Add(1)
			return fmt.Errorf("%w after %d attempts: %v", ErrUnavailable, attempt+1, tr.err)
		}
		if berr := c.backoff(ctx, attempt); berr != nil {
			return berr
		}
		c.retries.Add(1)
	}
}

// attempt performs one try of a round trip. Transport failures come
// back wrapped in *transient; everything else is final.
func (c *Client) attempt(ctx context.Context, typ byte, payload []byte, recv func() error) error {
	if err := c.ensureConn(ctx); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if errors.Is(err, wire.ErrVersion) || errors.Is(err, ErrRemote) {
			return err // redialing cannot cure these: final
		}
		return &transient{err}
	}
	// Cancellation must unblock the request promptly even when ctx
	// carries no deadline: a blackholed peer would otherwise hold the
	// pending read until the far side breaks the connection. Closing
	// the conn from the cancellation callback fails the read/write
	// immediately; a conn closed that way is never reused.
	conn := c.conn
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer func() {
		if !stop() {
			c.invalidate()
		}
	}()
	if err := c.setDeadline(ctx); err != nil {
		c.invalidate()
		return &transient{err}
	}
	if err := wire.WriteFrame(c.bw, typ, payload); err != nil {
		c.invalidate()
		return &transient{err}
	}
	if err := c.bw.Flush(); err != nil {
		c.invalidate()
		return &transient{err}
	}
	if err := recv(); err != nil {
		if errors.Is(err, ErrRemote) || errors.Is(err, wire.ErrEpoch) {
			return err // session still in sync
		}
		c.invalidate()
		return err // *transient from the stream reader, or a callback error
	}
	return nil
}

// ExecutePartial runs the PMV protocol on the named view, streaming
// every result row to fn exactly once. O2 partials arrive first with
// Row.Partial set. A ctx deadline is forwarded to the server as the
// query deadline; see Report.DeadlineExpired. If fn returns an error
// the stream is abandoned and the connection closed (the server may
// still be sending).
//
// If the connection dies before any row reaches fn, the client
// transparently reconnects and re-executes (safe: nothing was
// delivered). Once at least one row has been delivered a transport
// failure returns ErrInterrupted instead — never a silent
// re-execution, which could deliver duplicate rows.
func (c *Client) ExecutePartial(ctx context.Context, view string, conds []Cond, fn func(Row) error) (Report, error) {
	payload, err := queryRequest(ctx, view, conds)
	if err != nil {
		return Report{}, err
	}
	return c.stream(ctx, wire.MsgQuery, payload, fn)
}

// queryRequest encodes a MsgQuery/MsgExec payload, forwarding ctx's
// deadline as the query deadline (an expired one as 1ns, so the server
// still sees it).
func queryRequest(ctx context.Context, view string, conds []Cond) ([]byte, error) {
	req := wire.QueryRequest{View: view, Conds: conds}
	if dl, ok := ctx.Deadline(); ok {
		req.Deadline = max(time.Until(dl), time.Nanosecond)
	}
	return wire.EncodeQuery(req)
}

// admin performs a request whose response is one JSON MsgReply frame,
// decoding it into out. Admin requests are idempotent, so transport
// failures reconnect and retry transparently.
func (c *Client) admin(ctx context.Context, typ byte, payload []byte, out any) error {
	return c.roundTrip(ctx, typ, payload, func() bool { return true }, c.replyRecv(nil, out))
}

// Stats fetches the server's counters.
func (c *Client) Stats(ctx context.Context) (wire.StatsReply, error) {
	var out wire.StatsReply
	err := c.admin(ctx, wire.MsgStats, nil, &out)
	return out, err
}

// Views lists the server's partial materialized views (templates
// included).
func (c *Client) Views(ctx context.Context) ([]wire.ViewInfo, error) {
	var out []wire.ViewInfo
	err := c.admin(ctx, wire.MsgViews, nil, &out)
	return out, err
}

// Tables lists base relations.
func (c *Client) Tables(ctx context.Context) ([]wire.TableInfo, error) {
	var out []wire.TableInfo
	err := c.admin(ctx, wire.MsgTables, nil, &out)
	return out, err
}

// Schema describes one relation.
func (c *Client) Schema(ctx context.Context, rel string) (wire.SchemaReply, error) {
	var out wire.SchemaReply
	err := c.admin(ctx, wire.MsgSchema, []byte(rel), &out)
	return out, err
}

// Count returns a relation's live tuple count.
func (c *Client) Count(ctx context.Context, rel string) (int64, error) {
	var out wire.CountReply
	err := c.admin(ctx, wire.MsgCount, []byte(rel), &out)
	return out.Count, err
}

// Peek returns a relation's first n tuples.
func (c *Client) Peek(ctx context.Context, rel string, n int) ([]Tuple, error) {
	payload, err := wire.EncodePeek(rel, n)
	if err != nil {
		return nil, err
	}
	var out wire.PeekReply
	err = c.admin(ctx, wire.MsgPeek, payload, &out)
	return out.Rows, err
}

// Analyze recomputes optimizer statistics server-side.
func (c *Client) Analyze(ctx context.Context) error {
	return c.admin(ctx, wire.MsgAnalyze, nil, &wire.OKReply{})
}

// Checkpoint flushes pages and truncates the WAL server-side.
func (c *Client) Checkpoint(ctx context.Context) error {
	return c.admin(ctx, wire.MsgCheckpoint, nil, &wire.OKReply{})
}

// Trace reads or updates the server's tracing and slow-query-log
// settings. Nil request fields leave the corresponding setting
// unchanged, so Trace(ctx, wire.TraceRequest{}) just reads state.
func (c *Client) Trace(ctx context.Context, req wire.TraceRequest) (wire.TraceReply, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return wire.TraceReply{}, err
	}
	var out wire.TraceReply
	err = c.admin(ctx, wire.MsgTrace, payload, &out)
	return out, err
}

// Slowlog dumps the server's slow-query log, newest first (limit 0 =
// all retained records).
func (c *Client) Slowlog(ctx context.Context, limit int) (wire.SlowlogReply, error) {
	payload, err := json.Marshal(wire.SlowlogRequest{Limit: limit})
	if err != nil {
		return wire.SlowlogReply{}, err
	}
	var out wire.SlowlogReply
	err = c.admin(ctx, wire.MsgSlowlog, payload, &out)
	return out, err
}

// ViewStats fetches every view's core counters.
func (c *Client) ViewStats(ctx context.Context) ([]wire.ViewStatsEntry, error) {
	var out []wire.ViewStatsEntry
	err := c.admin(ctx, wire.MsgViewStats, nil, &out)
	return out, err
}
