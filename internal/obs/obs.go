// Package obs is the observability subsystem: low-overhead per-query
// traces carried on the context, a Prometheus text-format metric
// writer, and an HTTP exposition endpoint (metrics, health, pprof).
//
// The paper's value proposition is a latency *split* — Operation O2
// partials in microseconds while the blocking O3 plan catches up — and
// aggregate histograms cannot explain a single query's split. A Trace
// records what each phase of one ExecutePartial actually did: parts O1
// emitted, how long the S lock wait took, which basic condition parts
// O2 hit and how many tuples each served, what O3 scanned, emitted, and
// suppressed through the DS multiset, what the refill cached and
// evicted, and what maintenance purged.
//
// Cost model: a Trace pointer is carried on the context.Context; every
// recording method is nil-safe, so when tracing is disabled each event
// site costs exactly one pointer compare and no allocation (asserted by
// a benchmark in this package). When enabled, spans append to a
// preallocated buffer owned by the query's goroutine — no locks, no
// global state.
package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Kind identifies what one span measured. The kinds map onto the
// paper's protocol phases (Sections 3.3 and 3.6) plus the maintenance
// path (Section 3.4); see DESIGN.md section 4c.
type Kind uint8

const (
	// KindO1 is Operation O1: breaking Cselect into condition parts.
	// N1 = parts emitted, N2 = inexact parts (query intervals split
	// against basic-interval boundaries and needing per-tuple rechecks).
	KindO1 Kind = iota
	// KindLockWait is the wait for the view's S lock (Section 3.6).
	// N1 = 1 when the lock was acquired, 0 when the query degraded.
	KindLockWait
	// KindO2Probe is one condition part's probe in Operation O2.
	// N1 = part index, N2 = tuples served from the view, N3 = 1 on a
	// hit (bcp present), 0 on a miss.
	KindO2Probe
	// KindPlan is optimizer time: compiling the bound template query.
	KindPlan
	// KindExec is the executed plan as the engine saw it.
	// N1 = rows the plan produced (before DS suppression).
	KindExec
	// KindO3 is Operation O3 from the view's side: executing the
	// residual query, suppressing already-delivered tuples, refilling
	// the view. N1 = condition parts the residual query covers (0: every
	// part was served whole and O3 did not run), N2 = rows emitted to
	// the caller, N3 = duplicates suppressed via the DS multiset; the
	// engine produced N2+N3 rows.
	KindO3
	// KindRefill is Operation O3's free view refresh.
	// N1 = tuples cached, N2 = entries created, N3 = entries evicted
	// by the replacement policy while admitting.
	KindRefill
	// KindMaint is deferred maintenance purge work (Section 3.4),
	// always through the in-memory maintenance index. N1 = tuples
	// purged.
	KindMaint
	// KindQueue is time spent waiting for an admission slot (the
	// router's or server's bounded worker pool).
	// N1 = 1 when admitted, 0 when the query was shed.
	KindQueue
	// KindSync is a WAL group-commit fsync billed to the maintenance
	// batch that triggered it. N1 = requests sharing the sync.
	KindSync
	// KindServe is one node's whole-request serving summary: the span
	// every traced request reports exactly once, carrying the request's
	// cost bill (rows streamed, wire bytes written, heap bytes
	// allocated). N1 = rows streamed.
	KindServe
)

// String returns the kind's wire/rendering name.
func (k Kind) String() string {
	switch k {
	case KindO1:
		return "o1"
	case KindLockWait:
		return "lock_wait"
	case KindO2Probe:
		return "o2_probe"
	case KindPlan:
		return "plan"
	case KindExec:
		return "exec"
	case KindO3:
		return "o3"
	case KindRefill:
		return "refill"
	case KindMaint:
		return "maint_purge"
	case KindQueue:
		return "queue_wait"
	case KindSync:
		return "wal_sync"
	case KindServe:
		return "serve"
	default:
		return fmt.Sprintf("kind_%d", uint8(k))
	}
}

// Span is one recorded interval within a trace. Start is the offset
// from the trace's beginning; N1..N3 carry per-kind counters (see the
// Kind constants). Rows/Bytes/Allocs/Fsyncs are the span's resource
// bill when cost accounting recorded one (see cost.go), zero
// otherwise. Source is empty for spans recorded by the trace's owner
// and names the reporting peer (a shard address) for spans fanned back
// over the wire by the cluster plane.
type Span struct {
	Kind       Kind
	Start      time.Duration
	Dur        time.Duration
	N1, N2, N3 int64

	Rows   int64
	Bytes  int64
	Allocs int64
	Fsyncs int64
	Source string
}

// Detail renders the span's counters with their per-kind meaning,
// with the resource bill appended when one was recorded.
func (s Span) Detail() string {
	d := s.detail()
	if s.Rows != 0 || s.Bytes != 0 || s.Allocs != 0 || s.Fsyncs != 0 {
		d += fmt.Sprintf(" [cost rows=%d bytes=%d allocs=%d fsyncs=%d]",
			s.Rows, s.Bytes, s.Allocs, s.Fsyncs)
	}
	if s.Source != "" {
		d += " @" + s.Source
	}
	return d
}

func (s Span) detail() string {
	switch s.Kind {
	case KindO1:
		return fmt.Sprintf("parts=%d inexact=%d", s.N1, s.N2)
	case KindLockWait:
		if s.N1 == 1 {
			return "acquired"
		}
		return "timed out (degraded)"
	case KindO2Probe:
		hm := "miss"
		if s.N3 == 1 {
			hm = "hit"
		}
		return fmt.Sprintf("part=%d %s tuples=%d", s.N1, hm, s.N2)
	case KindPlan:
		return "planned"
	case KindExec:
		return fmt.Sprintf("rows=%d", s.N1)
	case KindO3:
		return fmt.Sprintf("residual_parts=%d emitted=%d dup_suppressed=%d", s.N1, s.N2, s.N3)
	case KindRefill:
		return fmt.Sprintf("cached=%d entries_created=%d evicted=%d", s.N1, s.N2, s.N3)
	case KindMaint:
		return fmt.Sprintf("purged=%d", s.N1)
	case KindQueue:
		if s.N1 == 1 {
			return "admitted"
		}
		return "shed"
	case KindSync:
		return fmt.Sprintf("group_commit batch=%d", s.N1)
	case KindServe:
		return fmt.Sprintf("rows=%d", s.N1)
	default:
		return fmt.Sprintf("n1=%d n2=%d n3=%d", s.N1, s.N2, s.N3)
	}
}

// Trace is one query's (or one maintenance statement's) recorded
// timeline. A Trace belongs to a single goroutine; the owner-side
// recording methods (Span, Event, SpanCost) are not safe for
// concurrent use, matching the one-goroutine-per-session execution
// model. The cluster plane delivers shard span reports from other
// goroutines through the mutex-guarded AddSpans sink (cost.go). The
// zero of *Trace (nil) is "tracing disabled": every method is safe to
// call and does nothing.
type Trace struct {
	// ID tags the trace. Single-node servers use their query sequence
	// number; the cluster plane uses the wire trace id so router and
	// shard spans correlate.
	ID uint64
	// Parent is the parent span/trace id carried in from the wire's
	// trace context (0 = this trace is the root).
	Parent uint64
	// Label names what is being traced (e.g. the view name).
	Label string
	// Begin anchors span offsets.
	Begin time.Time

	spans []Span

	// remote collects spans delivered by other goroutines (shard
	// fan-back, maintenance fsync bills); see AddSpans in cost.go.
	mu     sync.Mutex
	remote []Span
}

// New starts a trace anchored at now.
func New(id uint64, label string) *Trace {
	return &Trace{ID: id, Label: label, Begin: time.Now(), spans: make([]Span, 0, 16)}
}

// Enabled reports whether events will be recorded.
func (t *Trace) Enabled() bool { return t != nil }

// Span records one interval that started at start and ends now.
// Nil-safe: on a nil trace this is one pointer compare.
func (t *Trace) Span(k Kind, start time.Time, n1, n2, n3 int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, Span{
		Kind:  k,
		Start: start.Sub(t.Begin),
		Dur:   time.Since(start),
		N1:    n1,
		N2:    n2,
		N3:    n3,
	})
}

// Event records an instantaneous event (zero duration) at now.
func (t *Trace) Event(k Kind, n1, n2, n3 int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, Span{
		Kind:  k,
		Start: time.Since(t.Begin),
		N1:    n1,
		N2:    n2,
		N3:    n3,
	})
}

// Spans returns the recorded spans in append order. The returned slice
// is the trace's own buffer; callers must not mutate it.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Find returns the first span of kind k and whether one exists.
func (t *Trace) Find(k Kind) (Span, bool) {
	if t == nil {
		return Span{}, false
	}
	for _, s := range t.spans {
		if s.Kind == k {
			return s, true
		}
	}
	return Span{}, false
}

// String renders the trace for logs and the pmvcli slowlog view.
func (t *Trace) String() string {
	if t == nil {
		return "<trace disabled>"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace %d (%s)\n", t.ID, t.Label)
	for _, s := range t.spans {
		fmt.Fprintf(&sb, "  +%-12v %-10s %-10v %s\n", s.Start, s.Kind, s.Dur, s.Detail())
	}
	return sb.String()
}

// ctxKey is the private context key carrying a *Trace.
type ctxKey struct{}

// WithTrace attaches t to ctx. Attaching a nil trace returns ctx
// unchanged, so the disabled path adds no context allocation either.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext extracts the trace, or nil when tracing is disabled.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
