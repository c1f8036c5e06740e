// trace.go is the router's half of the cluster observability plane:
// assemble routed queries' cross-shard timelines out of the span
// reports shards fan back, retain recent traces in a bounded store for
// `pmvcli trace <id>`, feed the kernel's slow ring (degraded queries
// are recorded regardless of latency — the router is the only place
// that can see a query silently shrink to a PMV-only subset), and
// federate shard stats into one fleet view for MsgFleet.
//
// Span offsets: the router's own spans are offsets from the routed
// query's start; shard-reported spans are offsets from the shard
// request's arrival. The assembly does not re-anchor them — shard
// offsets are per-shard timelines, which is exactly what an operator
// wants when comparing O2 probe latency across shards.
package cluster

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"pmv/internal/obs"
	"pmv/internal/session"
	"pmv/internal/wire"
)

// traceStoreCap bounds the assembled-trace store; the oldest trace is
// evicted first. Sized to hold a chaos run's worth of interesting
// queries without growing a long-lived router.
const traceStoreCap = 256

// storedTrace is one retained routed query. It keeps the live
// *obs.Trace rather than a flattened copy so spans that arrive after
// the reply — the asynchronous refill fan-back — are present when the
// trace is read.
type storedTrace struct {
	id     uint64
	view   string
	unixNs int64
	durNs  int64
	reason string
	rep    wire.Report
	tr     *obs.Trace
}

// assemble renders the stored trace in its wire shape, aggregating
// the per-span cost bills.
func (st *storedTrace) assemble() *wire.AssembledTrace {
	c := st.tr.Cost()
	return &wire.AssembledTrace{
		ID:         st.id,
		View:       st.view,
		UnixNs:     st.unixNs,
		DurNs:      st.durNs,
		Reason:     st.reason,
		Report:     st.rep,
		Spans:      session.WireSpans(st.tr),
		CostRows:   c.Rows,
		CostBytes:  c.Bytes,
		CostAllocs: c.Allocs,
		CostFsyncs: c.Fsyncs,
	}
}

// traceStore is the bounded FIFO store of recent traces.
type traceStore struct {
	mu    sync.Mutex
	byID  map[uint64]*storedTrace
	order []uint64 // insertion order; evict from the front
}

func newTraceStore() *traceStore {
	return &traceStore{byID: make(map[uint64]*storedTrace, traceStoreCap)}
}

func (s *traceStore) add(st *storedTrace) {
	s.mu.Lock()
	if _, dup := s.byID[st.id]; !dup {
		s.byID[st.id] = st
		s.order = append(s.order, st.id)
		if len(s.order) > traceStoreCap {
			delete(s.byID, s.order[0])
			s.order = s.order[1:]
		}
	}
	s.mu.Unlock()
}

func (s *traceStore) get(id uint64) (*storedTrace, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.byID[id]
	return st, ok
}

// recent returns up to max retained trace ids, newest first.
func (s *traceStore) recent(max int) []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.order)
	if max > 0 && max < n {
		n = max
	}
	out := make([]uint64, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, s.order[len(s.order)-i])
	}
	return out
}

func (s *traceStore) depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}

// handleTraceGet serves one assembled trace, or the retained id list
// when the id is 0 or unknown.
func (r *Router) handleTraceGet(sess *session.Session, payload []byte) error {
	var req wire.TraceGetRequest
	if len(payload) > 0 {
		if err := json.Unmarshal(payload, &req); err != nil {
			return sess.WriteErr(fmt.Errorf("router: bad trace request: %w", err))
		}
	}
	if req.ID != 0 {
		if st, ok := r.traces.get(req.ID); ok {
			return sess.Reply(wire.TraceGetReply{Found: true, Trace: st.assemble()})
		}
	}
	return sess.Reply(wire.TraceGetReply{Recent: r.traces.recent(32)})
}

// handleFleet scrapes every shard's stats in parallel and answers one
// federated fleet view: per-shard health, epoch, snapshot freshness,
// and maintenance backlog, plus fleet-wide aggregates.
func (r *Router) handleFleet(sess *session.Session) error {
	m := r.shardMap()
	out := wire.FleetReply{
		Epoch:           m.Epoch(),
		VNodes:          m.Wire().VNodes,
		Router:          r.metrics.ServerStats(),
		Hot:             r.hotStats(),
		Shards:          make([]wire.FleetShard, len(r.pools)),
		OldestSnapshotS: -1,
	}
	ctx, cancel := r.adminCtx()
	defer cancel()
	var wg sync.WaitGroup
	for shard := range r.pools {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			fs := wire.FleetShard{Addr: r.cfg.Shards[shard], Health: r.healthWire(shard)}
			c := r.pools[shard].get()
			sm, err := c.ShardMap(ctx)
			if err == nil {
				fs.Up = true
				fs.Epoch = sm.Epoch
				if st, serr := c.Stats(ctx); serr == nil {
					fs.Stats = &st
				}
			} else {
				fs.Error = err.Error()
			}
			r.pools[shard].put(c, err == nil)
			out.Shards[shard] = fs
		}(shard)
	}
	wg.Wait()

	sawNever := false
	for i := range out.Shards {
		fs := &out.Shards[i]
		if !fs.Up {
			out.ShardsDown++
			continue
		}
		out.ShardsUp++
		if fs.Epoch != out.Epoch {
			out.ShardsStale++
		}
		if fs.Stats == nil {
			continue
		}
		out.FleetQueries += fs.Stats.Server.Queries
		out.FleetRows += fs.Stats.Server.Rows
		out.FleetErrors += fs.Stats.Server.Errors
		if fs.Stats.Maint != nil {
			out.MaintBacklog += fs.Stats.Maint.QueueDepth
		}
		if snap := fs.Stats.Snapshot; snap != nil {
			if snap.AgeSeconds < 0 {
				sawNever = true
			} else if snap.AgeSeconds > out.OldestSnapshotS {
				out.OldestSnapshotS = snap.AgeSeconds
			}
		}
	}
	if sawNever {
		// A shard that never snapshotted is infinitely stale; -1 keeps
		// the "never" signal distinguishable from a large age.
		out.OldestSnapshotS = -1
	}
	return sess.Reply(out)
}

// queryObs carries one routed query's observability state from setup
// through finishQuery: the trace (nil when neither the caller nor the
// router wants one), the allocation mark, and the degradation reason —
// set at the point a query silently shrinks (shed, lost shard
// partials, O3 failing everywhere) so the slow ring records it even
// when it was fast.
type queryObs struct {
	tr        *obs.Trace
	allocMark int64
	view      string
	reason    string
}

// degrade appends one degradation reason.
func (o *queryObs) degrade(reason string) {
	if o.reason == "" {
		o.reason = reason
	} else {
		o.reason += "; " + reason
	}
}

// recordQuery closes one routed query's observability: the serve-level
// cost span, the trace store entry, and the slow ring (threshold hits
// plus every degraded query, which are recorded regardless of latency).
func (r *Router) recordQuery(sess *session.Session, rep wire.Report, start time.Time, o *queryObs) {
	dur := time.Since(start)
	sess.Bill(o.tr, start, o.allocMark, rep.TotalTuples)
	if o.tr != nil {
		r.traces.add(&storedTrace{
			id:     o.tr.ID,
			view:   o.view,
			unixNs: start.UnixNano(),
			durNs:  int64(dur),
			reason: o.reason,
			rep:    rep,
			tr:     o.tr,
		})
	}

	slowNs := r.SlowNs()
	slow := slowNs >= 0 && int64(dur) >= slowNs
	if slow || o.reason != "" {
		rec := wire.SlowQuery{
			UnixNs: start.UnixNano(),
			View:   o.view,
			DurNs:  int64(dur),
			Report: rep,
			Reason: o.reason,
		}
		if rec.Reason == "" {
			rec.Reason = "slow"
		}
		if o.tr != nil {
			rec.ID = o.tr.ID
			rec.Spans = session.WireSpans(o.tr)
		} else {
			// Degraded queries are recorded even with tracing and the
			// slow log off — the record then carries the report and
			// reason without spans.
			rec.ID = r.NextTraceID()
		}
		r.RecordSlow(rec)
		if slow {
			r.metrics.SlowRecorded.Add(1)
		}
		if o.reason != "" {
			r.metrics.DegradedRecorded.Add(1)
		}
	}
}
