// Package server is the pmvd query service: a concurrent, deadline-
// aware network front end over an embedded pmv database.
//
// Sessions — accept, framing, deadlines, the idle reaper, drain, the
// hello handshake, the MsgTraced envelope and the reply primitives —
// are the shared kernel in internal/session; this package is the
// dispatch function handed to it and the handlers behind that. Query
// execution — the only expensive request — passes through an
// admission controller: a bounded worker pool sized by
// Config.PoolSize. While a slot is free the full PMV protocol runs
// (O1+O2 partials stream first, then O3's remainder); when every slot
// is busy the server does not queue or hang but sheds the query,
// answering from the partial materialized view alone (Operations
// O1+O2) and flagging the report Shed. That is the paper's
// bounded-quality/bounded-time trade made operational: under overload
// clients keep getting the hot cached answers in microseconds instead
// of joining a convoy behind O3 executions.
//
// Deadlines compose with admission: every admitted query runs under a
// context.Context whose deadline is the client's (or the server
// default), so a query that outlives its budget returns the partial
// rows already streamed, flagged DeadlineExpired, instead of blocking
// the session.
package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"pmv"
	"pmv/internal/expr"
	"pmv/internal/heap"
	"pmv/internal/maint"
	"pmv/internal/session"
	"pmv/internal/snapshot"
	"pmv/internal/storage"
	"pmv/internal/value"
	"pmv/internal/wire"
)

// Config tunes a Server.
type Config struct {
	// PoolSize bounds concurrently executing O3s (admitted queries).
	// Queries arriving beyond it are shed to PMV-only answers.
	// Default: GOMAXPROCS.
	PoolSize int
	// DefaultDeadline bounds queries whose request carries no deadline
	// (0 = unbounded).
	DefaultDeadline time.Duration
	// DrainTimeout bounds Shutdown's wait for in-flight sessions
	// before force-closing connections. Default 5s.
	DrainTimeout time.Duration
	// Trace starts the server with per-query tracing enabled (also
	// togglable at runtime with the trace admin command).
	Trace bool
	// SlowThreshold enables the slow-query log: queries whose total
	// latency reaches it are recorded with their full trace (0 =
	// disabled; togglable at runtime).
	SlowThreshold time.Duration
	// MaxConns caps concurrently open sessions, independent of the
	// query-admission pool (0 = unlimited). A connection arriving
	// beyond it is answered with one error frame and closed.
	MaxConns int
	// IdleTimeout reclaims sessions whose peer sends nothing between
	// requests for this long, via a per-read deadline plus a reaper
	// goroutine (0 = sessions may idle forever).
	IdleTimeout time.Duration
	// FrameTimeout bounds how long one request frame may take to
	// finish arriving once its first byte has been read — a peer that
	// trickles a frame byte-by-byte (slowloris) loses its session
	// instead of pinning a goroutine. Default 30s; negative disables.
	FrameTimeout time.Duration
	// WriteTimeout bounds each response write, so a peer that stops
	// reading mid-stream cannot pin a session goroutine. Default 30s;
	// negative disables.
	WriteTimeout time.Duration
}

// Server serves the pmvd wire protocol over a database. The embedded
// kernel provides Start, Addr and Shutdown (which leaves the database
// open — it stays owned by the caller).
type Server struct {
	*session.Kernel
	db      *pmv.DB
	cfg     Config
	sem     chan struct{} // admission slots: acquired per executed query
	metrics Metrics

	// Cluster plane: the shard map a router installed (epoch 0 until
	// one does), validated against every probe/refill request.
	shardMu  sync.Mutex
	shardMap wire.ShardMapReply

	// Warm-restart plane: nil unless the process runs with snapshots.
	// The server reports the manager's health and forwards shard-map
	// installs to it so snapshots are stamped with the live epoch.
	snap *snapshot.Manager

	// Write plane: nil unless the process runs with batched update
	// ingest; updates then fall back to per-statement application.
	maint *maint.Plane
}

// SetSnapshots attaches the snapshot manager (call before Start).
func (s *Server) SetSnapshots(m *snapshot.Manager) { s.snap = m }

// New builds a server over db. The database stays owned by the caller
// (Shutdown does not close it).
func New(db *pmv.DB, cfg Config) *Server {
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = runtime.GOMAXPROCS(0)
	}
	s := &Server{db: db, cfg: cfg, sem: make(chan struct{}, cfg.PoolSize)}
	s.Kernel = session.New("server", session.Config{
		MaxConns:      cfg.MaxConns,
		IdleTimeout:   cfg.IdleTimeout,
		FrameTimeout:  cfg.FrameTimeout,
		WriteTimeout:  cfg.WriteTimeout,
		DrainTimeout:  cfg.DrainTimeout,
		Trace:         cfg.Trace,
		SlowThreshold: cfg.SlowThreshold,
	}, &s.metrics.Counters, s.dispatch,
		wire.MsgQuery, wire.MsgProbeParts, wire.MsgExec, wire.MsgRefill, wire.MsgUpdate)
	return s
}

// Metrics exposes the live counters.
func (s *Server) Metrics() *Metrics { return &s.metrics }

// PoolSize reports the effective admission-control pool size.
func (s *Server) PoolSize() int { return cap(s.sem) }

// dispatch answers one request. A returned error terminates the
// session (unwritable connection or an unparseable request that may
// have desynced the stream); per-request failures that leave the
// stream well-formed are reported to the client in a MsgError frame
// and return nil.
func (s *Server) dispatch(sess *session.Session, typ byte, payload []byte) error {
	switch typ {
	case wire.MsgQuery:
		return s.handleQuery(sess, payload)
	case wire.MsgStats:
		return sess.Reply(s.statsReply())
	case wire.MsgViews:
		return sess.Reply(s.viewsReply())
	case wire.MsgTables:
		return sess.Reply(s.tablesReply())
	case wire.MsgSchema:
		return s.handleSchema(sess, string(payload))
	case wire.MsgCount:
		r, err := s.db.Engine().Catalog().GetRelation(string(payload))
		if err != nil {
			return sess.WriteErr(err)
		}
		return sess.Reply(wire.CountReply{Count: r.Heap.Count()})
	case wire.MsgPeek:
		return s.handlePeek(sess, payload)
	case wire.MsgAnalyze:
		if err := s.db.Analyze(); err != nil {
			return sess.WriteErr(err)
		}
		return sess.Reply(wire.OKReply{OK: true})
	case wire.MsgCheckpoint:
		if err := s.db.Checkpoint(); err != nil {
			return sess.WriteErr(err)
		}
		return sess.Reply(wire.OKReply{OK: true})
	case wire.MsgViewStats:
		return sess.Reply(s.viewStatsReply())
	case wire.MsgProbeParts:
		return s.handleProbeParts(sess, payload)
	case wire.MsgExec:
		return s.handleExec(sess, payload)
	case wire.MsgRefill:
		return s.handleRefill(sess, payload)
	case wire.MsgShardMap:
		return s.handleShardMap(sess, payload)
	case wire.MsgPing:
		return sess.Pong(payload, s.clusterEpoch())
	case wire.MsgUpdate:
		return s.handleUpdate(sess, payload)
	case wire.MsgInvalidate:
		return s.handleInvalidate(sess, payload)
	case wire.MsgHotSet:
		return s.handleHotSet(sess, payload)
	case wire.MsgHotInval:
		return s.handleHotInval(sess, payload)
	case wire.MsgFilter:
		return s.handleFilter(sess, payload)
	case wire.MsgShards:
		return sess.WriteErr(errors.New("server: shards is a router request; this is a shard"))
	case wire.MsgTraceGet, wire.MsgFleet:
		return sess.WriteErr(errors.New("server: trace assembly and fleet federation live in the router; address a pmvrouter"))
	default:
		return session.ErrUnknownRequest
	}
}

// handleQuery runs one PMV query with admission control and deadline
// enforcement, streaming rows as they are produced.
func (s *Server) handleQuery(sess *session.Session, payload []byte) error {
	req, err := wire.DecodeQuery(payload)
	if err != nil {
		// The payload is framed, so the stream is still in sync — but
		// a client speaking garbage gets an error, not a hang.
		return sess.WriteErr(err)
	}
	v, ok := s.db.ViewByName(req.View)
	if !ok {
		return sess.WriteErr(fmt.Errorf("server: no view %q", req.View))
	}
	q := &expr.Query{Template: v.Config().Template, Conds: req.Conds}
	emit := func(r pmv.Result) error { return sess.WriteRow(r.Tuple, r.Partial) }

	// A trace is allocated when the request carries a sampled wire
	// context, when tracing is on, or when the slow-query log is armed;
	// otherwise tr stays nil.
	slowNs := s.SlowNs()
	tr := sess.Trace(req.View, slowNs)
	allocMark := tr.AllocMark()

	start := time.Now()
	var rep pmv.QueryReport
	var qerr error
	shed := false
	select {
	case s.sem <- struct{}{}:
		ctx := pmv.WithTrace(context.Background(), tr)
		deadline := req.Deadline
		if deadline <= 0 {
			deadline = s.cfg.DefaultDeadline
		}
		if deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, deadline)
			defer cancel()
		}
		// O2's partials leave in one write at the phase boundary, before
		// O3 starts; O3's rows leave with the closing frame.
		rep, qerr = v.ExecutePhasedCtx(ctx, q, emit, sess.Flush)
		<-s.sem
	default:
		// Admission control: every worker slot is busy. Shed by
		// answering from the view alone — bounded work, never a queue.
		shed = true
		rep, qerr = v.PartialOnlyCtx(pmv.WithTrace(context.Background(), tr), q, emit)
	}
	if err := sess.Err(); err != nil {
		return err // our write failed, not the query
	}
	if qerr != nil {
		return sess.WriteErr(qerr)
	}
	total := time.Since(start)

	s.metrics.Queries.Add(1)
	s.metrics.Rows.Add(int64(rep.TotalTuples))
	s.metrics.PartialRows.Add(int64(rep.PartialTuples))
	if shed {
		s.metrics.Shed.Add(1)
	}
	if rep.PartialOnly {
		s.metrics.PartialOnly.Add(1)
	}
	if rep.DeadlineExpired {
		s.metrics.DeadlineExpired.Add(1)
	}
	if rep.Degraded {
		s.metrics.Degraded.Add(1)
	}
	s.metrics.PartialPhase.Observe(rep.PartialLatency)
	s.metrics.ExecPhase.Observe(rep.ExecLatency)
	s.metrics.Total.Observe(total)

	wrep := wire.Report{
		Hit:             rep.Hit,
		Skipped:         rep.Skipped,
		Degraded:        rep.Degraded,
		DeadlineExpired: rep.DeadlineExpired,
		PartialOnly:     rep.PartialOnly,
		Shed:            shed,
		ConditionParts:  rep.ConditionParts,
		PartialTuples:   rep.PartialTuples,
		TotalTuples:     rep.TotalTuples,
		PartialLatency:  rep.PartialLatency,
		ExecLatency:     rep.ExecLatency,
		Overhead:        rep.Overhead,
	}
	sess.Bill(tr, start, allocMark, rep.TotalTuples)
	if tr != nil && slowNs >= 0 && int64(total) >= slowNs {
		s.RecordSlow(wire.SlowQuery{
			ID:     tr.ID,
			UnixNs: time.Now().UnixNano(),
			View:   req.View,
			DurNs:  int64(total),
			Reason: "slow",
			Report: wrep,
			Spans:  session.WireSpans(tr),
		})
	}
	if err := sess.EmitSpans(tr); err != nil {
		return err
	}
	return sess.WriteFrame(wire.MsgDone, wire.EncodeReport(nil, wrep))
}

// viewStatsReply flattens every view's core counters.
func (s *Server) viewStatsReply() []wire.ViewStatsEntry {
	views := s.db.Views()
	out := make([]wire.ViewStatsEntry, 0, len(views))
	for _, v := range views {
		st := v.Stats()
		entries := v.Len()
		maxE := v.Config().MaxEntries
		occ := 0.0
		if maxE > 0 {
			occ = float64(entries) / float64(maxE)
		}
		out = append(out, wire.ViewStatsEntry{
			Name:                 v.Name(),
			Queries:              st.Queries,
			QueryHits:            st.QueryHits,
			HitProb:              st.HitProbability(),
			PartsProbed:          st.PartsProbed,
			PartHits:             st.PartHits,
			PartialTuples:        st.PartialTuples,
			CompleteParts:        st.CompleteParts,
			O3Skipped:            st.O3Skipped,
			EntriesCreated:       st.EntriesCreated,
			EntriesEvicted:       st.EntriesEvicted,
			TuplesCached:         st.TuplesCached,
			TuplesEvicted:        st.TuplesEvicted,
			TuplesPurged:         st.TuplesPurged,
			InsertsSeen:          st.InsertsSeen,
			DeletesSeen:          st.DeletesSeen,
			UpdatesSeen:          st.UpdatesSeen,
			UpdatesSkipped:       st.UpdatesSkipped,
			EntriesInvalidated:   st.EntriesInvalidated,
			TuplesInvalidated:    st.TuplesInvalidated,
			KeyGenBumps:          st.KeyGenBumps,
			ViewGenBumps:         st.ViewGenBumps,
			MaintTimeNs:          int64(st.MaintTime),
			LockWaitTimeNs:       int64(st.LockWaitTime),
			O3TimeNs:             int64(st.O3Time),
			DegradedQueries:      st.DegradedQueries,
			DeadlineQueries:      st.DeadlineQueries,
			PartialOnlyQueries:   st.PartialOnlyQueries,
			ProbesSuppressed:     st.ProbesSuppressed,
			FilterPositives:      st.FilterPositives,
			FilterFalsePositives: st.FilterFalsePositives,
			AdmitGateRejects:     st.AdmitGateRejects,
			HotSetKeys:           st.HotSetKeys,
			HotSetTuples:         st.HotSetTuples,
			HotInvalKeys:         st.HotInvalKeys,
			Entries:              entries,
			MaxEntries:           maxE,
			Occupancy:            occ,
			Tuples:               v.TupleCount(),
			Bytes:                v.SizeBytes(),
		})
	}
	return out
}

func (s *Server) statsReply() wire.StatsReply {
	dbs := s.db.Stats()
	es := s.db.EngineStats()
	return wire.StatsReply{
		Server: s.metrics.Snapshot(),
		DB: wire.DBStatsReply{
			BufferHits:     dbs.BufferHits,
			BufferMisses:   dbs.BufferMisses,
			PhysicalReads:  dbs.PhysicalReads,
			PhysicalWrites: dbs.PhysicalWrites,
			ViewBytes:      dbs.ViewBytes,
		},
		Engine: wire.EngineStatsReply{
			LockRetries:     es.LockRetries,
			LockTimeouts:    es.LockTimeouts,
			DegradedQueries: es.DegradedQueries,
			TornPageRepairs: es.TornPageRepairs,
			DMLLocated:      es.DMLLocated,
			DMLScanned:      es.DMLScanned,
		},
		Snapshot: s.snapshotStats(),
		Maint:    s.maintStats(),
		Freq:     s.freqStats(),
	}
}

// snapshotStats renders the snapshot manager's health for the wire
// (nil when warm restarts are off).
func (s *Server) snapshotStats() *wire.SnapshotStats {
	if s.snap == nil {
		return nil
	}
	st := s.snap.Stats()
	return &wire.SnapshotStats{
		Epoch:          st.Epoch,
		AgeSeconds:     s.snap.AgeSeconds(),
		LastWriteBytes: st.LastWriteBytes,
		LastWriteNs:    st.LastWriteDurNs,
		Writes:         st.Writes,
		WriteErrors:    st.WriteErrors,
		WarmEntries:    st.WarmEntries,
		WarmTuples:     st.WarmTuples,
		StaleRejects:   st.StaleRejects,
		CorruptRejects: st.CorruptRejects,
		PendingSkips:   st.PendingSkips,
		LastBoot:       st.LastBoot,
	}
}

func (s *Server) viewsReply() []wire.ViewInfo {
	views := s.db.Views()
	out := make([]wire.ViewInfo, 0, len(views))
	for _, v := range views {
		cfg := v.Config()
		st := v.Stats()
		out = append(out, wire.ViewInfo{
			Name:              v.Name(),
			Template:          cfg.Template,
			MaxEntries:        cfg.MaxEntries,
			TuplesPerBCP:      cfg.TuplesPerBCP,
			Policy:            string(cfg.Policy),
			Entries:           v.Len(),
			Tuples:            v.TupleCount(),
			Bytes:             v.SizeBytes(),
			HitProb:           st.HitProbability(),
			MaxConditionParts: cfg.MaxConditionParts,
			Dividers:          cfg.Dividers,
		})
	}
	return out
}

func (s *Server) tablesReply() []wire.TableInfo {
	rels := s.db.Engine().Catalog().Relations()
	out := make([]wire.TableInfo, 0, len(rels))
	for _, r := range rels {
		out = append(out, wire.TableInfo{
			Name:    r.Name,
			Columns: r.Schema.Arity(),
			Indexes: len(r.Indexes),
			Tuples:  r.Heap.Count(),
		})
	}
	return out
}

func (s *Server) handleSchema(sess *session.Session, rel string) error {
	r, err := s.db.Engine().Catalog().GetRelation(rel)
	if err != nil {
		return sess.WriteErr(err)
	}
	var rep wire.SchemaReply
	for _, c := range r.Schema.Columns {
		rep.Columns = append(rep.Columns, wire.ColumnInfo{Name: c.Name, Type: c.Type})
	}
	for _, ix := range r.Indexes {
		names := make([]string, len(ix.Cols))
		for i, ci := range ix.Cols {
			names[i] = r.Schema.Columns[ci].Name
		}
		rep.Indexes = append(rep.Indexes, wire.IndexInfo{Name: ix.Name, Cols: names})
	}
	return sess.Reply(rep)
}

func (s *Server) handlePeek(sess *session.Session, payload []byte) error {
	rel, n, err := wire.DecodePeek(payload)
	if err != nil {
		return sess.WriteErr(err)
	}
	r, err := s.db.Engine().Catalog().GetRelation(rel)
	if err != nil {
		return sess.WriteErr(err)
	}
	var rep wire.PeekReply
	err = r.Heap.Scan(func(_ storage.RID, t value.Tuple) error {
		rep.Rows = append(rep.Rows, t.Clone())
		if len(rep.Rows) >= n {
			return heap.ErrStopScan
		}
		return nil
	})
	if err != nil && !errors.Is(err, heap.ErrStopScan) {
		return sess.WriteErr(err)
	}
	return sess.Reply(rep)
}
