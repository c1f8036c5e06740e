// cluster.go implements the shard half of the cluster plane: remote
// O2 probes and plain O3 execution over Ls′, refill ingestion, and
// shard-map storage with epoch validation. Every handler keeps the
// session's framing discipline — per-request failures answer MsgError
// (or the typed MsgErrEpoch) and leave the stream in sync.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"pmv/internal/core"
	"pmv/internal/expr"
	"pmv/internal/obs"
	"pmv/internal/session"
	"pmv/internal/value"
	"pmv/internal/wire"
)

// clusterEpoch returns the installed shard map's epoch (0 = none).
func (s *Server) clusterEpoch() uint64 {
	s.shardMu.Lock()
	defer s.shardMu.Unlock()
	return s.shardMap.Epoch
}

// checkEpoch validates a request's shard-map epoch, answering the
// typed MsgErrEpoch frame on mismatch. Returns true when the request
// may proceed.
func (s *Server) checkEpoch(sess *session.Session, epoch uint64) (bool, error) {
	cur := s.clusterEpoch()
	if epoch == cur && cur != 0 {
		return true, nil
	}
	return false, sess.WriteFrame(wire.MsgErrEpoch, wire.EncodeEpochErr(cur))
}

// handleProbeParts runs Operation O2 for a router-computed batch of
// condition parts, streaming each cached Ls′ tuple as a MsgRow with
// RowPartial set (flushed per row — the partial-first contract is the
// whole point of probing before O3).
func (s *Server) handleProbeParts(sess *session.Session, payload []byte) error {
	req, err := wire.DecodeProbe(payload)
	if err != nil {
		return sess.WriteErr(err)
	}
	ok, err := s.checkEpoch(sess, req.Epoch)
	if err != nil || !ok {
		return err
	}
	v, found := s.db.ViewByName(req.View)
	if !found {
		return sess.WriteErr(fmt.Errorf("server: no view %q", req.View))
	}
	parts := make([]core.RemotePart, len(req.Parts))
	for i, p := range req.Parts {
		parts[i] = core.RemotePart{Key: p.Key, Exact: p.Exact, Conds: p.Conds}
	}

	tr := sess.Trace(req.View, -1)
	allocMark := tr.AllocMark()
	ctx := obs.WithTrace(context.Background(), tr)
	if req.BudgetNs > 0 {
		// The router rode its remaining deadline budget on the request:
		// past it the router has already given up on this probe, so any
		// further work here is wasted. ProbeBCPs checks the context
		// between parts and aborts typed.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.BudgetNs))
		defer cancel()
	}
	start := time.Now()
	rep, perr := v.ProbeBCPs(ctx, parts, func(t value.Tuple) error { return sess.WriteRow(t, true) })
	if err := sess.Err(); err != nil {
		return err
	}
	if perr != nil {
		return sess.WriteErr(perr)
	}
	s.metrics.PartialRows.Add(int64(rep.PartialTuples))
	s.metrics.PartialPhase.Observe(time.Since(start))
	sess.Bill(tr, start, allocMark, rep.PartialTuples)
	if err := sess.EmitSpans(tr); err != nil {
		return err
	}
	return sess.WriteFrame(wire.MsgDone, wire.EncodeReport(nil, wire.Report{
		Hit:            rep.Hit,
		ConditionParts: len(parts),
		PartialTuples:  rep.PartialTuples,
		TotalTuples:    rep.PartialTuples,
		PartialLatency: time.Since(start),
	}))
}

// handleExec executes a query plainly over Ls′ — the shard half of a
// routed Operation O3. Unlike MsgQuery it blocks for an admission slot
// instead of shedding: the router already holds the query's partials
// and is counting on a complete remainder, so a bounded wait beats a
// useless empty answer. The request deadline (or the server default)
// bounds both the wait and the execution.
func (s *Server) handleExec(sess *session.Session, payload []byte) error {
	req, err := wire.DecodeExec(payload)
	if err != nil {
		return sess.WriteErr(err)
	}
	v, found := s.db.ViewByName(req.View)
	if !found {
		return sess.WriteErr(fmt.Errorf("server: no view %q", req.View))
	}
	q := &expr.Query{Template: v.Config().Template, Conds: req.Conds}

	tr := sess.Trace(req.View, -1)
	allocMark := tr.AllocMark()
	ctx := obs.WithTrace(context.Background(), tr)
	deadline := req.Deadline
	if deadline <= 0 {
		deadline = s.cfg.DefaultDeadline
	}
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	admitStart := time.Now()
	select {
	case s.sem <- struct{}{}:
		tr.Span(obs.KindQueue, admitStart, 1, 0, 0)
	case <-ctx.Done():
		return sess.WriteErr(fmt.Errorf("server: no admission slot within deadline: %w", ctx.Err()))
	case <-s.Closing():
		return sess.WriteErr(errors.New("server: shutting down"))
	}

	rows := 0
	start := time.Now()
	execDur, qerr := v.ExecutePlainCtx(ctx, q, func(t value.Tuple) error {
		if err := sess.WriteRow(t, false); err != nil {
			return err
		}
		rows++
		return nil
	})
	<-s.sem
	if err := sess.Err(); err != nil {
		return err
	}
	rep := wire.Report{TotalTuples: rows, ExecLatency: execDur}
	if qerr != nil {
		if ctxErr := ctx.Err(); errors.Is(ctxErr, context.DeadlineExceeded) && errors.Is(qerr, ctxErr) {
			// Deadline truncation is the service contract, not a failure:
			// the rows delivered stand, flagged.
			rep.DeadlineExpired = true
		} else {
			return sess.WriteErr(qerr)
		}
	}
	s.metrics.Queries.Add(1)
	s.metrics.Rows.Add(int64(rows))
	if rep.DeadlineExpired {
		s.metrics.DeadlineExpired.Add(1)
	}
	s.metrics.ExecPhase.Observe(execDur)
	s.metrics.Total.Observe(time.Since(start))
	sess.Bill(tr, start, allocMark, rows)
	if err := sess.EmitSpans(tr); err != nil {
		return err
	}
	return sess.WriteFrame(wire.MsgDone, wire.EncodeReport(nil, rep))
}

// handleRefill caches router-observed O3 result tuples under their
// bcps, with the same epoch discipline as probes (a refill routed by a
// stale map could cache tuples on a shard that no longer owns them).
func (s *Server) handleRefill(sess *session.Session, payload []byte) error {
	req, err := wire.DecodeRefill(payload)
	if err != nil {
		return sess.WriteErr(err)
	}
	ok, err := s.checkEpoch(sess, req.Epoch)
	if err != nil || !ok {
		return err
	}
	v, found := s.db.ViewByName(req.View)
	if !found {
		return sess.WriteErr(fmt.Errorf("server: no view %q", req.View))
	}
	if req.BudgetNs > 0 && time.Duration(req.BudgetNs) <= time.Millisecond {
		// The router's deadline budget is effectively spent (it sends a
		// 1ns sentinel for an already-expired context): refill is free
		// best-effort work, so drop it rather than hold the session.
		return sess.WriteErr(errors.New("server: refill budget exhausted"))
	}
	tr := sess.Trace(req.View, -1)
	start := time.Now()
	cached, ferr := v.FillTuples(req.Tuples)
	if ferr != nil {
		return sess.WriteErr(ferr)
	}
	if tr != nil {
		tr.SpanCost(obs.KindRefill, start, int64(cached), 0, 0,
			obs.Cost{Rows: int64(len(req.Tuples)), Bytes: int64(len(payload)) + wire.FrameHeaderLen})
		s.metrics.TracesSampled.Add(1)
	}
	if err := sess.EmitSpans(tr); err != nil {
		return err
	}
	return sess.Reply(wire.RefillReply{Cached: cached})
}

// handleShardMap reads (empty payload) or installs the shard map. An
// install with an epoch below the current one is refused by answering
// with the newer installed map — the stale router sees the epoch in
// the reply and refreshes; regressing the epoch would reopen the very
// misrouting window epochs exist to close.
func (s *Server) handleShardMap(sess *session.Session, payload []byte) error {
	if len(payload) > 0 {
		var m wire.ShardMapReply
		if err := json.Unmarshal(payload, &m); err != nil {
			return sess.WriteErr(fmt.Errorf("server: bad shard map: %w", err))
		}
		if m.Epoch == 0 || len(m.Shards) == 0 || m.VNodes <= 0 {
			return sess.WriteErr(errors.New("server: shard map needs epoch, shards, and vnodes"))
		}
		s.shardMu.Lock()
		installed := false
		if m.Epoch >= s.shardMap.Epoch {
			s.shardMap = m
			installed = true
		}
		s.shardMu.Unlock()
		if installed && s.snap != nil {
			// Stamp future snapshots with the epoch the cluster just
			// taught us, so a reboot can tell fresh from stale.
			s.snap.SetEpoch(m.Epoch)
		}
	}
	s.shardMu.Lock()
	cur := s.shardMap
	s.shardMu.Unlock()
	return sess.Reply(cur)
}
