// maint.go implements the write half of the service: ΔR batches
// (MsgUpdate) and invalidation fan-ins (MsgInvalidate). With a write
// plane attached updates go through its ingest queue — group-commit
// batching, one view X-lock grab per batch, heavy/light-classified
// maintenance — and the reply carries the affected bcp keys so a
// router can fan the damage to sibling shards. Without a plane the
// server applies per statement: every op runs the same maint.ApplyOp
// directly against the engine with the views attached as observers,
// paying one change barrier and one maintenance pass per statement.
// That is the path a router's shards take unless they are given a
// plane. Either way a point statement finds its rows through an index
// led by its match column when the catalog has one (engine.EqSet).
package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pmv/internal/maint"
	"pmv/internal/obs"
	"pmv/internal/session"
	"pmv/internal/wire"
)

// SetMaint attaches the write plane (call before Start). Nil leaves
// the server on the per-statement path.
func (s *Server) SetMaint(p *maint.Plane) { s.maint = p }

// Maint returns the attached write plane (nil = per-statement mode).
func (s *Server) Maint() *maint.Plane { return s.maint }

// handleUpdate applies one ΔR batch. Partial failures follow the
// plane's contract: remaining ops still apply (the conduit is not
// transactional), and the first failure is reported as the request's
// error.
func (s *Server) handleUpdate(sess *session.Session, payload []byte) error {
	req, err := wire.DecodeUpdate(payload)
	if err != nil {
		return sess.WriteErr(err)
	}
	if len(req.Ops) == 0 {
		return sess.WriteErr(errors.New("server: empty update batch"))
	}
	tr := sess.Trace("update", -1)
	allocMark := tr.AllocMark()
	start := time.Now()
	var rep wire.UpdateReply
	if s.maint != nil {
		res, aerr := s.maint.Apply(obs.WithTrace(context.Background(), tr), req.Ops, req.Maint)
		if aerr != nil {
			return sess.WriteErr(aerr)
		}
		rep.Applied, rep.Rows = res.Applied, res.Rows
		if req.Maint {
			rep.Keys = make(map[string][][]byte, len(res.Keys))
			for vname, keys := range res.Keys {
				bs := make([][]byte, len(keys))
				for i, k := range keys {
					bs[i] = []byte(k)
				}
				rep.Keys[vname] = bs
			}
			rep.Wide = res.Wide
		}
	} else {
		var firstErr error
		for i := range req.Ops {
			n, oerr := maint.ApplyOp(context.Background(), s.db.Engine(), &req.Ops[i])
			if oerr != nil {
				if firstErr == nil {
					firstErr = oerr
				}
				continue
			}
			rep.Applied++
			rep.Rows += n
		}
		if firstErr != nil {
			return sess.WriteErr(firstErr)
		}
	}
	s.metrics.Updates.Add(1)
	s.metrics.UpdateOps.Add(int64(rep.Applied))
	s.metrics.UpdateRows.Add(int64(rep.Rows))
	if tr != nil {
		allocd := tr.AllocMark() - allocMark
		tr.SpanCost(obs.KindServe, start, int64(rep.Rows), 0, 0,
			obs.Cost{Rows: int64(rep.Rows), Bytes: int64(len(payload)) + wire.FrameHeaderLen, Allocs: allocd})
		s.metrics.TracesSampled.Add(1)
		s.metrics.CostAllocs.Add(allocd)
		s.metrics.CostFsyncs.Add(tr.Cost().Fsyncs)
	}
	if err := sess.EmitSpans(tr); err != nil {
		return err
	}
	return sess.Reply(rep)
}

// handleInvalidate bumps invalidation generations for a view. A
// nonzero epoch is validated against the installed shard map (the
// router's fan-out path); epoch 0 skips the check so a local operator
// can invalidate a standalone shard.
func (s *Server) handleInvalidate(sess *session.Session, payload []byte) error {
	req, err := wire.DecodeInvalidate(payload)
	if err != nil {
		return sess.WriteErr(err)
	}
	if req.Epoch != 0 {
		ok, err := s.checkEpoch(sess, req.Epoch)
		if err != nil || !ok {
			return err
		}
	}
	v, found := s.db.ViewByName(req.View)
	if !found {
		return sess.WriteErr(fmt.Errorf("server: no view %q", req.View))
	}
	s.metrics.Invalidations.Add(1)
	if req.All {
		v.BumpAllGen()
		return sess.Reply(wire.InvalidateReply{Wide: true})
	}
	n := v.BumpKeyGens(req.Keys)
	return sess.Reply(wire.InvalidateReply{Keys: n})
}

// maintStats renders the write plane's counters for the stats reply
// (nil when the plane is off).
func (s *Server) maintStats() *wire.MaintStats {
	if s.maint == nil {
		return nil
	}
	st := s.maint.Stats()
	return &st
}
