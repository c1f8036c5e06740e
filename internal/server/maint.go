// maint.go implements the write half of the service: ΔR batches
// (MsgUpdate) and invalidation fan-ins (MsgInvalidate). With a write
// plane attached updates go through its ingest queue — group-commit
// batching, one view X-lock grab per batch, heavy/light-classified
// maintenance — and the reply carries the affected bcp keys so a
// router can fan the damage to sibling shards. Without a plane the
// server falls back to per-statement application: every op runs
// directly against the engine with the views attached as observers,
// paying one maintenance pass per statement (the baseline the write
// benchmark measures the plane against).
package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pmv/internal/maint"
	"pmv/internal/obs"
	"pmv/internal/session"
	"pmv/internal/value"
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
			n, oerr := s.applyDirect(&req.Ops[i])
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

// applyDirect runs one op straight against the engine — the
// per-statement baseline. The views are registered observers, so each
// statement triggers its own synchronous maintenance pass.
func (s *Server) applyDirect(op *wire.UpdateOp) (int, error) {
	eng := s.db.Engine()
	switch op.Kind {
	case wire.OpInsert:
		return 1, eng.Insert(op.Rel, op.Tuple)
	case wire.OpDelete:
		pred, err := s.eqPred(op.Rel, op.Col, op.Val)
		if err != nil {
			return 0, err
		}
		victims, err := eng.DeleteWhere(op.Rel, pred)
		return len(victims), err
	case wire.OpUpdate:
		pred, err := s.eqPred(op.Rel, op.Col, op.Val)
		if err != nil {
			return 0, err
		}
		r, err := eng.Catalog().GetRelation(op.Rel)
		if err != nil {
			return 0, err
		}
		si := r.Schema.ColIndex(op.SetCol)
		if si < 0 {
			return 0, fmt.Errorf("server: relation %q has no column %q", op.Rel, op.SetCol)
		}
		set := op.SetVal
		return eng.UpdateWhere(op.Rel, pred, func(t value.Tuple) value.Tuple {
			t[si] = set
			return t
		})
	default:
		return 0, fmt.Errorf("server: unknown update op kind %d", op.Kind)
	}
}

// eqPred builds the op's equality predicate over the relation's
// stored tuples.
func (s *Server) eqPred(rel, col string, val value.Value) (func(value.Tuple) bool, error) {
	r, err := s.db.Engine().Catalog().GetRelation(rel)
	if err != nil {
		return nil, err
	}
	ci := r.Schema.ColIndex(col)
	if ci < 0 {
		return nil, fmt.Errorf("server: relation %q has no column %q", rel, col)
	}
	return func(t value.Tuple) bool {
		return ci < len(t) && value.Compare(t[ci], val) == 0
	}, nil
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
