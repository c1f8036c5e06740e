// hot.go implements the shard half of the frequency plane's wire
// surface: hot-entry replication pushes (MsgHotSet), hot-key replica
// invalidation (MsgHotInval), and presence-filter snapshot export
// (MsgFilter). Replication reuses the invalidation epoch discipline —
// a push or inval stamped with a stale shard-map epoch is rejected
// with MsgErrEpoch so a router reorganizing the ring cannot plant
// replicas on shards that left it.
package server

import (
	"fmt"

	"pmv/internal/session"
	"pmv/internal/value"
	"pmv/internal/wire"
)

// handleHotSet caches replica tuples for hot keys a router pushed.
func (s *Server) handleHotSet(sess *session.Session, payload []byte) error {
	req, err := wire.DecodeHotSet(payload)
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
	keys := make([]string, len(req.Keys))
	tuples := make([][]value.Tuple, len(req.Keys))
	for i, hk := range req.Keys {
		keys[i] = hk.Key
		tuples[i] = hk.Tuples
	}
	replicated, stale, cached, err := v.ApplyHotSet(req.Seq, keys, tuples)
	if err != nil {
		return sess.WriteErr(err)
	}
	return sess.Reply(wire.HotSetReply{Replicated: replicated, Stale: stale, Tuples: cached})
}

// handleHotInval raises hot floors and bumps invalidation generations
// for replicated keys a write just damaged.
func (s *Server) handleHotInval(sess *session.Session, payload []byte) error {
	req, err := wire.DecodeHotInval(payload)
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
	v.ApplyHotInval(req.Seq, req.Keys)
	return sess.Reply(wire.HotInvalReply{Keys: len(req.Keys)})
}

// handleFilter exports one view's presence-filter snapshot. A view
// running without the frequency plane answers with empty Bits — the
// router treats that as "suppress nothing".
func (s *Server) handleFilter(sess *session.Session, payload []byte) error {
	name, err := wire.DecodeFilterReq(payload)
	if err != nil {
		return sess.WriteErr(err)
	}
	v, found := s.db.ViewByName(name)
	if !found {
		return sess.WriteErr(fmt.Errorf("server: no view %q", name))
	}
	rep := wire.FilterReply{View: name}
	if bits, hashes, gen, keys, ok := v.FilterSnapshot(); ok {
		rep.Bits, rep.Hashes, rep.Gen, rep.Keys = bits, hashes, gen, keys
	}
	return sess.Reply(rep)
}

// freqStats sums the frequency-plane counters across views for the
// stats reply. Nil only when the plane is off entirely: a freq-enabled
// database with no views yet still reports (zero) counters, so
// operators and smoke tests can see the plane is armed before traffic.
func (s *Server) freqStats() *wire.FreqStats {
	var out wire.FreqStats
	any := s.db.FreqEnabled()
	for _, v := range s.db.Views() {
		f := v.Freq()
		if f == nil {
			continue
		}
		any = true
		st := v.Stats()
		out.ProbesSuppressed += st.ProbesSuppressed
		out.FilterPositives += st.FilterPositives
		out.FilterFalsePositives += st.FilterFalsePositives
		out.AdmitGateRejects += st.AdmitGateRejects
		out.HotSetKeys += st.HotSetKeys
		out.HotSetTuples += st.HotSetTuples
		out.HotInvalKeys += st.HotInvalKeys
		sk := f.Sketch.Stats()
		out.SketchTouches += sk.Touches
		out.SketchRotations += sk.Rotations
		if load := float64(sk.EpochLoad); load > out.SketchLoad {
			out.SketchLoad = load
		}
	}
	if !any {
		return nil
	}
	return &out
}
