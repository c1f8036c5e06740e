// write.go is the cluster plane's write path. A ΔR batch arriving at
// the router (MsgUpdate) fans to every shard — each holds the full
// base data — with exactly one shard, the round-robined primary,
// asked to run maintenance and report the affected bcp keys. The ack
// to the writer requires every shard to have applied the batch; there
// is no write failover, because re-sending a batch whose fate is
// unknown could apply non-idempotent ops twice (writers that know
// their ops are idempotent retry on the typed error themselves).
//
// After the ack the router fans the primary's reported damage to the
// shards owning those keys as epoch-stamped MsgInvalidate frames,
// asynchronously. Delivery is best-effort with a ladder of
// degradations — retry once after re-teaching the shard map on
// MsgErrEpoch, then fall back to an epoch-less whole-view
// invalidation — and a rung that fails entirely only costs cache
// freshness on that shard: every shard also maintains its own views
// locally when it applies the batch, and the DS duplicate-multiset
// audit turns any surviving staleness into a loud query failure, not
// a silently wrong answer.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"pmv/client"
	"pmv/internal/obs"
	"pmv/internal/session"
	"pmv/internal/wire"
)

// handleUpdate fans one ΔR batch to every shard and acks when all
// have applied it.
func (r *Router) handleUpdate(sess *session.Session, payload []byte) error {
	req, err := wire.DecodeUpdate(payload)
	if err != nil {
		return sess.WriteErr(err)
	}
	if len(req.Ops) == 0 {
		return sess.WriteErr(errors.New("router: empty update batch"))
	}

	tr := sess.Trace("update", -1)
	allocMark := tr.AllocMark()
	start := time.Now()

	ctx, cancel := r.adminCtx()
	defer cancel()
	ctx = obs.WithTrace(ctx, tr)

	nShards := len(r.pools)
	primary := int(r.rr.Add(1)-1) % nShards

	type result struct {
		rep wire.UpdateReply
		err error
	}
	results := make([]result, nShards)
	var wg sync.WaitGroup
	for shard := range r.pools {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			sm := r.metrics.Shards[shard]
			sm.Updates.Add(1)
			c := r.pools[shard].get()
			rep, uerr := c.Update(ctx, shard == primary, req.Ops...)
			r.pools[shard].put(c, uerr == nil || errors.Is(uerr, client.ErrRemote))
			if uerr != nil {
				sm.UpdateFailures.Add(1)
			}
			results[shard] = result{rep, uerr}
		}(shard)
	}
	wg.Wait()
	for shard := range results {
		if uerr := results[shard].err; uerr != nil {
			r.metrics.UpdateFailures.Add(1)
			return sess.WriteErr(fmt.Errorf("router: update failed on shard %s: %w",
				r.cfg.Shards[shard], uerr))
		}
	}
	prim := results[primary].rep
	r.metrics.Updates.Add(1)
	r.metrics.UpdateOps.Add(int64(prim.Applied))
	r.metrics.UpdateRows.Add(int64(prim.Rows))
	if r.hot != nil {
		// Before the ack: drop router replicas for the damaged keys
		// synchronously (a post-ack read must never be answered from a
		// pre-write replica) and fan MsgHotInval for pushed keys to
		// every shard — replicas live everywhere, unlike owned entries.
		r.hot.invalidate(prim.Keys, prim.Wide)
	}
	r.spawnInvalidate(primary, prim.Keys, prim.Wide)
	if tr != nil {
		allocd := tr.AllocMark() - allocMark
		tr.SpanCost(obs.KindServe, start, int64(prim.Rows), 0, 0,
			obs.Cost{Rows: int64(prim.Rows), Allocs: allocd})
		r.metrics.TracesSampled.Add(1)
		r.metrics.CostAllocs.Add(allocd)
	}
	if err := sess.EmitSpans(tr); err != nil {
		return err
	}
	return sess.Reply(prim)
}

// spawnInvalidate fans the primary's reported damage to the shards
// owning the affected keys, asynchronously (the writer's ack already
// went out; invalidation is a freshness upgrade, not a correctness
// gate). The primary maintained its own cache and is skipped; -1 skips
// no shard. One goroutine per target shard; Shutdown waits for them.
func (r *Router) spawnInvalidate(primary int, keys map[string][][]byte, wide map[string]bool) {
	if len(keys) == 0 && len(wide) == 0 {
		return
	}
	select {
	case <-r.Closing():
		return
	default:
	}
	m := r.shardMap()
	start := time.Now()

	// Per-key damage grouped by owning shard (wide views are covered by
	// the whole-view fan below; their key lists would be redundant).
	perShard := make(map[int]map[string][]string)
	for view, ks := range keys {
		if wide[view] {
			continue
		}
		for _, k := range ks {
			owner := m.Owner(string(k))
			if owner == primary {
				continue // the primary maintained its own cache
			}
			if perShard[owner] == nil {
				perShard[owner] = make(map[string][]string)
			}
			perShard[owner][view] = append(perShard[owner][view], string(k))
		}
	}
	var wideViews []string
	for view, w := range wide {
		if w {
			wideViews = append(wideViews, view)
		}
	}

	for shard := range r.pools {
		if shard == primary {
			continue
		}
		var reqs []wire.InvalidateRequest
		for view, ks := range perShard[shard] {
			reqs = append(reqs, wire.InvalidateRequest{View: view, Epoch: m.Epoch(), Keys: ks})
		}
		for _, view := range wideViews {
			reqs = append(reqs, wire.InvalidateRequest{View: view, Epoch: m.Epoch(), All: true})
		}
		if len(reqs) == 0 {
			continue
		}
		r.invalWG.Add(1)
		go func(shard int, reqs []wire.InvalidateRequest) {
			defer r.invalWG.Done()
			ctx, cancel := context.WithTimeout(context.Background(), r.cfg.RefillTimeout)
			defer cancel()
			c := r.pools[shard].get()
			healthy := true
			for i := range reqs {
				if r.sendInval(ctx, c, shard, reqs[i], m) != nil {
					healthy = false
				}
			}
			r.pools[shard].put(c, healthy)
			r.metrics.FanoutLagNs.Add(int64(time.Since(start)))
		}(shard, reqs)
	}
}

// sendInval delivers one invalidation, descending the degradation
// ladder on failure: MsgErrEpoch re-teaches the shard map and retries
// once; any remaining failure degrades a per-key request to an
// epoch-less whole-view invalidation (always accepted if the shard is
// reachable at all). A rung that fails entirely is counted and left
// to the shard's own local maintenance plus the DS audit.
func (r *Router) sendInval(ctx context.Context, c *client.Client, shard int, req wire.InvalidateRequest, m *ShardMap) error {
	sm := r.metrics.Shards[shard]
	sm.InvalsSent.Add(1)
	r.metrics.FanoutSent.Add(1)
	_, err := c.Invalidate(ctx, req)
	if err == nil {
		return nil
	}
	if errors.Is(err, wire.ErrEpoch) && ctx.Err() == nil && r.installOn(shard, m) {
		r.metrics.FanoutRetries.Add(1)
		if _, err2 := c.Invalidate(ctx, req); err2 == nil {
			return nil
		}
	}
	if !req.All && ctx.Err() == nil {
		r.metrics.FanoutDegrades.Add(1)
		if _, derr := c.Invalidate(ctx, wire.InvalidateRequest{View: req.View, All: true}); derr == nil {
			return nil
		}
	}
	sm.InvalFailures.Add(1)
	r.metrics.FanoutFailures.Add(1)
	return err
}

// maintStats renders the router's fan-out counters in the write
// plane's stats shape (queue/batch fields stay zero — batching
// happens on the shards).
func (m *Metrics) maintStats() *wire.MaintStats {
	return &wire.MaintStats{
		FanoutSent:     m.FanoutSent.Load(),
		FanoutRetries:  m.FanoutRetries.Load(),
		FanoutDegrades: m.FanoutDegrades.Load(),
		FanoutFailures: m.FanoutFailures.Load(),
		FanoutLagNs:    m.FanoutLagNs.Load(),
	}
}
