// write.go is the cluster plane's write path. A ΔR batch arriving at
// the router (MsgUpdate) fans to every shard — each holds the full
// base data — and the ack to the writer requires every shard to have
// applied it. Each shard also maintains its own views before it
// answers: its write plane purges the batch's victims while it holds
// the batch's X locks, and a shard without a plane purges per
// statement. So once the writer is acked no shard's cache holds a row
// the write removed, and the router sends no invalidations after a
// write. One shard, the round-robined primary, is asked for its damage
// report, which the router's hot plane uses to drop its replicas.
// There is no write failover, because re-sending a batch whose fate is
// unknown could apply non-idempotent ops twice (writers that know
// their ops are idempotent retry on the typed error themselves).
//
// What a shard's purge cannot see is a routed refill still on its way:
// O3 rows read before the write, sent to their owner after its purge.
// refillGate orders the two. The router's MsgInvalidate fan-out
// (spawnInvalidate) is left to recovery: a failed routed DS audit
// invalidates the bcps that served it.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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
	writeDone := r.gate.write()

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
	writeDone()
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
		// Before the ack: drop router replicas for the keys the primary
		// purged synchronously (a post-ack read must never be answered
		// from a pre-write replica) and fan MsgHotInval for pushed keys
		// to every shard — replicas live everywhere, unlike owned
		// entries.
		r.hot.invalidate(prim.Keys, prim.Wide)
	}
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

// spawnInvalidate invalidates keys of view on the shards owning them,
// asynchronously — the routed audit's repair, not a correctness gate.
// One goroutine per target shard; Shutdown waits for them.
func (r *Router) spawnInvalidate(view string, keys []string) {
	select {
	case <-r.Closing():
		return
	default:
	}
	m := r.shardMap()
	start := time.Now()
	perShard := make(map[int][]string)
	for _, k := range keys {
		owner := m.Owner(k)
		perShard[owner] = append(perShard[owner], k)
	}
	for shard, ks := range perShard {
		r.invalWG.Add(1)
		go func(shard int, req wire.InvalidateRequest) {
			defer r.invalWG.Done()
			ctx, cancel := context.WithTimeout(context.Background(), r.cfg.RefillTimeout)
			defer cancel()
			c := r.pools[shard].get()
			healthy := r.sendInval(ctx, c, shard, req, m) == nil
			r.pools[shard].put(c, healthy)
			r.metrics.FanoutLagNs.Add(int64(time.Since(start)))
		}(shard, wire.InvalidateRequest{View: view, Epoch: m.Epoch(), Keys: ks})
	}
}

// sendInval delivers one invalidation, descending the degradation
// ladder on failure: MsgErrEpoch re-teaches the shard map and retries
// once; any remaining failure degrades a per-key request to an
// epoch-less whole-view invalidation (always accepted if the shard is
// reachable at all). A rung that fails entirely is counted and left
// to the DS audit, which fails the next query on the entry again.
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

// maintStats renders the router's invalidation counters in the write
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

// refillGate orders routed refills against routed writes. A refill
// carries O3 rows read before it is sent; should a write purge their
// owner in between, the refill would cache rows the write removed. So
// a query may refill only if no routed write was in flight when its
// O3 began and none has started since, and a write waits for the
// refills already sent before it dispatches.
type refillGate struct {
	mu      sync.RWMutex // held shared by each refill until its reply
	writes  atomic.Int64 // routed writes started
	writing atomic.Int64 // routed writes in flight
}

// begin is called as a query's O3 starts. It returns the write count
// enter checks against, and false if a write is in flight.
func (g *refillGate) begin() (seq int64, ok bool) {
	seq = g.writes.Load()
	return seq, g.writing.Load() == 0
}

// enter is called before a refill is sent. It reports whether no write
// started since begin returned seq; if so, the caller holds the gate
// until the refill's reply and then calls g.mu.RUnlock.
func (g *refillGate) enter(seq int64) bool {
	g.mu.RLock()
	if g.writes.Load() != seq {
		g.mu.RUnlock()
		return false
	}
	return true
}

// write is called before a routed write dispatches. It waits for the
// refills already sent and returns the call that marks the write
// applied everywhere.
func (g *refillGate) write() (done func()) {
	g.writing.Add(1)
	g.writes.Add(1)
	//lint:ignore SA2001 the empty critical section waits out the refills holding the gate
	g.mu.Lock()
	g.mu.Unlock()
	return func() { g.writing.Add(-1) }
}
