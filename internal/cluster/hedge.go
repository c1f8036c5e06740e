// hedge.go races a second O2 probe against a shard that is sitting on
// the first one past its usual latency. Hedging is safe in this
// protocol for two reasons, one per layer:
//
//   - Between hedge and original, the arbiter below merges the two row
//     streams into their multiset maximum: a row is forwarded only
//     when its source has produced it more times than the merged
//     stream has emitted it. Whichever copy arrives first wins, per
//     row, under any interleaving — so the client and the DS multiset
//     see exactly one emission per cached tuple even when both probes
//     answer in full.
//   - Between the merged probe stream and O3, the DS multiset consumes
//     duplicates exactly as before; the arbiter guarantees DS is fed
//     the same multiset a lone probe would have fed it.
//
// The hedge goes to the same shard (only the bcp owner holds the
// cached partials — a different shard would legally answer "no rows"
// and the hedge would erase the partials it raced to save) but over a
// fresh session from the pool, which is what rescues probes stuck
// behind one sick connection or a dropped packet. A token budget caps
// hedge amplification: each primary probe earns hedgeRate tokens and a
// hedge spends one, so steady-state extra probe load is at most
// hedgeRate (5%).
package cluster

import (
	"context"
	"sync"
	"time"

	"pmv/client"
	"pmv/internal/value"
	"pmv/internal/wire"
)

const (
	// hedgeMinDelay floors the adaptive hedge delay: hedging a shard
	// faster than this buys nothing a retry would not.
	hedgeMinDelay = time.Millisecond
	// hedgeRate is the hedge-token income per primary probe: steady-
	// state hedge amplification is capped at 5% extra probes, in bursts
	// of at most hedgeBurst.
	hedgeRate = 0.05
	// hedgeBurst caps the hedge token bucket.
	hedgeBurst = 4.0
)

// hedgeBudget is the token bucket capping hedge amplification.
type hedgeBudget struct {
	mu     sync.Mutex
	tokens float64
	rate   float64 // earned per primary probe
	burst  float64 // bucket cap
}

func newHedgeBudget(rate, burst float64) *hedgeBudget {
	return &hedgeBudget{tokens: burst, rate: rate, burst: burst}
}

// earn credits one primary probe's worth of hedge allowance.
func (h *hedgeBudget) earn() {
	h.mu.Lock()
	if h.tokens += h.rate; h.tokens > h.burst {
		h.tokens = h.burst
	}
	h.mu.Unlock()
}

// tryTake spends one token if available.
func (h *hedgeBudget) tryTake() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.tokens < 1 {
		return false
	}
	h.tokens--
	return true
}

// hedgeDelay is how long to wait on shard's primary probe before
// racing a hedge: the shard's usual latency plus three deviations,
// clamped to the configured window. A shard with no samples yet gets
// the maximum delay (hedging blind wastes tokens).
func (tt *tailTolerance) hedgeDelay(shard int) time.Duration {
	h := tt.health[shard]
	if h.samples.Load() == 0 {
		return tt.cfg.HedgeMaxDelay
	}
	d := time.Duration(h.ewmaNs.Load() + 3*h.devNs.Load())
	if d < hedgeMinDelay {
		d = hedgeMinDelay
	}
	if d > tt.cfg.HedgeMaxDelay {
		d = tt.cfg.HedgeMaxDelay
	}
	return d
}

// hedgeArbiter merges the original and hedge row streams of one probe
// batch into their multiset maximum. counts is keyed by the encoded
// tuple; per-source arrival counts and the merged emission count
// implement "emit iff this source has now seen this row more times
// than the merge has emitted it".
type hedgeArbiter struct {
	mu     sync.Mutex
	counts map[string]*hedgeCount
	closed bool // the race is decided: the loser's late rows are dropped
}

type hedgeCount struct {
	perSource [2]int
	emitted   int
}

func newHedgeArbiter() *hedgeArbiter {
	return &hedgeArbiter{counts: make(map[string]*hedgeCount)}
}

// admitLocked records one row arrival from source and reports whether
// it is a first arrival (forward it) or a duplicate of the other
// stream's copy (drop it). Caller holds a.mu.
func (a *hedgeArbiter) admitLocked(source int, key string) bool {
	c := a.counts[key]
	if c == nil {
		c = &hedgeCount{}
		a.counts[key] = c
	}
	c.perSource[source]++
	if c.perSource[source] > c.emitted {
		c.emitted = c.perSource[source]
		return true
	}
	return false
}

// source wraps emit for one stream of the race. The lock is held
// across emit so that close is a fence: once it returns, no row of the
// canceled loser is in flight or can start — the loser may have probed
// a cache that a refill changed since the winner did, and a row it
// forwarded after the query moved on to O3 would reach the client
// outside DS and the partial count.
func (a *hedgeArbiter) source(i int, emit func(value.Tuple) error) func(value.Tuple) error {
	var keyBuf []byte // per-source goroutine; never shared
	return func(t value.Tuple) error {
		keyBuf = value.EncodeTuple(keyBuf[:0], t)
		a.mu.Lock()
		defer a.mu.Unlock()
		if a.closed || !a.admitLocked(i, string(keyBuf)) {
			return nil
		}
		return emit(t)
	}
}

// close ends the race: rows arriving from either source afterwards are
// dropped.
func (a *hedgeArbiter) close() {
	a.mu.Lock()
	a.closed = true
	a.mu.Unlock()
}

// probeResult is one arm's outcome in the race.
type probeResult struct {
	rep   client.Report
	err   error
	hedge bool
}

// hedgedProbeShard runs one shard's probe batch with hedging: the
// primary probe starts immediately; if it is still outstanding after
// the shard's adaptive hedge delay and the token budget allows, a
// hedge races it over another session. First successful completion
// wins and cancels the loser (whose connection the client closes
// promptly — see client attempt cancellation); if one arm fails, the
// other's result stands.
func (r *Router) hedgedProbeShard(ctx context.Context, shard int, view string, m *ShardMap, batch []wire.ProbePart, trial bool, emit func(value.Tuple) error) (client.Report, error) {
	tt := r.tt
	if tt == nil || tt.hedge == nil {
		return r.probeShard(ctx, shard, view, m, batch, trial, emit)
	}
	tt.hedge.earn()
	arb := newHedgeArbiter()
	defer arb.close()
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	results := make(chan probeResult, 2)
	go func() {
		rep, err := r.probeShard(pctx, shard, view, m, batch, trial, arb.source(0, emit))
		results <- probeResult{rep, err, false}
	}()

	timer := time.NewTimer(tt.hedgeDelay(shard))
	defer timer.Stop()
	var hcancel context.CancelFunc
	hedged := false
	outstanding := 1
	for {
		select {
		case <-timer.C:
			if !tt.hedge.tryTake() {
				r.metrics.HedgeDenied.Add(1)
				continue // timer is drained; only results remain
			}
			hedged = true
			outstanding++
			r.metrics.Shards[shard].HedgesSent.Add(1)
			var hctx context.Context
			hctx, hcancel = context.WithCancel(ctx)
			defer hcancel()
			go func() {
				rep, err := r.probeShard(hctx, shard, view, m, batch, false, arb.source(1, emit))
				results <- probeResult{rep, err, true}
			}()
		case res := <-results:
			if res.err == nil {
				// Winner: cancel the loser. Its goroutine finishes into
				// the buffered channel; the canceled client call returns
				// promptly because cancellation closes its connection.
				if res.hedge {
					r.metrics.Shards[shard].HedgeWins.Add(1)
					pcancel()
				} else if hedged {
					hcancel()
				}
				return res.rep, nil
			}
			outstanding--
			if !res.hedge && !hedged {
				// Primary failed hard before any hedge launched: fail the
				// shard the way an unhedged probe would. Hard-down shards
				// are the breaker's job, not worth a token.
				return res.rep, res.err
			}
			if outstanding == 0 {
				return res.rep, res.err
			}
			// One arm is dead; wait for the survivor.
		}
	}
}
