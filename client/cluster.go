// cluster.go holds the cluster-plane calls a router makes against
// shards: per-condition-part O2 probes, plain O3 execution over Ls′,
// refill deltas, and shard-map reads/installs. Retry discipline
// differs by call and is the point of this file:
//
//   - Probes and plain execution retry only while zero rows have been
//     streamed (the same exactly-once discipline as ExecutePartial).
//   - Refill is NEVER retried: it is free best-effort work, and a
//     retried delivery racing a concurrent one could double-cache
//     tuples and poison the DS multiset accounting downstream.
//   - Shard-map reads and installs retry freely (idempotent).
package client

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"pmv/internal/obs"
	"pmv/internal/value"
	"pmv/internal/wire"
)

// EpochError reports a probe or refill rejected because the shard's
// installed shard-map epoch does not match the request's. It matches
// errors.Is(err, wire.ErrEpoch); Current is the shard's epoch (0 = no
// map installed, e.g. a freshly restarted shard).
type EpochError struct {
	Current uint64
}

// Error formats the mismatch.
func (e *EpochError) Error() string {
	return fmt.Sprintf("client: stale shard map epoch (shard has %d)", e.Current)
}

// Is matches the wire.ErrEpoch sentinel.
func (e *EpochError) Is(target error) bool { return target == wire.ErrEpoch }

// ProbeParts runs Operation O2 on the shard for a batch of condition
// parts the caller computed, streaming each cached Ls′ tuple to fn.
// Transport failures retry only while zero rows have been delivered;
// a mid-stream death returns ErrInterrupted (already-delivered rows
// stand — they are genuine result tuples the caller has recorded in
// its DS multiset, so no retraction is ever needed).
//
// budget is the caller's remaining deadline budget: when positive it
// rides the request so the shard abandons probe work the caller has
// already given up on; zero adds no wire bytes.
func (c *Client) ProbeParts(ctx context.Context, view string, epoch uint64, parts []wire.ProbePart, budget time.Duration, fn func(Tuple) error) (Report, error) {
	payload, err := wire.EncodeProbe(wire.ProbeRequest{
		View: view, Epoch: epoch, Parts: parts, BudgetNs: budgetNs(budget),
	})
	if err != nil {
		return Report{}, err
	}
	return c.stream(ctx, wire.MsgProbeParts, payload, tuplesOnly(fn))
}

// ExecPlain executes the query plainly on the shard (Operation O3
// without probe or refill), streaming full Ls′ rows to fn. Same
// zero-rows retry discipline as ExecutePartial. A ctx deadline is
// forwarded as the query deadline.
func (c *Client) ExecPlain(ctx context.Context, view string, conds []Cond, fn func(Tuple) error) (Report, error) {
	payload, err := queryRequest(ctx, view, conds)
	if err != nil {
		return Report{}, err
	}
	return c.stream(ctx, wire.MsgExec, payload, tuplesOnly(fn))
}

// tuplesOnly adapts a tuple callback to stream's row callback.
func tuplesOnly(fn func(Tuple) error) func(Row) error {
	if fn == nil {
		return nil
	}
	return func(r Row) error { return fn(r.Tuple) }
}

// stream is the one row-stream receiver, for queries, probes and plain
// execution: MsgRow frames to fn (when non-nil), MsgDone closes with
// the report, MsgError and MsgErrEpoch come back typed with the
// session intact. It retries only while zero rows have been delivered;
// a later transport failure is an InterruptedError with the counts.
func (c *Client) stream(ctx context.Context, typ byte, payload []byte, fn func(Row) error) (Report, error) {
	tr := obs.FromContext(ctx)
	typ, payload = wrapTraced(ctx, typ, payload)
	var rep Report
	rows, partials := 0, 0
	streamBroken := false
	err := c.roundTrip(ctx, typ, payload,
		func() bool { return rows == 0 },
		func() error {
			for {
				rtyp, body, err := wire.ReadFrame(c.br)
				if err != nil {
					streamBroken = true
					return &transient{err}
				}
				switch rtyp {
				case wire.MsgSpans:
					c.absorbSpans(tr, body)
				case wire.MsgRow:
					t, partial, err := wire.DecodeRow(body)
					if err != nil {
						streamBroken = true
						return &transient{err}
					}
					rows++
					if partial {
						partials++
					}
					if fn != nil {
						if err := fn(Row{Tuple: t, Partial: partial}); err != nil {
							return err
						}
					}
				case wire.MsgDone:
					rep, err = wire.DecodeReport(body)
					if err != nil {
						streamBroken = true
						return &transient{err}
					}
					return nil
				case wire.MsgError:
					return fmt.Errorf("%w: %s", ErrRemote, body)
				case wire.MsgErrEpoch:
					cur, derr := wire.DecodeEpochErr(body)
					if derr != nil {
						streamBroken = true
						return &transient{derr}
					}
					return &EpochError{Current: cur}
				default:
					streamBroken = true
					return &transient{fmt.Errorf("client: unexpected frame 0x%02x in stream", rtyp)}
				}
			}
		})
	if err != nil && streamBroken && rows > 0 {
		c.interrupted.Add(1)
		return rep, &InterruptedError{
			Report: Report{TotalTuples: rows, PartialTuples: partials},
			Err:    err,
		}
	}
	return rep, err
}

// budgetNs clamps a deadline budget for the wire: negative and zero
// budgets both encode as "absent" (the caller either has no bound or
// should not have sent the request at all).
func budgetNs(budget time.Duration) uint64 {
	if budget <= 0 {
		return 0
	}
	return uint64(budget)
}

// Refill delivers Ls′ result tuples to the shard owning their bcps.
// It is never retried: refill is best-effort free work, and the shard
// side is idempotent at entry granularity, so dropping a delivery on a
// transport failure is always safe while re-sending one is not known
// to be. Returns how many tuples the shard cached. budget follows the
// ProbeParts contract.
func (c *Client) Refill(ctx context.Context, view string, epoch uint64, tuples []value.Tuple, budget time.Duration) (int, error) {
	payload, err := wire.EncodeRefill(wire.RefillRequest{
		View: view, Epoch: epoch, Tuples: tuples, BudgetNs: budgetNs(budget),
	})
	if err != nil {
		return 0, err
	}
	typ, payload := wrapTraced(ctx, wire.MsgRefill, payload)
	var out wire.RefillReply
	err = c.roundTrip(ctx, typ, payload, nil, c.replyRecv(obs.FromContext(ctx), &out)) // never retry
	return out.Cached, err
}

// ShardMap reads the shard's installed shard map (epoch 0 with no
// shards when none has been installed yet). Against a router it
// returns the authoritative map.
func (c *Client) ShardMap(ctx context.Context) (wire.ShardMapReply, error) {
	var out wire.ShardMapReply
	err := c.admin(ctx, wire.MsgShardMap, nil, &out)
	return out, err
}

// InstallShardMap installs m on the shard; subsequent probes and
// refills must carry m's epoch. Idempotent, retried like any admin
// call.
func (c *Client) InstallShardMap(ctx context.Context, m wire.ShardMapReply) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return err
	}
	var out wire.ShardMapReply
	if err := c.admin(ctx, wire.MsgShardMap, payload, &out); err != nil {
		return err
	}
	if out.Epoch != m.Epoch {
		return fmt.Errorf("client: shard map install answered epoch %d, want %d", out.Epoch, m.Epoch)
	}
	return nil
}

// Shards asks a router for its cluster status: shard map epoch plus
// per-shard health and view occupancy.
func (c *Client) Shards(ctx context.Context) (wire.ShardsReply, error) {
	var out wire.ShardsReply
	err := c.admin(ctx, wire.MsgShards, nil, &out)
	return out, err
}

// Forward performs an admin request and returns the raw JSON reply,
// for proxies (the router) that relay admin traffic without caring
// about its shape.
func (c *Client) Forward(ctx context.Context, typ byte, payload []byte) (json.RawMessage, error) {
	var out json.RawMessage
	err := c.admin(ctx, typ, payload, &out)
	return out, err
}
