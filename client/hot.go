// hot.go holds the frequency plane's cluster calls: hot-entry pushes
// and invalidations (the replication half) and presence-filter
// snapshot reads (the suppression half). Retry discipline:
//
//   - HotSet is idempotent at entry granularity — a shard never
//     appends to a populated entry and drops pushes at or below a
//     key's invalidation floor — so transport failures reconnect and
//     retry transparently.
//   - HotInval is idempotent — floors only rise and removing an
//     entry twice removes it once — so it retries the same way.
//   - Filter is a pure read.
package client

import (
	"context"

	"pmv/internal/wire"
)

// HotSet pushes replicated hot entries to a shard (MsgHotSet). The
// shard answers how many keys it replicated, how many it dropped as
// stale (at or below their invalidation floor), and how many tuples
// it cached.
func (c *Client) HotSet(ctx context.Context, req wire.HotSetRequest) (wire.HotSetReply, error) {
	payload, err := wire.EncodeHotSet(req)
	if err != nil {
		return wire.HotSetReply{}, err
	}
	var out wire.HotSetReply
	err = c.admin(ctx, wire.MsgHotSet, payload, &out)
	return out, err
}

// HotInval raises the invalidation floor for replicated hot keys on a
// shard and bumps their generations (MsgHotInval), so a stale replica
// dies everywhere the write plane's owner-directed invalidation does
// not reach.
func (c *Client) HotInval(ctx context.Context, req wire.HotInvalRequest) (wire.HotInvalReply, error) {
	payload, err := wire.EncodeHotInval(req)
	if err != nil {
		return wire.HotInvalReply{}, err
	}
	var out wire.HotInvalReply
	err = c.admin(ctx, wire.MsgHotInval, payload, &out)
	return out, err
}

// Filter fetches a view's presence-filter snapshot (MsgFilter): a
// plain bloom bitset a router holds read-only to suppress probes for
// provably-absent keys. Bits is empty when the shard runs without the
// frequency plane — suppress nothing.
func (c *Client) Filter(ctx context.Context, view string) (wire.FilterReply, error) {
	payload, err := wire.EncodeFilterReq(view)
	if err != nil {
		return wire.FilterReply{}, err
	}
	var out wire.FilterReply
	err = c.admin(ctx, wire.MsgFilter, payload, &out)
	return out, err
}
