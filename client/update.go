package client

import (
	"context"
	"encoding/json"
	"fmt"

	"pmv/internal/obs"
	"pmv/internal/wire"
)

// Op re-exports wire.UpdateOp so client programs can build write
// batches without importing internal packages.
type Op = wire.UpdateOp

// Op kind constants, re-exported.
const (
	OpInsert = wire.OpInsert
	OpDelete = wire.OpDelete
	OpUpdate = wire.OpUpdate
)

// Insert builds an insert op.
func Insert(rel string, vals ...Value) Op {
	return Op{Kind: OpInsert, Rel: rel, Tuple: Tuple(vals)}
}

// Delete builds a delete op removing every tuple with col == val.
func Delete(rel, col string, val Value) Op {
	return Op{Kind: OpDelete, Rel: rel, Col: col, Val: val}
}

// Set builds an update op assigning setCol = setVal on every tuple
// with col == val.
func Set(rel, col string, val Value, setCol string, setVal Value) Op {
	return Op{Kind: OpUpdate, Rel: rel, Col: col, Val: val, SetCol: setCol, SetVal: setVal}
}

// Update ships a batch of DML ops to the server and waits until they
// are applied and the server's views maintained. With maint set the
// reply also names the bcps per view the server purged (a router's hot
// plane drops its replicas of them).
//
// Updates are NEVER transparently retried: a transport failure after
// the request was written leaves the batch's fate unknown, and
// re-sending could apply non-idempotent ops (inserts) twice. Callers
// that know their ops are idempotent (pure overwrites) may retry on
// ErrUnavailable themselves.
func (c *Client) Update(ctx context.Context, maint bool, ops ...Op) (wire.UpdateReply, error) {
	payload, err := wire.EncodeUpdate(wire.UpdateRequest{Maint: maint, Ops: ops})
	if err != nil {
		return wire.UpdateReply{}, err
	}
	typ, payload := wrapTraced(ctx, wire.MsgUpdate, payload)
	var out wire.UpdateReply
	err = c.roundTrip(ctx, typ, payload, nil, c.replyRecv(obs.FromContext(ctx), &out))
	return out, err
}

// Invalidate tells the server to bump invalidation generations for
// the given view keys (or the whole view with All set). It is
// idempotent — bumping a generation twice is harmless — so transport
// failures reconnect and retry transparently, like admin calls.
func (c *Client) Invalidate(ctx context.Context, req wire.InvalidateRequest) (wire.InvalidateReply, error) {
	payload, err := wire.EncodeInvalidate(req)
	if err != nil {
		return wire.InvalidateReply{}, err
	}
	var out wire.InvalidateReply
	err = c.admin(ctx, wire.MsgInvalidate, payload, &out)
	return out, err
}

// replyRecv returns the one recv callback for single-reply requests:
// it decodes one JSON MsgReply frame into out. A non-nil tr absorbs any
// MsgSpans frame piggybacked ahead of the reply.
func (c *Client) replyRecv(tr *obs.Trace, out any) func() error {
	return func() error {
		for {
			rtyp, body, err := wire.ReadFrame(c.br)
			if err != nil {
				return &transient{err}
			}
			switch rtyp {
			case wire.MsgSpans:
				c.absorbSpans(tr, body)
			case wire.MsgReply:
				return json.Unmarshal(body, out)
			case wire.MsgError:
				return fmt.Errorf("%w: %s", ErrRemote, body)
			case wire.MsgErrEpoch:
				cur, derr := wire.DecodeEpochErr(body)
				if derr != nil {
					return &transient{derr}
				}
				return &EpochError{Current: cur}
			default:
				return &transient{fmt.Errorf("client: unexpected frame 0x%02x", rtyp)}
			}
		}
	}
}
