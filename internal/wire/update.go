// update.go defines the write plane's wire surface: ΔR batches
// (MsgUpdate) and PMV invalidations (MsgInvalidate).
package wire

import "pmv/internal/value"

// Write-plane message types (requests continue the 0x12 sequence).
const (
	// MsgUpdate delivers a ΔR batch (UpdateRequest payload): inserts,
	// predicate deletes, and single-column updates over base relations.
	// Answered with a MsgReply UpdateReply once the batch is applied
	// and the receiver's views are maintained.
	MsgUpdate byte = 0x13
	// MsgInvalidate delivers a PMV invalidation (InvalidateRequest
	// payload): bump the named view's invalidation generation for a set
	// of bcp keys, or for the whole view (All). Idempotent — applying
	// the same invalidation twice only loses more cache, never
	// correctness — so callers retry it with admin rules. Answered with
	// a MsgReply InvalidateReply.
	MsgInvalidate byte = 0x14
)

// Update op kinds.
const (
	// OpInsert appends Tuple to Rel.
	OpInsert byte = 0
	// OpDelete removes every tuple of Rel whose Col equals Val.
	OpDelete byte = 1
	// OpUpdate sets SetCol to SetVal on every tuple of Rel whose Col
	// equals Val.
	OpUpdate byte = 2
)

// UpdateOp is one ΔR statement. The predicate form is deliberately
// narrow — equality on one column — so the frame stays compact and the
// shard side needs no expression evaluator; richer predicates belong
// to embedded use of the library.
type UpdateOp struct {
	Kind byte
	Rel  string
	// Tuple is the inserted row (OpInsert only).
	Tuple value.Tuple
	// Col/Val form the equality predicate (OpDelete, OpUpdate).
	Col string
	Val value.Value
	// SetCol/SetVal form the assignment (OpUpdate only).
	SetCol string
	SetVal value.Value
}

// UpdateRequest is the decoded MsgUpdate payload.
type UpdateRequest struct {
	// Maint asks the receiving shard for its damage report: the bcps
	// it purged (UpdateReply.Keys). A shard maintains its own cache
	// whether or not it is asked; a router asks one shard per batch.
	Maint bool
	Ops   []UpdateOp
}

// update request flag bits.
const updMaint byte = 1 << 0

// EncodeUpdate encodes an UpdateRequest as a MsgUpdate payload.
func EncodeUpdate(req UpdateRequest) ([]byte, error) {
	e := newEnc("update", 64)
	e.u8(bit(req.Maint, updMaint))
	e.count16(len(req.Ops), "ops")
	for i := range req.Ops {
		op := &req.Ops[i]
		e.u8(op.Kind)
		e.str(op.Rel, "relation")
		switch op.Kind {
		case OpInsert:
			e.tuple(op.Tuple)
		case OpDelete:
			e.str(op.Col, "predicate column")
			e.tuple(value.Tuple{op.Val})
		case OpUpdate:
			e.str(op.Col, "predicate column")
			e.str(op.SetCol, "assignment column")
			e.tuple(value.Tuple{op.Val, op.SetVal})
		default:
			e.fail("op kind", "unknown")
		}
	}
	return e.bytes()
}

// DecodeUpdate parses a MsgUpdate payload.
func DecodeUpdate(b []byte) (UpdateRequest, error) {
	d := &dec{msg: "update", b: b}
	req := UpdateRequest{Maint: d.flags(updMaint, "flags")&updMaint != 0}
	n := d.count16("op count")
	req.Ops = make([]UpdateOp, 0, prealloc(n))
	for i := 0; i < n && d.err == nil; i++ {
		op := UpdateOp{Kind: d.u8("op kind"), Rel: d.str("relation")}
		switch op.Kind {
		case OpInsert:
			op.Tuple = d.tuple(-1, "insert tuple")
		case OpDelete:
			op.Col = d.str("predicate column")
			if t := d.tuple(1, "predicate value"); t != nil {
				op.Val = t[0]
			}
		case OpUpdate:
			op.Col, op.SetCol = d.str("predicate column"), d.str("assignment column")
			if t := d.tuple(2, "predicate and assigned values"); t != nil {
				op.Val, op.SetVal = t[0], t[1]
			}
		default:
			d.fail("op kind", "unknown")
		}
		req.Ops = append(req.Ops, op)
	}
	return req, d.done()
}

// InvalidateRequest is the decoded MsgInvalidate payload.
type InvalidateRequest struct {
	View string
	// Epoch is the sender's shard-map epoch; a shard with a different
	// installed map answers MsgErrEpoch so the sender re-teaches it
	// first (a rebooted shard must learn the map before it can be
	// trusted to hold invalidations for the keys it owns).
	Epoch uint64
	// All bumps the whole view's invalidation generation — the
	// degradation step when per-key delivery failed.
	All  bool
	Keys []string
}

// invalidate request flag bits.
const invAll byte = 1 << 0

// EncodeInvalidate encodes an InvalidateRequest as a MsgInvalidate
// payload.
func EncodeInvalidate(req InvalidateRequest) ([]byte, error) {
	e := newEnc("invalidate", 64)
	e.u64(req.Epoch)
	e.u8(bit(req.All, invAll))
	e.str(req.View, "view")
	e.u32(uint32(len(req.Keys)))
	for _, k := range req.Keys {
		e.str(k, "bcp key")
	}
	return e.bytes()
}

// DecodeInvalidate parses a MsgInvalidate payload.
func DecodeInvalidate(b []byte) (InvalidateRequest, error) {
	d := &dec{msg: "invalidate", b: b}
	req := InvalidateRequest{Epoch: d.u64("epoch"), All: d.flags(invAll, "flags")&invAll != 0, View: d.str("view")}
	nk := int(d.u32("key count"))
	req.Keys = make([]string, 0, prealloc(nk))
	for i := 0; i < nk && d.err == nil; i++ {
		req.Keys = append(req.Keys, d.str("bcp key"))
	}
	return req, d.done()
}
