// update.go defines the write plane's wire surface: ΔR batches
// (MsgUpdate) and PMV invalidations (MsgInvalidate). Both
// follow the package's frame idiom — strict decoding with typed
// errors, prealloc caps on peer-supplied sizes, trailing-byte checks —
// because the write path crosses the same hostile network the query
// path does.
package wire

import (
	"encoding/binary"
	"fmt"

	"pmv/internal/value"
)

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
	if len(req.Ops) > 0xffff {
		return nil, fmt.Errorf("wire: too many update ops")
	}
	var fl byte
	if req.Maint {
		fl |= updMaint
	}
	b := make([]byte, 0, 64)
	b = append(b, fl)
	b = binary.BigEndian.AppendUint16(b, uint16(len(req.Ops)))
	for i := range req.Ops {
		op := &req.Ops[i]
		if len(op.Rel) > 0xffff || len(op.Col) > 0xffff || len(op.SetCol) > 0xffff {
			return nil, fmt.Errorf("wire: update op name too long")
		}
		b = append(b, op.Kind)
		b = binary.BigEndian.AppendUint16(b, uint16(len(op.Rel)))
		b = append(b, op.Rel...)
		switch op.Kind {
		case OpInsert:
			b = value.EncodeTuple(b, op.Tuple)
		case OpDelete:
			b = binary.BigEndian.AppendUint16(b, uint16(len(op.Col)))
			b = append(b, op.Col...)
			b = value.EncodeTuple(b, value.Tuple{op.Val})
		case OpUpdate:
			b = binary.BigEndian.AppendUint16(b, uint16(len(op.Col)))
			b = append(b, op.Col...)
			b = binary.BigEndian.AppendUint16(b, uint16(len(op.SetCol)))
			b = append(b, op.SetCol...)
			b = value.EncodeTuple(b, value.Tuple{op.Val, op.SetVal})
		default:
			return nil, fmt.Errorf("wire: unknown update op kind %d", op.Kind)
		}
	}
	if len(b)+1 > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	return b, nil
}

// DecodeUpdate parses a MsgUpdate payload.
func DecodeUpdate(b []byte) (UpdateRequest, error) {
	var req UpdateRequest
	if len(b) < 3 {
		return req, fmt.Errorf("wire: short update header")
	}
	fl := b[0]
	if fl&^updMaint != 0 {
		return req, fmt.Errorf("wire: unknown update flags 0x%02x", fl)
	}
	req.Maint = fl&updMaint != 0
	n := int(binary.BigEndian.Uint16(b[1:]))
	b = b[3:]
	req.Ops = make([]UpdateOp, 0, min(n, 1024))
	for i := 0; i < n; i++ {
		if len(b) < 3 {
			return req, fmt.Errorf("wire: truncated update op %d", i)
		}
		var op UpdateOp
		op.Kind = b[0]
		rl := int(binary.BigEndian.Uint16(b[1:]))
		b = b[3:]
		if len(b) < rl {
			return req, fmt.Errorf("wire: truncated update op %d relation", i)
		}
		op.Rel = string(b[:rl])
		b = b[rl:]
		switch op.Kind {
		case OpInsert:
			t, used, err := value.DecodeTuple(b)
			if err != nil {
				return req, fmt.Errorf("wire: update op %d tuple: %w", i, err)
			}
			op.Tuple = t
			b = b[used:]
		case OpDelete:
			col, rest, err := decodeName(b, "predicate column")
			if err != nil {
				return req, fmt.Errorf("wire: update op %d: %w", i, err)
			}
			b = rest
			t, used, err := value.DecodeTuple(b)
			if err != nil {
				return req, fmt.Errorf("wire: update op %d value: %w", i, err)
			}
			if len(t) != 1 {
				return req, fmt.Errorf("wire: update op %d carries %d predicate values", i, len(t))
			}
			op.Col, op.Val = col, t[0]
			b = b[used:]
		case OpUpdate:
			col, rest, err := decodeName(b, "predicate column")
			if err != nil {
				return req, fmt.Errorf("wire: update op %d: %w", i, err)
			}
			setCol, rest, err := decodeName(rest, "assignment column")
			if err != nil {
				return req, fmt.Errorf("wire: update op %d: %w", i, err)
			}
			b = rest
			t, used, err := value.DecodeTuple(b)
			if err != nil {
				return req, fmt.Errorf("wire: update op %d values: %w", i, err)
			}
			if len(t) != 2 {
				return req, fmt.Errorf("wire: update op %d carries %d values", i, len(t))
			}
			op.Col, op.Val, op.SetCol, op.SetVal = col, t[0], setCol, t[1]
			b = b[used:]
		default:
			return req, fmt.Errorf("wire: update op %d has unknown kind %d", i, op.Kind)
		}
		req.Ops = append(req.Ops, op)
	}
	if len(b) != 0 {
		return req, fmt.Errorf("wire: %d trailing bytes after update", len(b))
	}
	return req, nil
}

// decodeName parses one u16-length-prefixed string.
func decodeName(b []byte, what string) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("truncated %s length", what)
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, fmt.Errorf("truncated %s", what)
	}
	return string(b[:n]), b[n:], nil
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
	if len(req.View) > 0xffff {
		return nil, fmt.Errorf("wire: view name too long")
	}
	var fl byte
	if req.All {
		fl |= invAll
	}
	b := make([]byte, 0, 64)
	b = binary.BigEndian.AppendUint64(b, req.Epoch)
	b = append(b, fl)
	b = binary.BigEndian.AppendUint16(b, uint16(len(req.View)))
	b = append(b, req.View...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(req.Keys)))
	for _, k := range req.Keys {
		if len(k) > 0xffff {
			return nil, fmt.Errorf("wire: bcp key too long")
		}
		b = binary.BigEndian.AppendUint16(b, uint16(len(k)))
		b = append(b, k...)
	}
	if len(b)+1 > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	return b, nil
}

// DecodeInvalidate parses a MsgInvalidate payload.
func DecodeInvalidate(b []byte) (InvalidateRequest, error) {
	var req InvalidateRequest
	if len(b) < 15 {
		return req, fmt.Errorf("wire: short invalidate header")
	}
	req.Epoch = binary.BigEndian.Uint64(b)
	fl := b[8]
	if fl&^invAll != 0 {
		return req, fmt.Errorf("wire: unknown invalidate flags 0x%02x", fl)
	}
	req.All = fl&invAll != 0
	n := int(binary.BigEndian.Uint16(b[9:]))
	b = b[11:]
	if len(b) < n {
		return req, fmt.Errorf("wire: truncated view name")
	}
	req.View = string(b[:n])
	b = b[n:]
	if len(b) < 4 {
		return req, fmt.Errorf("wire: truncated key count")
	}
	nk := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	req.Keys = make([]string, 0, min(nk, 1024))
	for i := 0; i < nk; i++ {
		if len(b) < 2 {
			return req, fmt.Errorf("wire: truncated key %d length", i)
		}
		kl := int(binary.BigEndian.Uint16(b))
		b = b[2:]
		if len(b) < kl {
			return req, fmt.Errorf("wire: truncated key %d", i)
		}
		req.Keys = append(req.Keys, string(b[:kl]))
		b = b[kl:]
	}
	if len(b) != 0 {
		return req, fmt.Errorf("wire: %d trailing bytes after invalidate", len(b))
	}
	return req, nil
}
