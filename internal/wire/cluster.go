// cluster.go defines the wire surface of the sharded cluster plane:
// session version negotiation, per-condition-part O2 probes, plain O3
// execution over the expanded select list Ls′, refill deltas, and
// shard-map distribution.
package wire

import (
	"errors"

	"pmv/internal/expr"
	"pmv/internal/value"
)

// ProtocolVersion is the wire protocol generation this build speaks.
// Version 2 added the hello handshake and the cluster frames; version
// 3 added the observability plane (MsgTraced trace contexts, MsgSpans
// span piggybacks, MsgTraceGet/MsgFleet router commands); version 4
// added the tail-tolerance plane (MsgPing/MsgPong heartbeats and the
// optional deadline-budget tail on probe/refill payloads); version 5
// added the frequency plane (MsgHotSet/MsgHotInval replication frames
// and the MsgFilter snapshot command). Peers announcing any other
// version get MsgErrVersion and a closed session instead of a
// CRC/decode failure mid-stream — which is what gates the newer
// frames: an old peer never negotiates a session that could carry
// them.
const ProtocolVersion byte = 5

// Cluster-plane message types (requests continue the 0x0c sequence,
// responses the 0x84 one).
const (
	// MsgHello opens a session with the peer's protocol version (1-byte
	// payload). A matching server answers with a MsgReply HelloReply; a
	// mismatch earns MsgErrVersion and the session is closed.
	MsgHello byte = 0x0d
	// MsgProbeParts runs Operation O2 for a batch of externally-computed
	// condition parts (ProbeRequest payload). The response streams
	// MsgRow frames carrying full Ls′ tuples with RowPartial set,
	// closed by MsgDone.
	MsgProbeParts byte = 0x0e
	// MsgExec executes a query plainly over Ls′ — Operation O3 without
	// probe or refill (QueryRequest payload). The response streams
	// MsgRow frames (RowPartial clear) closed by MsgDone.
	MsgExec byte = 0x0f
	// MsgRefill delivers result tuples a router observed during O3 to
	// the shard owning their bcps (RefillRequest payload). Answered
	// with a MsgReply RefillReply.
	MsgRefill byte = 0x10
	// MsgShardMap reads (empty payload) or installs (JSON ShardMapReply
	// payload) the shard map a shard validates probe/refill epochs
	// against. Answered with the now-current MsgReply ShardMapReply.
	MsgShardMap byte = 0x11
	// MsgShards asks a router for its cluster status: the authoritative
	// shard map plus per-shard health and view occupancy (MsgReply
	// ShardsReply). Shards answer it with MsgError.
	MsgShards byte = 0x12

	// MsgErrVersion rejects a hello whose version the server does not
	// speak (1-byte payload: the server's version). The session is
	// closed after the frame.
	MsgErrVersion byte = 0x86
	// MsgErrEpoch rejects a probe/refill whose shard-map epoch does not
	// match the shard's installed one (u64 payload: the shard's current
	// epoch, 0 = no map installed). The session stays usable — the
	// caller refreshes its map and retries.
	MsgErrEpoch byte = 0x87
)

// ErrVersion marks a protocol-version mismatch discovered during the
// hello handshake. It is final: no amount of redialing the same binary
// pair will cure it.
var ErrVersion = errors.New("wire: protocol version mismatch")

// ErrEpoch marks a request routed with a stale (or missing) shard-map
// epoch. Callers refresh the shard's map and retry.
var ErrEpoch = errors.New("wire: stale shard map epoch")

// EncodeHello encodes a MsgHello payload.
func EncodeHello() []byte { return []byte{ProtocolVersion} }

// DecodeHello parses a MsgHello payload.
func DecodeHello(b []byte) (byte, error) { return decodeByte("hello", b) }

// EncodeVersionErr encodes a MsgErrVersion payload (the responder's
// own version).
func EncodeVersionErr(v byte) []byte { return []byte{v} }

// DecodeVersionErr parses a MsgErrVersion payload.
func DecodeVersionErr(b []byte) (byte, error) { return decodeByte("version-error", b) }

// decodeByte parses a one-byte payload.
func decodeByte(msg string, b []byte) (byte, error) {
	d := &dec{msg: msg, b: b}
	v := d.u8("version")
	return v, d.done()
}

// EncodeEpochErr encodes a MsgErrEpoch payload (the shard's installed
// epoch).
func EncodeEpochErr(epoch uint64) []byte {
	e := enc{}
	e.u64(epoch)
	return e.b
}

// DecodeEpochErr parses a MsgErrEpoch payload.
func DecodeEpochErr(b []byte) (uint64, error) {
	d := &dec{msg: "epoch-error", b: b}
	epoch := d.u64("epoch")
	return epoch, d.done()
}

// ProbePart is one condition part to probe on a shard: the encoded
// containing bcp key, whether the part equals its bcp, and — for
// non-exact parts — one single-component condition instance per
// template condition, used to re-check cached tuples.
type ProbePart struct {
	Key   string
	Exact bool
	Conds []expr.CondInstance
}

// ProbeRequest is the decoded MsgProbeParts payload.
type ProbeRequest struct {
	View  string
	Epoch uint64
	Parts []ProbePart
	// BudgetNs is the router's remaining deadline budget in
	// nanoseconds; 0 means unbounded. It rides as an optional 8-byte
	// tail on the payload — absent when zero, so a router with budget
	// propagation disabled produces byte-identical frames to older
	// builds.
	BudgetNs uint64
}

// probe part flag bits.
const partExact byte = 1 << 0

// EncodeProbe encodes a ProbeRequest as a MsgProbeParts payload.
func EncodeProbe(req ProbeRequest) ([]byte, error) {
	e := newEnc("probe", 64)
	e.u64(req.Epoch)
	e.str(req.View, "view")
	e.count16(len(req.Parts), "parts")
	for _, p := range req.Parts {
		e.str(p.Key, "bcp key")
		e.u8(bit(p.Exact, partExact))
		e.count16(len(p.Conds), "part conditions")
		for _, ci := range p.Conds {
			e.cond(ci)
		}
	}
	e.budget(req.BudgetNs)
	return e.bytes()
}

// DecodeProbe parses a MsgProbeParts payload.
func DecodeProbe(b []byte) (ProbeRequest, error) {
	d := &dec{msg: "probe", b: b}
	req := ProbeRequest{Epoch: d.u64("epoch"), View: d.str("view")}
	np := d.count16("part count")
	req.Parts = make([]ProbePart, 0, prealloc(np))
	for i := 0; i < np && d.err == nil; i++ {
		p := ProbePart{Key: d.str("bcp key"), Exact: d.flags(partExact, "part flags")&partExact != 0}
		nc := d.count16("part condition count")
		p.Conds = make([]expr.CondInstance, 0, prealloc(nc))
		for j := 0; j < nc && d.err == nil; j++ {
			p.Conds = append(p.Conds, d.cond())
		}
		req.Parts = append(req.Parts, p)
	}
	req.BudgetNs = d.budget()
	return req, d.done()
}

// RefillRequest is the decoded MsgRefill payload: Ls′ result tuples a
// router observed during Operation O3, bound for the shard that owns
// their bcps.
type RefillRequest struct {
	View   string
	Epoch  uint64
	Tuples []value.Tuple
	// BudgetNs mirrors ProbeRequest.BudgetNs: remaining router budget
	// in nanoseconds as an optional 8-byte tail, absent when zero.
	BudgetNs uint64
}

// EncodeRefill encodes a RefillRequest as a MsgRefill payload.
func EncodeRefill(req RefillRequest) ([]byte, error) {
	e := newEnc("refill", 64)
	e.u64(req.Epoch)
	e.str(req.View, "view")
	e.u32(uint32(len(req.Tuples)))
	for _, t := range req.Tuples {
		e.tuple(t)
	}
	e.budget(req.BudgetNs)
	return e.bytes()
}

// DecodeRefill parses a MsgRefill payload.
func DecodeRefill(b []byte) (RefillRequest, error) {
	d := &dec{msg: "refill", b: b}
	req := RefillRequest{Epoch: d.u64("epoch"), View: d.str("view")}
	nt := int(d.u32("tuple count"))
	req.Tuples = make([]value.Tuple, 0, prealloc(nt))
	for i := 0; i < nt && d.err == nil; i++ {
		req.Tuples = append(req.Tuples, d.tuple(-1, "tuple"))
	}
	req.BudgetNs = d.budget()
	return req, d.done()
}
