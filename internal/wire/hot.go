// hot.go defines the frequency-plane wire surface: hot-entry
// replication pushes (MsgHotSet), hot-key invalidation fan-out
// (MsgHotInval), and presence-filter snapshot fetch (MsgFilter).
// MsgFilter answers with a JSON FilterReply inside MsgReply like the
// other admin commands.
//
// Ordering contract: every HotSet/HotInval a router emits for a view
// carries a strictly increasing Seq. A shard records the highest
// invalidation Seq per key as a floor and drops any HotSet at or
// below it, so a push racing an invalidation can never resurrect a
// stale replica. Staleness beyond that degrades to a flagged
// owner-probe via invalidation generations — never a wrong answer.
package wire

import "pmv/internal/value"

// Frequency-plane message types (requests continue the 0x18 sequence).
const (
	// MsgHotSet pushes replica tuples for the hottest bcp keys from the
	// router to every shard (HotSetRequest payload). Answered with a
	// MsgReply HotSetReply.
	MsgHotSet byte = 0x19
	// MsgHotInval invalidates hot-key replicas on every shard after a
	// write touched their bcps (HotInvalRequest payload). Answered with
	// a MsgReply HotInvalReply.
	MsgHotInval byte = 0x1a
	// MsgFilter reads a view's presence-filter snapshot (payload: view
	// name, u16 length prefix). Answered with a MsgReply FilterReply.
	MsgFilter byte = 0x1b
)

// HotKey is one replicated bcp key with its full cached tuple set.
type HotKey struct {
	Key    string
	Tuples []value.Tuple
}

// HotSetRequest is the decoded MsgHotSet payload: the router's
// current top-k hottest entries for one view, replicated to shards
// that do not own them so any shard can answer the probe.
type HotSetRequest struct {
	View  string
	Epoch uint64
	// Seq orders pushes against invalidations (see package doc).
	Seq  uint64
	Keys []HotKey
}

// EncodeHotSet encodes a HotSetRequest as a MsgHotSet payload.
func EncodeHotSet(req HotSetRequest) ([]byte, error) {
	e := newEnc("hot set", 256)
	e.u64(req.Epoch)
	e.u64(req.Seq)
	e.str(req.View, "view")
	e.count16(len(req.Keys), "hot keys")
	for _, hk := range req.Keys {
		e.str(hk.Key, "bcp key")
		e.count16(len(hk.Tuples), "hot key tuples")
		for _, t := range hk.Tuples {
			e.tuple(t)
		}
	}
	return e.bytes()
}

// DecodeHotSet parses a MsgHotSet payload.
func DecodeHotSet(b []byte) (HotSetRequest, error) {
	d := &dec{msg: "hot set", b: b}
	req := HotSetRequest{Epoch: d.u64("epoch"), Seq: d.u64("seq"), View: d.str("view")}
	nk := d.count16("hot key count")
	req.Keys = make([]HotKey, 0, prealloc(nk))
	for i := 0; i < nk && d.err == nil; i++ {
		hk := HotKey{Key: d.str("bcp key")}
		nt := d.count16("hot key tuple count")
		hk.Tuples = make([]value.Tuple, 0, prealloc(nt))
		for j := 0; j < nt && d.err == nil; j++ {
			hk.Tuples = append(hk.Tuples, d.tuple(-1, "hot key tuple"))
		}
		req.Keys = append(req.Keys, hk)
	}
	return req, d.done()
}

// HotInvalRequest is the decoded MsgHotInval payload: bcp keys whose
// replicas every shard must invalidate after a write touched them.
type HotInvalRequest struct {
	View  string
	Epoch uint64
	// Seq orders this invalidation against pushes (see package doc).
	Seq  uint64
	Keys []string
}

// EncodeHotInval encodes a HotInvalRequest as a MsgHotInval payload.
func EncodeHotInval(req HotInvalRequest) ([]byte, error) {
	e := newEnc("hot inval", 128)
	e.u64(req.Epoch)
	e.u64(req.Seq)
	e.str(req.View, "view")
	e.count16(len(req.Keys), "keys")
	for _, k := range req.Keys {
		e.str(k, "bcp key")
	}
	return e.bytes()
}

// DecodeHotInval parses a MsgHotInval payload.
func DecodeHotInval(b []byte) (HotInvalRequest, error) {
	d := &dec{msg: "hot inval", b: b}
	req := HotInvalRequest{Epoch: d.u64("epoch"), Seq: d.u64("seq"), View: d.str("view")}
	nk := d.count16("key count")
	req.Keys = make([]string, 0, prealloc(nk))
	for i := 0; i < nk && d.err == nil; i++ {
		req.Keys = append(req.Keys, d.str("bcp key"))
	}
	return req, d.done()
}

// EncodeFilterReq encodes a MsgFilter payload (the view whose
// presence-filter snapshot is wanted).
func EncodeFilterReq(view string) ([]byte, error) {
	e := newEnc("filter request", 2+len(view))
	e.str(view, "view")
	return e.bytes()
}

// DecodeFilterReq parses a MsgFilter payload.
func DecodeFilterReq(b []byte) (string, error) {
	d := &dec{msg: "filter request", b: b}
	view := d.str("view")
	return view, d.done()
}
