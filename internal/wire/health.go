// health.go defines the tail-tolerance heartbeat frames: a router
// pings every shard on a fixed cadence so its phi-accrual failure
// detector has a signal even when the query workload goes quiet, and
// the pong carries the shard's installed shard-map epoch so a silently
// rebooted shard (epoch 0) is noticed before the next probe fails
// typed. The payloads are fixed-size and allocation-free to encode —
// the heartbeat loop must cost nothing measurable.
package wire

const (
	// MsgPing is a liveness probe (8-byte nonce payload). Any server
	// answers MsgPong immediately, before touching the engine, so the
	// round-trip time measures the session and scheduler, not the
	// workload.
	MsgPing byte = 0x18

	// MsgPong answers MsgPing: the echoed nonce followed by the
	// responder's installed shard-map epoch (0 = no map installed).
	MsgPong byte = 0x89
)

// EncodePing encodes a MsgPing payload into dst (appended).
func EncodePing(dst []byte, nonce uint64) []byte {
	e := enc{b: dst}
	e.u64(nonce)
	return e.b
}

// DecodePing parses a MsgPing payload.
func DecodePing(b []byte) (uint64, error) {
	d := &dec{msg: "ping", b: b}
	nonce := d.u64("nonce")
	return nonce, d.done()
}

// EncodePong encodes a MsgPong payload into dst (appended).
func EncodePong(dst []byte, nonce, epoch uint64) []byte {
	e := enc{b: dst}
	e.u64(nonce)
	e.u64(epoch)
	return e.b
}

// DecodePong parses a MsgPong payload.
func DecodePong(b []byte) (nonce, epoch uint64, err error) {
	d := &dec{msg: "pong", b: b}
	nonce, epoch = d.u64("nonce"), d.u64("epoch")
	return nonce, epoch, d.done()
}
