// health.go is the client side of the tail-tolerance heartbeat: one
// MsgPing round trip whose latency feeds the router's per-shard health
// scoring and whose pong carries the peer's installed shard-map epoch,
// so a silently rebooted shard (epoch 0) is noticed between queries.
package client

import (
	"context"
	"fmt"
	"time"

	"pmv/internal/wire"
)

// Ping measures one session round trip. It is never retried — a
// heartbeat exists to measure the connection it rode, and a silent
// redial-and-retry would report a healthy new session as the old one's
// latency. Returns the round-trip time and the peer's installed
// shard-map epoch (0 = none).
func (c *Client) Ping(ctx context.Context) (time.Duration, uint64, error) {
	nonce := c.pingNonce.Add(1)
	var buf [8]byte
	payload := wire.EncodePing(buf[:0], nonce)
	var epoch uint64
	start := time.Now()
	err := c.roundTrip(ctx, wire.MsgPing, payload,
		nil, // never retry
		func() error {
			typ, body, err := wire.ReadFrame(c.br)
			if err != nil {
				return &transient{err}
			}
			switch typ {
			case wire.MsgPong:
				n, e, derr := wire.DecodePong(body)
				if derr != nil {
					return &transient{derr}
				}
				if n != nonce {
					return &transient{fmt.Errorf("client: pong nonce %d, want %d", n, nonce)}
				}
				epoch = e
				return nil
			case wire.MsgError:
				return fmt.Errorf("%w: %s", ErrRemote, body)
			default:
				return &transient{fmt.Errorf("client: unexpected frame 0x%02x for ping", typ)}
			}
		})
	return time.Since(start), epoch, err
}
