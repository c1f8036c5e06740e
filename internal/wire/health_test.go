package wire

import (
	"testing"
)

func TestPingPongRoundTrip(t *testing.T) {
	for _, nonce := range []uint64{0, 1, 1 << 63} {
		got, err := DecodePing(EncodePing(nil, nonce))
		if err != nil || got != nonce {
			t.Fatalf("ping round trip for %d = %d, %v", nonce, got, err)
		}
	}
	for _, c := range []struct{ nonce, epoch uint64 }{
		{0, 0}, {7, 0}, {1 << 40, 99},
	} {
		n, e, err := DecodePong(EncodePong(nil, c.nonce, c.epoch))
		if err != nil || n != c.nonce || e != c.epoch {
			t.Fatalf("pong round trip for %+v = (%d, %d), %v", c, n, e, err)
		}
	}
	if _, err := DecodePing(nil); err == nil {
		t.Fatal("empty ping accepted")
	}
	if _, err := DecodePing(make([]byte, 9)); err == nil {
		t.Fatal("oversized ping accepted")
	}
	if _, _, err := DecodePong(make([]byte, 8)); err == nil {
		t.Fatal("short pong accepted")
	}
}

// TestPingEncodeZeroAlloc pins the heartbeat loop's cost: encoding into
// a reused buffer must not allocate.
func TestPingEncodeZeroAlloc(t *testing.T) {
	buf := make([]byte, 0, 16)
	allocs := testing.AllocsPerRun(100, func() {
		buf = EncodePing(buf[:0], 42)
		buf = EncodePong(buf[:0], 42, 7)
	})
	if allocs != 0 {
		t.Fatalf("ping/pong encode allocates %.1f times per run", allocs)
	}
}

func FuzzDecodePing(f *testing.F) {
	f.Add(EncodePing(nil, 42))
	f.Add(EncodePong(nil, 42, 7))
	f.Add([]byte{})
	type pong struct{ nonce, epoch uint64 }
	f.Fuzz(func(t *testing.T, data []byte) {
		canonical(t, "ping", data, DecodePing, func(n uint64) ([]byte, error) { return EncodePing(nil, n), nil })
		canonical(t, "pong", data, func(b []byte) (pong, error) {
			n, e, err := DecodePong(b)
			return pong{n, e}, err
		}, func(p pong) ([]byte, error) { return EncodePong(nil, p.nonce, p.epoch), nil })
	})
}
