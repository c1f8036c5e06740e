package cluster_test

import (
	"net"
	"testing"
	"time"

	"pmv/internal/cluster"
	"pmv/internal/server"
	"pmv/internal/wire"
)

// TestSessionFailureAccounting runs the two stalled-peer shapes against
// both daemons: they share one session kernel, so a frame that stalls
// mid-arrival is a read timeout (not an idle reap) and a response
// abandoned to a peer that stopped reading is a write timeout (not a
// reset) whether the front door is a shard or the router.
func TestSessionFailureAccounting(t *testing.T) {
	const frameTO, writeTO = 100 * time.Millisecond, 200 * time.Millisecond

	db, _ := shardFixture(t)
	shard := server.New(db, shardConfig())
	if err := shard.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shard.Shutdown() })

	daemons := []struct {
		name  string
		start func(t *testing.T) (addr string, stats func() wire.ServerStats)
	}{
		{"server", func(t *testing.T) (string, func() wire.ServerStats) {
			cfg := shardConfig()
			cfg.FrameTimeout, cfg.WriteTimeout = frameTO, writeTO
			s := server.New(db, cfg)
			if err := s.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Shutdown() })
			return s.Addr().String(), s.Metrics().Snapshot
		}},
		{"router", func(t *testing.T) (string, func() wire.ServerStats) {
			r, err := cluster.NewRouter(cluster.Config{
				Shards:       []string{shard.Addr().String()},
				DrainTimeout: 2 * time.Second,
				FrameTimeout: frameTO,
				WriteTimeout: writeTO,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Shutdown() })
			return r.Addr().String(), r.Metrics().ServerStats
		}},
	}
	stalls := []struct {
		name  string
		stall func(t *testing.T, c net.Conn)
		count func(wire.ServerStats) int64
	}{
		{"slowloris", func(t *testing.T, c net.Conn) {
			// Start a frame and never finish it.
			if _, err := c.Write([]byte{0x00, 0x00}); err != nil {
				t.Fatal(err)
			}
		}, func(st wire.ServerStats) int64 { return st.ReadTimeouts }},
		{"write-stall", func(t *testing.T, c net.Conn) {
			// Pipeline far more reply bytes (~20 KB per peek of the whole
			// product relation) than the socket buffers hold, and read
			// none of them. The requests themselves are tiny; a write
			// error only means the daemon already gave up on us.
			c.(*net.TCPConn).SetReadBuffer(4 << 10)
			peek, err := wire.EncodePeek("product", 400)
			if err != nil {
				t.Fatal(err)
			}
			c.SetWriteDeadline(time.Now().Add(10 * time.Second))
			for i := 0; i < 2000; i++ {
				if wire.WriteFrame(c, wire.MsgPeek, peek) != nil {
					break
				}
			}
		}, func(st wire.ServerStats) int64 { return st.WriteTimeouts }},
	}

	for _, d := range daemons {
		for _, s := range stalls {
			t.Run(d.name+"/"+s.name, func(t *testing.T) {
				addr, stats := d.start(t)
				c, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				s.stall(t, c)

				deadline := time.Now().Add(20 * time.Second)
				for s.count(stats()) == 0 {
					if time.Now().After(deadline) {
						t.Fatalf("stall never timed out: %+v", stats())
					}
					time.Sleep(10 * time.Millisecond)
				}
				st := stats()
				if n := s.count(st); n != 1 {
					t.Fatalf("timeouts = %d, want 1", n)
				}
				if st.ReadTimeouts+st.WriteTimeouts != 1 || st.IdleReaped != 0 || st.SessionResets != 0 {
					t.Fatalf("stall misclassified: read=%d write=%d idle=%d resets=%d",
						st.ReadTimeouts, st.WriteTimeouts, st.IdleReaped, st.SessionResets)
				}
			})
		}
	}
}
