// Command pmvrouter fronts a sharded pmv cluster.
//
// It speaks the same wire protocol as pmvd, so any client or tool that
// works against a single node works against a cluster unchanged. Each
// query is routed with the paper's protocol split across shards:
// Operation O1 runs in the router, Operation O2 probes fan out to the
// shards owning each condition part (partials stream to the client as
// they arrive), Operation O3 runs on one shard with failover, and the
// refill deltas fan back to the owners asynchronously. Shards are
// addressed through an epoch-stamped consistent-hash shard map that
// the router installs on every shard; a restarted shard answers with a
// typed epoch error and is re-taught the map automatically.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pmv/internal/cluster"
	"pmv/internal/obs"
)

func main() {
	var (
		addr     = flag.String("addr", ":7080", "listen address")
		shards   = flag.String("shards", "", "comma-separated shard addresses (required), e.g. host1:7070,host2:7070,host3:7070")
		epoch    = flag.Uint64("epoch", 1, "initial shard-map epoch (must be nonzero)")
		pool     = flag.Int("pool", 0, "max concurrently routed query executions (0 = GOMAXPROCS); excess load is shed to probes-only answers")
		deadline = flag.Duration("deadline", 0, "default per-query deadline for requests that carry none (0 = unbounded)")
		dialTO   = flag.Duration("dial-timeout", 2*time.Second, "per-shard dial timeout")
		refillTO = flag.Duration("refill-timeout", 2*time.Second, "budget for each asynchronous fan-out, refill or invalidation")
		drain    = flag.Duration("drain", 5*time.Second, "graceful-shutdown drain timeout before connections are force-closed")
		obsAddr  = flag.String("obs", "", "observability HTTP address (e.g. :9091) serving /metrics, /healthz and /debug/pprof; empty = off")
		maxConns = flag.Int("max-conns", 0, "max concurrently open client sessions (0 = unlimited)")
		idle     = flag.Duration("idle-timeout", 0, "reap client sessions idle between requests for this long (0 = never)")
		frameTO  = flag.Duration("frame-timeout", 30*time.Second, "max time for one request frame to finish arriving after its first byte (negative = off)")
		writeTO  = flag.Duration("write-timeout", 30*time.Second, "max time for each response write before the session is dropped (negative = off)")
		trace    = flag.Bool("trace", false, "sample every routed query into the trace store (pmvcli trace); togglable at runtime via pmvcli trace on|off")
		slow     = flag.Duration("slow", 0, "record routed queries at or above this duration in the slow ring (0 = off; degraded queries are recorded regardless)")

		tail       = flag.Bool("tail", false, "enable the tail-tolerance plane: per-shard health scoring, circuit breakers, heartbeats, and deadline-budget propagation")
		hedge      = flag.Bool("hedge", false, "enable hedged O2 probes (implies -tail): race a second probe against a slow shard, first wins")
		heartbeat  = flag.Duration("heartbeat", 0, "health heartbeat interval (0 = default 500ms; needs -tail)")
		brkCool    = flag.Duration("breaker-cooldown", 0, "first breaker open period before a half-open trial, doubling per re-trip (0 = default 500ms; needs -tail)")
		hedgeAfter = flag.Duration("hedge-max-delay", 0, "upper clamp on the adaptive hedge delay (0 = default 50ms; needs -hedge)")

		hot       = flag.Bool("hot", false, "frequency plane: track the hottest bcp keys per view, replicate their entries to every shard (MsgHotSet), answer hot probes from a router-side replica cache, and suppress provably-absent owner probes via shard presence-filter bitsets")
		hotK      = flag.Int("hot-k", 0, "per-view hot-set size (0 = default 8; needs -hot)")
		hotPush   = flag.Duration("hot-push", 0, "MsgHotSet replication interval (0 = default 1s; needs -hot)")
		hotFilter = flag.Duration("hot-filter", 0, "presence-filter snapshot refresh interval (0 = default 1s; needs -hot)")
	)
	flag.Parse()

	var shardList []string
	for _, s := range strings.Split(*shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
			shardList = append(shardList, s)
		}
	}
	if len(shardList) == 0 {
		fmt.Fprintln(os.Stderr, "pmvrouter: -shards is required (comma-separated shard addresses)")
		os.Exit(2)
	}

	r, err := cluster.NewRouter(cluster.Config{
		Shards:          shardList,
		Epoch:           *epoch,
		PoolSize:        *pool,
		DefaultDeadline: *deadline,
		DialTimeout:     *dialTO,
		RefillTimeout:   *refillTO,
		DrainTimeout:    *drain,
		MaxConns:        *maxConns,
		IdleTimeout:     *idle,
		FrameTimeout:    *frameTO,
		WriteTimeout:    *writeTO,
		Trace:           *trace,
		SlowThreshold:   *slow,

		TailTolerance:     *tail,
		Hedge:             *hedge,
		HeartbeatInterval: *heartbeat,
		BreakerCooldown:   *brkCool,
		HedgeMaxDelay:     *hedgeAfter,

		Hot:                   *hot,
		HotK:                  *hotK,
		HotPushInterval:       *hotPush,
		FilterRefreshInterval: *hotFilter,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmvrouter: %v\n", err)
		os.Exit(1)
	}
	if err := r.Start(*addr); err != nil {
		fmt.Fprintf(os.Stderr, "pmvrouter: listen %s: %v\n", *addr, err)
		os.Exit(1)
	}
	mode := ""
	if *hedge {
		mode = ", tail tolerance + hedged probes"
	} else if *tail {
		mode = ", tail tolerance"
	}
	if *hot {
		mode += ", hot replication"
	}
	log.Printf("pmvrouter: routing %d shards on %s (epoch=%d%s)", len(shardList), r.Addr(), *epoch, mode)

	if *obsAddr != "" {
		obsSrv, bound, err := obs.Serve(*obsAddr, r.WritePrometheus)
		if err != nil {
			r.Shutdown()
			fmt.Fprintf(os.Stderr, "pmvrouter: obs listen %s: %v\n", *obsAddr, err)
			os.Exit(1)
		}
		defer obsSrv.Close()
		log.Printf("pmvrouter: observability on http://%s (/metrics /healthz /debug/pprof)", bound)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	log.Printf("pmvrouter: %v, draining sessions", s)
	r.Shutdown()
	log.Printf("pmvrouter: stopped")
}
