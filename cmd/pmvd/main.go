// Command pmvd serves a pmv database over TCP.
//
// It speaks the length-prefixed binary protocol in internal/wire:
// query execution streams Operation O2 partial rows immediately (the
// partial-first contract), admin commands (stats, views, tables,
// schema, count, peek, analyze, checkpoint) answer with JSON. Load
// beyond -pool concurrent queries is not queued: excess queries are
// answered from the partial materialized view alone and flagged shed,
// so response time stays bounded under overload.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pmv"
	"pmv/internal/maint"
	"pmv/internal/obs"
	"pmv/internal/server"
	"pmv/internal/snapshot"
)

// pendingFn adapts the plane's gate for the snapshot manager (nil
// plane = never pending).
func pendingFn(p *maint.Plane) func() bool {
	if p == nil {
		return nil
	}
	return p.Pending
}

func main() {
	var (
		addr     = flag.String("addr", ":7070", "listen address")
		dir      = flag.String("dir", "pmvdata", "database directory")
		pool     = flag.Int("pool", 0, "max concurrent query executions (0 = GOMAXPROCS); excess load is shed to partial-only answers")
		deadline = flag.Duration("deadline", 0, "default per-query deadline for requests that carry none (0 = unbounded)")
		drain    = flag.Duration("drain", 5*time.Second, "graceful-shutdown drain timeout before connections are force-closed")
		buffers  = flag.Int("buffers", 0, "buffer pool pages (0 = default)")
		wal      = flag.Bool("wal", true, "enable write-ahead logging")
		obsAddr  = flag.String("obs", "", "observability HTTP address (e.g. :9090) serving /metrics, /healthz and /debug/pprof; empty = off")
		trace    = flag.Bool("trace", false, "start with per-query tracing enabled (togglable at runtime: pmvcli 'trace on|off')")
		slow     = flag.Duration("slow", 0, "slow-query log threshold; queries at or above it are recorded with their trace (0 = off)")
		maxConns = flag.Int("max-conns", 0, "max concurrently open sessions, distinct from -pool (0 = unlimited); excess connections get one error frame and are closed")
		idle     = flag.Duration("idle-timeout", 0, "reap sessions idle between requests for this long (0 = never)")
		frameTO  = flag.Duration("frame-timeout", 30*time.Second, "max time for one request frame to finish arriving after its first byte (slowloris guard; negative = off)")
		writeTO  = flag.Duration("write-timeout", 30*time.Second, "max time for each response write before the session is dropped (negative = off)")
		snapDir  = flag.String("snapshot-dir", "", "directory for PMV cache snapshots enabling warm restarts (empty = off); validated and loaded on boot, written every -snapshot-interval and once on graceful shutdown")
		snapInt  = flag.Duration("snapshot-interval", 30*time.Second, "period of the background cache snapshot writer (requires -snapshot-dir; 0 = only the final shutdown snapshot)")

		maintOn    = flag.Bool("maint", true, "batched deferred view maintenance for writes (off = synchronous per-statement maintenance)")
		maintBatch = flag.Int("maint-batch", 0, "max ops per maintenance batch; a batch takes what is queued up to this many, with no delay (0 = default 64)")
		maintQueue = flag.Int("maint-queue", 0, "bounded ingest queue depth; writers block when full (0 = default 1024)")

		freqOn     = flag.Bool("freq", false, "frequency plane: windowed popularity sketch gating cache admission, counting-bloom presence filter suppressing provably-absent O2 probes, and the shard half of hot-entry replication")
		freqWindow = flag.Duration("freq-window", 0, "popularity sketch epoch rotation period (0 = default 1s); an estimate covers one to two windows")
		freqAdmit  = flag.Uint("freq-admit", 0, "min windowed probe-frequency estimate before a key earns a cache entry (0 = default 2)")
	)
	flag.Parse()

	db, err := pmv.Open(*dir, pmv.Options{BufferPoolPages: *buffers, EnableWAL: *wal})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmvd: open %s: %v\n", *dir, err)
		os.Exit(1)
	}
	if *freqOn {
		db.EnableFreq(pmv.FreqConfig{
			Window:         *freqWindow,
			AdmitThreshold: uint32(*freqAdmit),
		})
	}

	var plane *maint.Plane
	if *maintOn {
		plane, err = maint.New(maint.Config{
			Source:     db,
			BatchSize:  *maintBatch,
			QueueDepth: *maintQueue,
			Logf:       log.Printf,
		})
		if err != nil {
			db.Close()
			fmt.Fprintf(os.Stderr, "pmvd: maintenance plane: %v\n", err)
			os.Exit(1)
		}
	}

	var snaps *snapshot.Manager
	if *snapDir != "" {
		snaps, err = snapshot.NewManager(snapshot.Config{
			Dir:      *snapDir,
			Source:   db,
			Interval: *snapInt,
			Pending:  pendingFn(plane),
			Logf:     log.Printf,
		})
		if err != nil {
			db.Close()
			fmt.Fprintf(os.Stderr, "pmvd: snapshots in %s: %v\n", *snapDir, err)
			os.Exit(1)
		}
		// Load before serving: warm entries are admitted through the
		// normal cache machinery; any mismatch degrades to cold start.
		snaps.Load()
		snaps.Start()
	}

	srv := server.New(db, server.Config{
		PoolSize:        *pool,
		DefaultDeadline: *deadline,
		DrainTimeout:    *drain,
		Trace:           *trace,
		SlowThreshold:   *slow,
		MaxConns:        *maxConns,
		IdleTimeout:     *idle,
		FrameTimeout:    *frameTO,
		WriteTimeout:    *writeTO,
	})
	srv.SetSnapshots(snaps)
	srv.SetMaint(plane)
	if err := srv.Start(*addr); err != nil {
		db.Close()
		fmt.Fprintf(os.Stderr, "pmvd: listen %s: %v\n", *addr, err)
		os.Exit(1)
	}
	log.Printf("pmvd: serving %s on %s (pool=%d deadline=%v)",
		*dir, srv.Addr(), srv.PoolSize(), *deadline)

	if *obsAddr != "" {
		obsSrv, bound, err := obs.Serve(*obsAddr, srv.WritePrometheus)
		if err != nil {
			srv.Shutdown()
			db.Close()
			fmt.Fprintf(os.Stderr, "pmvd: obs listen %s: %v\n", *obsAddr, err)
			os.Exit(1)
		}
		defer obsSrv.Close()
		log.Printf("pmvd: observability on http://%s (/metrics /healthz /debug/pprof)", bound)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	log.Printf("pmvd: %v, draining sessions", s)

	srv.Shutdown()
	if plane != nil {
		// Drain queued maintenance and re-attach per-statement observers
		// before the final snapshot, so the snapshot is cut with no
		// batch pending.
		if err := plane.Close(); err != nil {
			log.Printf("pmvd: maintenance drain: %v", err)
		}
	}
	if snaps != nil {
		// Final snapshot after the drain, while the database is still
		// open — the next boot starts warm.
		if err := snaps.Close(); err != nil {
			log.Printf("pmvd: final snapshot: %v", err)
		}
	}
	if err := db.Close(); err != nil {
		log.Printf("pmvd: close: %v", err)
		os.Exit(1)
	}
	log.Printf("pmvd: stopped")
}
