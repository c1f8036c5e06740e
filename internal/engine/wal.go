package engine

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"pmv/internal/buffer"
	"pmv/internal/storage"
	"pmv/internal/value"
	"pmv/internal/wal"
)

// Write-ahead logging and crash recovery. When Options.EnableWAL is
// set, every heap change is logged before it can reach disk (the
// buffer pool's PreFlush hook syncs the log ahead of any page
// write-back), heap pages carry the sequence number of the last
// applied operation, and Open replays the log idempotently after an
// unclean shutdown, then rebuilds every secondary index from the heaps
// into a fresh file: one scan per relation, each index's entries sorted
// once and built bottom-up (catalog.RebuildIndexes, btree.Tree.Build).
//
// Durability granularity: with SyncEveryOp each statement is durable
// on return; otherwise records become durable at page write-back,
// checkpoint, or Close — a crash may lose the most recent statements
// but never corrupts (page stamps make replay exactly-once, and a torn
// log tail is trimmed). A multi-page statement (an update that moves
// its tuple) is logged as two records and is not atomic across a
// crash that separates them; single-page statements are.

func (e *Engine) walPath() string { return filepath.Join(e.dir, "wal.log") }

// initWAL opens the log, runs recovery if the previous shutdown was
// unclean, and installs the write-ahead hook.
func (e *Engine) initWAL() error {
	l, err := wal.OpenFS(e.mgr.FS(), e.walPath())
	if err != nil {
		return err
	}
	e.wal = l
	e.pool.PreFlush = l.Sync
	e.opSeq.Store(l.Base())

	if !l.Empty() {
		if err := e.recover(); err != nil {
			return fmt.Errorf("engine: recovery: %w", err)
		}
	}
	return nil
}

// recover replays the log through the heaps, rebuilds indexes, and
// checkpoints.
func (e *Engine) recover() error {
	maxSeq := e.opSeq.Load()
	applied, skipped := 0, 0
	err := e.wal.Replay(func(payload []byte) error {
		rec, err := wal.DecodeRecord(payload)
		if err != nil {
			// The frame CRC passed but the payload is malformed: the
			// log itself is corrupt, not merely torn.
			return fmt.Errorf("%w: wal record: %v", ErrCorrupt, err)
		}
		if rec.Seq > maxSeq {
			maxSeq = rec.Seq
		}
		r, err := e.cat.GetRelation(rec.Rel)
		if err != nil {
			return fmt.Errorf("replay %s: %w", rec.Rel, err)
		}
		var ok bool
		switch rec.Op {
		case wal.OpInsert:
			ok, err = r.Heap.ApplyInsert(rec.RID, rec.Tuple, rec.Seq)
		case wal.OpDelete:
			ok, err = r.Heap.ApplyDelete(rec.RID, rec.Seq)
		case wal.OpUpdate:
			ok, err = r.Heap.ApplyUpdate(rec.RID, rec.Tuple, rec.Seq)
		}
		if err != nil {
			return err
		}
		if ok {
			applied++
		} else {
			skipped++
		}
		return nil
	})
	if err != nil {
		if errors.Is(err, buffer.ErrCorruptPage) {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return err
	}
	e.opSeq.Store(maxSeq)
	if err := e.cat.RebuildIndexes(); err != nil {
		return err
	}
	e.recovered = applied
	return e.Checkpoint()
}

// Recovered returns how many log records the last Open had to apply
// (0 after a clean shutdown).
func (e *Engine) Recovered() int { return e.recovered }

// Checkpoint makes all logged effects durable and truncates the log.
// Writers are quiesced for the duration so no page is written while a
// statement is mutating it. The data files are fsynced between the
// page flush and the log truncation: FlushAll only reaches the page
// cache, and truncating the WAL first would discard the only durable
// copy of operations whose pages a crash could still lose.
func (e *Engine) Checkpoint() error {
	e.chkMu.Lock()
	defer e.chkMu.Unlock()
	if e.wal == nil {
		if err := e.pool.FlushAll(); err != nil {
			return err
		}
		return e.mgr.SyncAll()
	}
	if err := e.wal.Sync(); err != nil {
		return err
	}
	if err := e.pool.FlushAll(); err != nil {
		return err
	}
	if err := e.mgr.SyncAll(); err != nil {
		return err
	}
	return e.wal.Checkpoint(e.opSeq.Load())
}

// startCheckpointer runs Checkpoint on a fixed period until Close.
func (e *Engine) startCheckpointer(every time.Duration) {
	e.stopChk = make(chan struct{})
	e.chkWG.Add(1)
	go func() {
		defer e.chkWG.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-e.stopChk:
				return
			case <-t.C:
				// Close handles the final checkpoint; periodic failures
				// (e.g. during shutdown) are retried next tick.
				_ = e.Checkpoint()
			}
		}
	}()
}

// SyncWAL makes every operation logged so far durable — the write
// plane's group commit: with SyncEveryOp off, one call per batch buys
// each acked request per-statement durability at a fraction of the
// fsync count. A no-op without WAL, and when SyncEveryOp already made
// each statement durable on return.
func (e *Engine) SyncWAL() error {
	if e.wal == nil || e.opts.SyncEveryOp {
		return nil
	}
	return e.wal.Sync()
}

// logOp appends one record (and syncs when configured).
func (e *Engine) logOp(rec *wal.Record) error {
	if err := e.wal.Append(rec.Encode()); err != nil {
		return err
	}
	if e.opts.SyncEveryOp {
		return e.wal.Sync()
	}
	return nil
}

// walInsert performs a logged heap insert.
func (e *Engine) walInsert(rel string, h heapLike, t value.Tuple) (storage.RID, error) {
	seq := e.opSeq.Add(1)
	rid, err := h.InsertLSN(t, seq)
	if err != nil {
		return rid, err
	}
	return rid, e.logOp(&wal.Record{Seq: seq, Op: wal.OpInsert, Rel: rel, RID: rid, Tuple: t})
}

// walDelete performs a logged heap delete.
func (e *Engine) walDelete(rel string, h heapLike, rid storage.RID) error {
	seq := e.opSeq.Add(1)
	if err := h.DeleteLSN(rid, seq); err != nil {
		return err
	}
	return e.logOp(&wal.Record{Seq: seq, Op: wal.OpDelete, Rel: rel, RID: rid})
}

// walUpdate performs a logged heap update, returning the tuple's
// (possibly new) RID. In-place updates log one record; moves log a
// delete + insert pair.
func (e *Engine) walUpdate(rel string, h heapLike, rid storage.RID, t value.Tuple) (storage.RID, error) {
	seq := e.opSeq.Add(1)
	err := h.UpdateInPlaceLSN(rid, t, seq)
	if err == nil {
		return rid, e.logOp(&wal.Record{Seq: seq, Op: wal.OpUpdate, Rel: rel, RID: rid, Tuple: t})
	}
	if !errors.Is(err, storage.ErrPageFull) {
		return storage.RID{}, err
	}
	if err := h.DeleteLSN(rid, seq); err != nil {
		return storage.RID{}, err
	}
	if err := e.logOp(&wal.Record{Seq: seq, Op: wal.OpDelete, Rel: rel, RID: rid}); err != nil {
		return storage.RID{}, err
	}
	return e.walInsert(rel, h, t)
}

// heapLike is the heap surface the WAL paths need (satisfied by
// *heap.Heap; an interface keeps this file free of direct heap
// imports for tests).
type heapLike interface {
	InsertLSN(t value.Tuple, lsn uint64) (storage.RID, error)
	DeleteLSN(rid storage.RID, lsn uint64) error
	UpdateInPlaceLSN(rid storage.RID, t value.Tuple, lsn uint64) error
}
