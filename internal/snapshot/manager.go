package snapshot

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pmv/internal/core"
	"pmv/internal/engine"
	"pmv/internal/value"
	"pmv/internal/vfs"
)

// FileName is the snapshot file inside the snapshot directory.
const FileName = "cache.pmvs"

// epochFile persists the last shard-map epoch installed on this
// shard, so a rebooting shard can tell whether its snapshot was
// written under the epoch the cluster last taught it.
const epochFile = "EPOCH"

// Source is the slice of a database the manager snapshots: pmv.DB
// satisfies it.
type Source interface {
	Views() []*core.View
	Engine() *engine.Engine
}

// Config configures a Manager.
type Config struct {
	// Dir is the snapshot directory (required; created if absent).
	Dir string
	// Source is the database being snapshotted (required).
	Source Source
	// FS intercepts snapshot I/O (nil = Source's engine FS, so fault
	// injection configured at Open covers snapshots too).
	FS vfs.FS
	// Interval is the background write period (0 = no background
	// writer; WriteNow/Close still snapshot on demand).
	Interval time.Duration
	// Pending reports whether a maintenance batch is in flight (nil =
	// never). While it returns true, snapshot writes are skipped: the
	// base data already carries the batch's WAL stamp, so a snapshot
	// cut before the views catch up would warm-boot entries the batch
	// invalidated. Skipping keeps the previous (pre-batch) snapshot on
	// disk, which the boot-time DataStamp check rejects — a restart in
	// the window cold-starts and replays, never serves stale warmth.
	Pending func() bool
	// Logf receives boot/validation outcomes (nil = silent).
	Logf func(format string, args ...any)
}

// ErrPending is returned by WriteNow when Config.Pending reported an
// in-flight maintenance batch and the write was skipped.
var ErrPending = errors.New("snapshot: skipped: maintenance batch pending")

// LoadResult reports one boot-time load.
type LoadResult struct {
	// Warm is true when snapshot entries were admitted.
	Warm bool
	// Reason explains a cold start ("no snapshot", "stale: ...",
	// "corrupt: ...") or summarizes a warm one.
	Reason string
	// Entries / Tuples count what was admitted.
	Entries, Tuples int
	// Rejected counts entries the views' own validation refused.
	Rejected int
}

// Stats is the manager's counter snapshot for observability.
type Stats struct {
	Epoch           uint64
	Writes          int64
	WriteErrors     int64
	LastWriteUnixNs int64
	LastWriteBytes  int64
	LastWriteDurNs  int64
	WarmEntries     int64
	WarmTuples      int64
	StaleRejects    int64
	CorruptRejects  int64
	PendingSkips    int64
	LastBoot        string
}

// Manager owns one shard's snapshot lifecycle: boot-time load, the
// periodic background writer, the graceful final snapshot on Close,
// and epoch persistence.
type Manager struct {
	fs       vfs.FS
	dir      string
	src      Source
	interval time.Duration
	pending  func() bool
	logf     func(string, ...any)

	epoch atomic.Uint64

	mu     sync.Mutex // serializes writes and Close
	closed bool
	stop   chan struct{}
	done   chan struct{}

	writes, writeErrs, pendingSkips                 atomic.Int64
	lastWriteUnixNs, lastWriteBytes, lastWriteDurNs atomic.Int64
	warmEntries, warmTuples                         atomic.Int64
	staleRejects, corruptRejects                    atomic.Int64
	lastBoot                                        atomic.Value // string
}

// NewManager builds a manager, creating Dir and restoring the
// persisted epoch. It does not load or write anything yet.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Dir == "" {
		return nil, errors.New("snapshot: Config.Dir is required")
	}
	if cfg.Source == nil {
		return nil, errors.New("snapshot: Config.Source is required")
	}
	fs := cfg.FS
	if fs == nil {
		fs = cfg.Source.Engine().FS()
	}
	if err := fs.MkdirAll(cfg.Dir); err != nil {
		return nil, err
	}
	m := &Manager{
		fs:       fs,
		dir:      cfg.Dir,
		src:      cfg.Source,
		interval: cfg.Interval,
		pending:  cfg.Pending,
		logf:     cfg.Logf,
	}
	if m.logf == nil {
		m.logf = func(string, ...any) {}
	}
	m.lastBoot.Store("never loaded")
	epoch, err := ReadEpochState(fs, cfg.Dir)
	if err != nil {
		return nil, err
	}
	m.epoch.Store(epoch)
	return m, nil
}

// Path returns the snapshot file path.
func (m *Manager) Path() string { return filepath.Join(m.dir, FileName) }

// Epoch returns the persisted shard-map epoch.
func (m *Manager) Epoch() uint64 { return m.epoch.Load() }

// SetEpoch records a newly installed shard-map epoch and persists it.
// Called from the server's shard-map install path; installs are rare,
// so the synchronous write is cheap.
func (m *Manager) SetEpoch(epoch uint64) {
	if m == nil || m.epoch.Load() == epoch {
		return
	}
	m.epoch.Store(epoch)
	if err := WriteEpochState(m.fs, m.dir, epoch); err != nil {
		m.logf("snapshot: persist epoch %d: %v", epoch, err)
	}
}

// ReadEpochState reads the persisted epoch in dir (absent = 0).
func ReadEpochState(fs vfs.FS, dir string) (uint64, error) {
	b, err := fs.ReadFile(filepath.Join(dir, epochFile))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	epoch, err := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("snapshot: parse epoch state: %w", err)
	}
	return epoch, nil
}

// WriteEpochState persists epoch in dir. Exported so the chaos
// harness can fabricate an epoch mismatch.
func WriteEpochState(fs vfs.FS, dir string, epoch uint64) error {
	return fs.WriteFile(filepath.Join(dir, epochFile), []byte(strconv.FormatUint(epoch, 10)+"\n"))
}

// layoutOf returns the Ls′ columns of a view's cached rows. It is a
// variable so a test can stand in for a build with another layout.
var layoutOf = (*core.View).SelectPlus

// stamps computes the booting/writing shard's current world.
func (m *Manager) stamps() Stamps {
	eng := m.src.Engine()
	views := m.src.Views()

	disc := fnv.New64a()
	rev := fnv.New64a()
	for _, v := range views {
		cfg := v.Config()
		fmt.Fprintf(disc, "%s\x00", cfg.Name)
		for i, ct := range cfg.Template.Conds {
			fmt.Fprintf(disc, "%d:%d:%s\x00", i, ct.Form, ct.Col)
			if divs := cfg.Dividers[i]; len(divs) > 0 {
				disc.Write(value.EncodeTuple(nil, value.Tuple(divs)))
			}
		}
		// The view revision covers everything that shapes cached
		// content: the template, the bounds, the policy, and the Ls′
		// columns a cached row holds — a build with another layout
		// must never load rows of the wrong width.
		tj, _ := json.Marshal(cfg.Template)
		fmt.Fprintf(rev, "%s\x00%s\x00%d\x00%d\x00%s\x00%v\x00", cfg.Name, tj,
			cfg.MaxEntries, cfg.TuplesPerBCP, cfg.Policy, layoutOf(v))
	}
	rels := eng.Catalog().Relations()
	fp := fnv.New64a()
	for _, r := range rels {
		sj, _ := json.Marshal(r.Schema)
		fmt.Fprintf(rev, "rel:%s\x00%s\x00%d\x00", r.Name, sj, len(r.Indexes))
		fmt.Fprintf(fp, "%s=%d\x00", r.Name, r.Heap.Count())
	}
	return Stamps{
		Epoch:       m.epoch.Load(),
		DiscGen:     disc.Sum64(),
		ViewRev:     rev.Sum64(),
		DataStamp:   eng.DataStamp(),
		Fingerprint: fp.Sum64(),
	}
}

// WriteNow snapshots every view and commits the file. Failures are
// counted and returned; the previous snapshot may be destroyed (a
// snapshot is a throwaway — the fallback is a cold start, never a
// wrong answer).
func (m *Manager) WriteNow() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.writeLocked()
}

func (m *Manager) writeLocked() error {
	if m.pending != nil && m.pending() {
		m.pendingSkips.Add(1)
		return ErrPending
	}
	start := time.Now()
	snap := &Snapshot{Stamps: m.stamps(), WrittenUnixNs: start.UnixNano()}
	for _, v := range m.src.Views() {
		vs := ViewSnap{Name: v.Name()}
		err := v.SnapshotEntries(func(key string, accesses int64, tuples []value.Tuple) error {
			e := Entry{Key: key, Accesses: accesses, Tuples: make([]value.Tuple, len(tuples))}
			for i, t := range tuples {
				e.Tuples[i] = t.Clone()
			}
			vs.Entries = append(vs.Entries, e)
			return nil
		})
		if err != nil {
			m.writeErrs.Add(1)
			return err
		}
		snap.Views = append(snap.Views, vs)
	}
	img := Encode(snap)

	err := func() error {
		f, err := m.fs.OpenFile(m.Path())
		if err != nil {
			return err
		}
		if werr := WriteTo(f, img); werr != nil {
			f.Close()
			return werr
		}
		return f.Close()
	}()
	if err != nil {
		m.writeErrs.Add(1)
		return err
	}
	m.writes.Add(1)
	m.lastWriteUnixNs.Store(start.UnixNano())
	m.lastWriteBytes.Store(int64(len(img)))
	m.lastWriteDurNs.Store(int64(time.Since(start)))
	return nil
}

// Load validates the on-disk snapshot against the shard's current
// world and warm-admits its entries. Every rung of the validation
// ladder degrades to a cold start with a typed, logged reason — a
// snapshot can never make answers wrong, only restarts faster. Call
// once at boot, before serving.
func (m *Manager) Load() LoadResult {
	res := m.load()
	m.lastBoot.Store(res.Reason)
	if res.Warm {
		m.warmEntries.Store(int64(res.Entries))
		m.warmTuples.Store(int64(res.Tuples))
		m.logf("snapshot: warm boot: %s", res.Reason)
	} else {
		m.logf("snapshot: cold boot: %s", res.Reason)
	}
	return res
}

func (m *Manager) load() LoadResult {
	snap, _, err := Read(m.fs, m.Path())
	switch {
	case errors.Is(err, ErrAbsent) || errors.Is(err, os.ErrNotExist):
		return LoadResult{Reason: "no snapshot"}
	case errors.Is(err, ErrStale):
		m.staleRejects.Add(1)
		return LoadResult{Reason: err.Error()}
	case err != nil:
		// Read errors and structural damage land here: either way the
		// snapshot contributes nothing.
		m.corruptRejects.Add(1)
		if errors.Is(err, ErrCorrupt) {
			return LoadResult{Reason: err.Error()}
		}
		return LoadResult{Reason: fmt.Sprintf("%s: %v", ErrCorrupt.Error(), err)}
	}

	want := m.stamps()
	if reason := staleReason(snap.Stamps, want); reason != "" {
		m.staleRejects.Add(1)
		return LoadResult{Reason: fmt.Sprintf("%s: %s", ErrStale.Error(), reason)}
	}

	byName := make(map[string]*core.View)
	for _, v := range m.src.Views() {
		byName[v.Name()] = v
	}
	var res LoadResult
	for _, vs := range snap.Views {
		v, ok := byName[vs.Name]
		if !ok {
			// ViewRev matched, so this should be unreachable; treat a
			// ghost view as data to skip, not an error.
			res.Rejected += len(vs.Entries)
			continue
		}
		for _, e := range vs.Entries {
			n, err := v.WarmAdmit(e.Key, e.Accesses, e.Tuples)
			if err != nil {
				res.Rejected++
				m.logf("snapshot: view %s: reject entry: %v", vs.Name, err)
				continue
			}
			if n > 0 {
				res.Entries++
				res.Tuples += n
			}
		}
	}
	res.Warm = true
	res.Reason = fmt.Sprintf("warm: admitted %d entries (%d tuples), rejected %d, written %s ago",
		res.Entries, res.Tuples, res.Rejected,
		time.Since(time.Unix(0, snap.WrittenUnixNs)).Round(time.Millisecond))
	return res
}

// staleReason compares stamps, naming the first mismatch ("" = match).
func staleReason(got, want Stamps) string {
	switch {
	case got.Epoch != want.Epoch:
		return fmt.Sprintf("shard-map epoch %d, shard at %d", got.Epoch, want.Epoch)
	case got.DiscGen != want.DiscGen:
		return fmt.Sprintf("discretizer generation %016x, shard at %016x", got.DiscGen, want.DiscGen)
	case got.ViewRev != want.ViewRev:
		return fmt.Sprintf("view/catalog revision %016x, shard at %016x", got.ViewRev, want.ViewRev)
	case got.DataStamp != want.DataStamp:
		return fmt.Sprintf("data stamp %d, shard at %d", got.DataStamp, want.DataStamp)
	case got.Fingerprint != want.Fingerprint:
		return fmt.Sprintf("relation fingerprint %016x, shard at %016x", got.Fingerprint, want.Fingerprint)
	}
	return ""
}

// Start launches the background writer (no-op without an interval).
func (m *Manager) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.interval <= 0 || m.stop != nil || m.closed {
		return
	}
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	go m.run(m.stop, m.done)
}

func (m *Manager) run(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(m.interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if err := m.WriteNow(); err != nil {
				m.logf("snapshot: periodic write: %v", err)
			}
		}
	}
}

// Close stops the background writer and commits a final snapshot — the
// graceful-drain path, called after the server has stopped accepting
// queries and before the database closes.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	stop, done := m.stop, m.done
	m.stop, m.done = nil, nil
	m.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.writeLocked()
}

// Stats snapshots the manager's counters.
func (m *Manager) Stats() Stats {
	if m == nil {
		return Stats{}
	}
	return Stats{
		Epoch:           m.epoch.Load(),
		Writes:          m.writes.Load(),
		WriteErrors:     m.writeErrs.Load(),
		LastWriteUnixNs: m.lastWriteUnixNs.Load(),
		LastWriteBytes:  m.lastWriteBytes.Load(),
		LastWriteDurNs:  m.lastWriteDurNs.Load(),
		WarmEntries:     m.warmEntries.Load(),
		WarmTuples:      m.warmTuples.Load(),
		StaleRejects:    m.staleRejects.Load(),
		CorruptRejects:  m.corruptRejects.Load(),
		PendingSkips:    m.pendingSkips.Load(),
		LastBoot:        m.lastBoot.Load().(string),
	}
}

// AgeSeconds reports the last successful write's age (-1 = never).
func (m *Manager) AgeSeconds() float64 {
	ns := m.lastWriteUnixNs.Load()
	if ns == 0 {
		return -1
	}
	return time.Since(time.Unix(0, ns)).Seconds()
}

// SortViews orders a snapshot's views by name (Encode input is
// expected sorted; Source.Views already is).
func SortViews(s *Snapshot) {
	sort.Slice(s.Views, func(i, j int) bool { return s.Views[i].Name < s.Views[j].Name })
}
