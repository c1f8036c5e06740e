// Package torture is the crash-recovery torture harness: it drives a
// seeded random DML + ExecutePartial workload against a database whose
// every byte flows through a fault-injecting vfs, crashes it at a
// random failpoint (losing all unsynced state, exactly like a power
// cut under a volatile page cache), reopens it cleanly, and checks the
// recovered state against an oracle model plus the DESIGN.md Section 4
// invariants.
//
// Oracle semantics. The workload is single-threaded, so the acked
// operations form a total order. The WAL appends one record per
// operation in that order, a crash makes durable exactly some prefix
// of the synced bytes, and the buffer pool's PreFlush hook syncs the
// log before any page write-back — so the recovered logical state must
// equal the model state after some prefix K of the acked operations,
// possibly with the single in-flight (crashed) operation partially
// applied on top. With SyncEveryOp the ack itself implies durability,
// so K must cover every acked operation.
package torture

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pmv"
	"pmv/internal/storage"
	"pmv/internal/value"
	"pmv/internal/vfs"
)

// Options configures one torture run.
type Options struct {
	// Seed drives every random choice (workload and failpoint).
	Seed int64
	// Ops is how many DML/query operations the faulty phase attempts
	// (default 300; the crash usually fires before they finish).
	Ops int
	// SyncEveryOp makes each statement durable on return, switching
	// the oracle to strict acked-implies-durable checking.
	SyncEveryOp bool
	// Dir is the database directory (default: a fresh temp dir,
	// removed on success and kept for inspection on failure).
	Dir string
}

// CrashReport summarizes one crash-recovery run for the harness's logs.
type CrashReport struct {
	Seed        int64
	Crashed     bool // the failpoint fired before the workload ended
	AckedOps    int  // DML statements acknowledged before the crash
	PrefixK     int  // acked prefix the recovered state matched
	Recovered   int  // WAL records replayed on reopen
	Repairs     int64
	QueriesRun  int // healthy-phase queries verified against the model
	FaultyStats vfs.FaultStats
}

type itemState struct {
	grp, val int64
}

type op struct {
	kind string // "insert", "delete", "update"
	k    int64
	grp  int64 // post-state for insert/update
	val  int64
}

type runner struct {
	rng       *rand.Rand
	opts      Options
	seedState map[int64]itemState // durable state after the clean setup
	model     map[int64]itemState // state after every acked op
	acked     []op                // faulty-phase acked ops, in order
	pending   *op                 // the op whose statement hit the crash
	nextK     int64
	report    CrashReport
}

const (
	numGroups = 8
	viewName  = "pmv_torture"
)

func template() *pmv.Template {
	return pmv.NewTemplate("torture").
		From("items").
		Select("items.k", "items.val").
		WhereEq("items.grp").
		MustBuild()
}

// Run executes one full torture cycle: seed, crash, recover, verify.
// A nil error means every check passed.
func Run(opts Options) (CrashReport, error) {
	if opts.Ops <= 0 {
		opts.Ops = 300
	}
	cleanup := false
	if opts.Dir == "" {
		dir, err := os.MkdirTemp("", "pmv-torture")
		if err != nil {
			return CrashReport{}, err
		}
		opts.Dir = filepath.Join(dir, "db")
		cleanup = true
	}
	r := &runner{
		rng:    rand.New(rand.NewSource(opts.Seed)),
		opts:   opts,
		model:  make(map[int64]itemState),
		report: CrashReport{Seed: opts.Seed},
	}
	if err := r.seedPhase(); err != nil {
		return r.report, fmt.Errorf("seed %d: setup: %w", opts.Seed, err)
	}
	if err := r.faultyPhase(); err != nil {
		return r.report, fmt.Errorf("seed %d: faulty phase: %w", opts.Seed, err)
	}
	if err := r.recoveryPhase(); err != nil {
		return r.report, fmt.Errorf("seed %d: recovery: %w", opts.Seed, err)
	}
	if cleanup {
		os.RemoveAll(filepath.Dir(opts.Dir))
	}
	return r.report, nil
}

func (r *runner) dbOptions(fs pmv.FS) pmv.Options {
	return pmv.Options{
		BufferPoolPages: 64, // small pool forces write-backs mid-run
		EnableWAL:       true,
		SyncEveryOp:     r.opts.SyncEveryOp,
		LockTimeout:     2 * time.Second,
		FS:              fs,
	}
}

// seedPhase creates the schema, view definition, and initial rows over
// the real OS, then closes cleanly so the faulty phase starts from a
// consistent durable image.
func (r *runner) seedPhase() error {
	db, err := pmv.Open(r.opts.Dir, r.dbOptions(nil))
	if err != nil {
		return err
	}
	defer db.Close()
	if err := db.CreateRelation("items",
		pmv.Col("k", pmv.TypeInt),
		pmv.Col("grp", pmv.TypeInt),
		pmv.Col("val", pmv.TypeInt),
	); err != nil {
		return err
	}
	if err := db.CreateIndex("items", "grp"); err != nil {
		return err
	}
	if _, err := db.CreatePartialView(template(), pmv.ViewOptions{
		MaxEntries:   16,
		TuplesPerBCP: 4,
	}); err != nil {
		return err
	}
	for i := 0; i < 40; i++ {
		if err := r.applyInsert(db); err != nil {
			return err
		}
	}
	if err := db.Analyze(); err != nil {
		return err
	}
	// Everything above is durable once Close checkpoints; the faulty
	// phase's oracle replays from here.
	r.seedState = copyState(r.model)
	r.acked = r.acked[:0]
	r.report.AckedOps = 0
	return nil
}

// faultyPhase runs the random workload through the fault vfs until the
// scripted crash fires (or the op budget runs out).
func (r *runner) faultyPhase() error {
	inj := vfs.NewInjector(r.opts.Seed)
	// One hard crash at a uniformly random vfs-op count: sometimes
	// during open, sometimes inside a mid-run or closing checkpoint,
	// sometimes during ordinary appends. The range tracks how many vfs
	// ops a full run actually performs in each durability mode, so most
	// seeds crash somewhere interesting and a few complete untouched.
	limit := 80
	if r.opts.SyncEveryOp {
		limit = 500
	}
	inj.Add(vfs.Rule{Kind: vfs.FaultCrash, Op: vfs.OpAny, AfterOps: int64(1 + r.rng.Intn(limit))})
	fs := vfs.NewFaulty(vfs.OS(), inj)

	db, err := pmv.Open(r.opts.Dir, r.dbOptions(fs))
	if err != nil {
		if errors.Is(err, vfs.ErrCrashed) {
			r.report.Crashed = true
			r.report.FaultyStats = inj.Stats()
			return nil
		}
		return err
	}
	view, ok := db.ViewByName(viewName)
	if !ok {
		db.Close()
		return fmt.Errorf("view %s not recreated on open", viewName)
	}

	for i := 0; i < r.opts.Ops; i++ {
		var err error
		if i > 0 && i%25 == 0 {
			// Periodic checkpoints widen the crash surface to the flush
			// + sync + WAL-truncate windows, the hardest to get right.
			err = db.Checkpoint()
		} else {
			switch roll := r.rng.Intn(10); {
			case roll < 3:
				err = r.applyInsert(db)
			case roll < 5:
				err = r.applyDelete(db)
			case roll < 7:
				err = r.applyUpdate(db)
			default:
				err = r.verifyQuery(view, false)
				if err == nil {
					r.report.QueriesRun++
				}
			}
		}
		if err != nil {
			if errors.Is(err, vfs.ErrCrashed) {
				r.report.Crashed = true
				break
			}
			db.Close()
			return err
		}
	}
	// Close releases handles; after a crash its checkpoint fails — that
	// is expected. A crash can also first fire inside this final
	// checkpoint.
	if cerr := db.Close(); cerr != nil {
		if !errors.Is(cerr, vfs.ErrCrashed) {
			return cerr
		}
		r.report.Crashed = true
	}
	r.report.FaultyStats = inj.Stats()
	return nil
}

// recoveryPhase reopens over the real OS, checks the oracle, then
// exercises the recovered database (queries + more DML + invariants)
// and verifies once more after a clean close.
func (r *runner) recoveryPhase() error {
	db, err := pmv.Open(r.opts.Dir, r.dbOptions(nil))
	if err != nil {
		return fmt.Errorf("reopen after crash: %w", err)
	}
	r.report.Recovered = db.Engine().Recovered()
	r.report.Repairs = db.Engine().Stats().TornPageRepairs
	r.report.AckedOps = len(r.acked)

	state, err := scanItems(db)
	if err != nil {
		db.Close()
		return err
	}
	k, err := r.matchPrefix(state)
	if err != nil {
		db.Close()
		return err
	}
	r.report.PrefixK = k

	// Continue from the recovered state: the model restarts at prefix K
	// plus whatever the in-flight op left behind.
	r.model = r.stateAt(k)
	if p := r.pending; p != nil {
		if st, ok := state[p.k]; ok {
			r.model[p.k] = st
		} else {
			delete(r.model, p.k)
		}
	}
	r.seedState = copyState(r.model)
	r.acked = r.acked[:0]
	r.pending = nil

	view, ok := db.ViewByName(viewName)
	if !ok {
		db.Close()
		return fmt.Errorf("view %s lost across recovery", viewName)
	}
	for i := 0; i < 30; i++ {
		var err error
		switch r.rng.Intn(4) {
		case 0:
			err = r.applyInsert(db)
		case 1:
			err = r.applyDelete(db)
		case 2:
			err = r.applyUpdate(db)
		default:
			err = r.verifyQuery(view, true)
		}
		if err != nil {
			db.Close()
			return fmt.Errorf("post-recovery workload: %w", err)
		}
	}
	if err := view.CheckInvariants(); err != nil {
		db.Close()
		return err
	}
	if err := db.Close(); err != nil {
		return fmt.Errorf("clean close: %w", err)
	}

	// A clean close makes everything durable: the final reopen must
	// match the model exactly, with nothing to replay.
	db, err = pmv.Open(r.opts.Dir, r.dbOptions(nil))
	if err != nil {
		return fmt.Errorf("final reopen: %w", err)
	}
	defer db.Close()
	if n := db.Engine().Recovered(); n != 0 {
		return fmt.Errorf("recovery ran after a clean close (%d records)", n)
	}
	state, err = scanItems(db)
	if err != nil {
		return err
	}
	if err := equalStates(state, r.model); err != nil {
		return fmt.Errorf("state after clean close: %w", err)
	}
	return nil
}

// --- workload operations -------------------------------------------------

func (r *runner) randomVals() (grp, val int64) {
	return int64(r.rng.Intn(numGroups)), int64(r.rng.Intn(1000))
}

// begin records o as in-flight; ack moves it to the acked log and the
// model. An op that errors stays in-flight (possibly partially
// durable).
func (r *runner) begin(o op) { r.pending = &o }

func (r *runner) ack() {
	o := *r.pending
	r.pending = nil
	r.acked = append(r.acked, o)
	switch o.kind {
	case "insert", "update":
		r.model[o.k] = itemState{grp: o.grp, val: o.val}
	case "delete":
		delete(r.model, o.k)
	}
}

func (r *runner) applyInsert(db *pmv.DB) error {
	k := r.nextK
	r.nextK++
	grp, val := r.randomVals()
	r.begin(op{kind: "insert", k: k, grp: grp, val: val})
	if err := db.Insert("items", pmv.Int(k), pmv.Int(grp), pmv.Int(val)); err != nil {
		return err
	}
	r.ack()
	return nil
}

func (r *runner) pickKey() (int64, bool) {
	if len(r.model) == 0 {
		return 0, false
	}
	keys := make([]int64, 0, len(r.model))
	for k := range r.model {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys[r.rng.Intn(len(keys))], true
}

func (r *runner) applyDelete(db *pmv.DB) error {
	k, ok := r.pickKey()
	if !ok {
		return nil
	}
	r.begin(op{kind: "delete", k: k})
	if _, err := db.Delete("items", func(t pmv.Tuple) bool { return t[0].Int64() == k }); err != nil {
		return err
	}
	r.ack()
	return nil
}

func (r *runner) applyUpdate(db *pmv.DB) error {
	k, ok := r.pickKey()
	if !ok {
		return nil
	}
	grp, val := r.randomVals()
	r.begin(op{kind: "update", k: k, grp: grp, val: val})
	_, err := db.Update("items",
		func(t pmv.Tuple) bool { return t[0].Int64() == k },
		func(t pmv.Tuple) pmv.Tuple {
			return pmv.Tuple{t[0], pmv.Int(grp), pmv.Int(val)}
		})
	if err != nil {
		return err
	}
	r.ack()
	return nil
}

// verifyQuery runs ExecutePartial for a random group and checks the
// delivered multiset against the model (invariants 1 and 4: exactly
// once, and never a stale positive). strict additionally requires a
// healthy (non-degraded) answer, which an uncontended database must
// produce.
func (r *runner) verifyQuery(view *pmv.View, strict bool) error {
	grp := int64(r.rng.Intn(numGroups))
	q := pmv.NewQuery(template()).In(0, pmv.Int(grp)).Query()
	got := make(map[string]int)
	rep, err := view.ExecutePartial(q, func(res pmv.Result) error {
		got[fmt.Sprintf("%d|%d", res.Tuple[0].Int64(), res.Tuple[1].Int64())]++
		return nil
	})
	if err != nil {
		return err
	}
	if strict && rep.Degraded {
		return fmt.Errorf("query degraded with no lock contention")
	}
	want := make(map[string]int)
	for k, st := range r.model {
		if st.grp == grp {
			want[fmt.Sprintf("%d|%d", k, st.val)]++
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("group %d: got %d distinct tuples, want %d", grp, len(got), len(want))
	}
	for key, n := range want {
		if got[key] != n {
			return fmt.Errorf("group %d: tuple %s delivered %d times, want %d", grp, key, got[key], n)
		}
	}
	return nil
}

// --- oracle --------------------------------------------------------------

// scanItems reads the base relation's heap directly.
func scanItems(db *pmv.DB) (map[int64]itemState, error) {
	rel, err := db.Engine().Catalog().GetRelation("items")
	if err != nil {
		return nil, err
	}
	state := make(map[int64]itemState)
	err = rel.Heap.Scan(func(_ storage.RID, t value.Tuple) error {
		k := t[0].Int64()
		if _, dup := state[k]; dup {
			return fmt.Errorf("duplicate key %d in recovered heap", k)
		}
		state[k] = itemState{grp: t[1].Int64(), val: t[2].Int64()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return state, nil
}

func copyState(m map[int64]itemState) map[int64]itemState {
	out := make(map[int64]itemState, len(m))
	for k, st := range m {
		out[k] = st
	}
	return out
}

// stateAt replays the acked log's first k ops over the seed state.
func (r *runner) stateAt(k int) map[int64]itemState {
	state := copyState(r.seedState)
	for _, o := range r.acked[:k] {
		switch o.kind {
		case "insert", "update":
			state[o.k] = itemState{grp: o.grp, val: o.val}
		case "delete":
			delete(state, o.k)
		}
	}
	return state
}

// matchPrefix finds the acked prefix K the recovered state matches,
// tolerating the in-flight op's key in any of its before/after/absent
// states when K covers every acked op. With SyncEveryOp only the full
// prefix is admissible (acked means durable).
func (r *runner) matchPrefix(recovered map[int64]itemState) (int, error) {
	lo := 0
	if r.opts.SyncEveryOp {
		lo = len(r.acked)
	}
	var firstDiff error
	for k := len(r.acked); k >= lo; k-- {
		want := r.stateAt(k)
		var skip map[int64]bool
		if k == len(r.acked) && r.pending != nil {
			skip = map[int64]bool{r.pending.k: true}
		}
		err := equalStatesExcept(recovered, want, skip)
		if err == nil {
			if skip != nil {
				if err := r.checkInFlight(recovered, want); err != nil {
					return 0, err
				}
			}
			return k, nil
		}
		if firstDiff == nil {
			firstDiff = err
		}
	}
	return 0, fmt.Errorf("recovered state matches no acked prefix (acked=%d, in-flight=%v): %v",
		len(r.acked), r.pending != nil, firstDiff)
}

// checkInFlight bounds what the partially-durable crashed op may have
// left behind: the key's before state, its after state, or absent (an
// update that moved its tuple logs delete+insert and may lose the
// second half).
func (r *runner) checkInFlight(recovered, before map[int64]itemState) error {
	p := r.pending
	got, present := recovered[p.k]
	bef, hadBefore := before[p.k]
	after := itemState{grp: p.grp, val: p.val}
	switch p.kind {
	case "insert":
		if present && got != after {
			return fmt.Errorf("in-flight insert of key %d recovered as %+v", p.k, got)
		}
	case "delete":
		if present && (!hadBefore || got != bef) {
			return fmt.Errorf("in-flight delete of key %d recovered as %+v", p.k, got)
		}
	case "update":
		if present && got != after && (!hadBefore || got != bef) {
			return fmt.Errorf("in-flight update of key %d recovered as %+v (before %+v, after %+v)",
				p.k, got, bef, after)
		}
	}
	return nil
}

func equalStates(got, want map[int64]itemState) error {
	return equalStatesExcept(got, want, nil)
}

func equalStatesExcept(got, want map[int64]itemState, skip map[int64]bool) error {
	for k, w := range want {
		if skip[k] {
			continue
		}
		g, ok := got[k]
		if !ok {
			return fmt.Errorf("key %d missing (want %+v)", k, w)
		}
		if g != w {
			return fmt.Errorf("key %d is %+v, want %+v", k, g, w)
		}
	}
	for k := range got {
		if skip[k] {
			continue
		}
		if _, ok := want[k]; !ok {
			return fmt.Errorf("key %d present but should not exist (%+v)", k, got[k])
		}
	}
	return nil
}
