package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pmv"
	"pmv/internal/core"
	"pmv/internal/expr"
	"pmv/internal/snapshot"
	"pmv/internal/value"
	"pmv/internal/vfs"
)

// buildDB creates a small storefront database with one PMV (64
// products over 8 categories and 4 stores).
func buildDB(t *testing.T, dir string, opts pmv.ViewOptions) (*pmv.DB, *pmv.Template) {
	t.Helper()
	db, err := pmv.Open(dir, pmv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check(db.CreateRelation("product",
		pmv.Col("pid", pmv.TypeInt),
		pmv.Col("category", pmv.TypeInt),
		pmv.Col("name", pmv.TypeString)))
	check(db.CreateRelation("sale",
		pmv.Col("pid", pmv.TypeInt),
		pmv.Col("store", pmv.TypeInt),
		pmv.Col("discount", pmv.TypeInt)))
	check(db.CreateIndex("product", "pid"))
	check(db.CreateIndex("product", "category"))
	check(db.CreateIndex("sale", "pid"))
	for pid := int64(0); pid < 64; pid++ {
		check(db.Insert("product", pmv.Int(pid), pmv.Int(pid%8), pmv.Str("p")))
		check(db.Insert("sale", pmv.Int(pid), pmv.Int((pid/8)%4), pmv.Int(pid%50)))
	}
	tpl := pmv.NewTemplate("on_sale").
		From("product", "sale").
		Select("product.pid", "sale.discount").
		Join("product.pid", "sale.pid").
		WhereEq("product.category").
		WhereEq("sale.store").
		MustBuild()
	if opts.MaxEntries == 0 {
		opts.MaxEntries = 64
	}
	if opts.TuplesPerBCP == 0 {
		opts.TuplesPerBCP = 4
	}
	if _, err := db.CreatePartialView(tpl, opts); err != nil {
		t.Fatal(err)
	}
	return db, tpl
}

// fillCache queries every (category, store) pair `rounds` times so
// the cache holds entries regardless of policy (2Q needs two
// sightings to cache).
func fillCache(t *testing.T, db *pmv.DB, rounds int) {
	t.Helper()
	v, ok := db.ViewByName("pmv_on_sale")
	if !ok {
		t.Fatal("view missing")
	}
	tpl := v.Config().Template
	for r := 0; r < rounds; r++ {
		for c := int64(0); c < 8; c++ {
			for s := int64(0); s < 4; s++ {
				q := pmv.NewQuery(tpl).In(0, pmv.Int(c)).In(1, pmv.Int(s)).Query()
				if _, err := v.ExecutePartial(q, func(pmv.Result) error { return nil }); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func newMgr(t *testing.T, db *pmv.DB, dir string) *snapshot.Manager {
	t.Helper()
	m, err := snapshot.NewManager(snapshot.Config{Dir: dir, Source: db, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func sampleSnapshot() *snapshot.Snapshot {
	return &snapshot.Snapshot{
		Stamps: snapshot.Stamps{
			Epoch: 3, DiscGen: 0xdead, ViewRev: 0xbeef, DataStamp: 42, Fingerprint: 7,
		},
		WrittenUnixNs: 1234567890,
		Views: []snapshot.ViewSnap{
			{Name: "pmv_a", Entries: []snapshot.Entry{
				{Key: "k1", Accesses: 9, Tuples: []value.Tuple{
					{value.Int(1), value.Str("x"), value.Float(1.5)},
					{value.Bool(true), value.Null(), value.Date(100)},
				}},
				{Key: "k2", Accesses: 1, Tuples: nil},
			}},
			{Name: "pmv_b", Entries: nil},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := sampleSnapshot()
	img := snapshot.Encode(want)
	got, err := snapshot.Decode(img)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stamps != want.Stamps || got.WrittenUnixNs != want.WrittenUnixNs {
		t.Fatalf("header round trip: got %+v want %+v", got.Stamps, want.Stamps)
	}
	if len(got.Views) != len(want.Views) {
		t.Fatalf("views: got %d want %d", len(got.Views), len(want.Views))
	}
	for i := range want.Views {
		gv, wv := got.Views[i], want.Views[i]
		if gv.Name != wv.Name || len(gv.Entries) != len(wv.Entries) {
			t.Fatalf("view %d: got %q/%d want %q/%d", i, gv.Name, len(gv.Entries), wv.Name, len(wv.Entries))
		}
		for j := range wv.Entries {
			ge, we := gv.Entries[j], wv.Entries[j]
			if ge.Key != we.Key || ge.Accesses != we.Accesses || len(ge.Tuples) != len(we.Tuples) {
				t.Fatalf("view %d entry %d: got %+v want %+v", i, j, ge, we)
			}
			for k := range we.Tuples {
				if !bytes.Equal(value.EncodeTuple(nil, ge.Tuples[k]), value.EncodeTuple(nil, we.Tuples[k])) {
					t.Fatalf("view %d entry %d tuple %d differs", i, j, k)
				}
			}
		}
	}
}

// TestDecodeRejectsDamage walks the validation ladder: every
// structural mutation must yield a typed error, never a panic or a
// silently-wrong snapshot.
func TestDecodeRejectsDamage(t *testing.T) {
	img := snapshot.Encode(sampleSnapshot())
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"empty", func(b []byte) []byte { return nil }, snapshot.ErrAbsent},
		{"short-header", func(b []byte) []byte { return b[:40] }, snapshot.ErrCorrupt},
		{"bad-magic", func(b []byte) []byte { b[0] = 'X'; return b }, snapshot.ErrCorrupt},
		{"zero-guard-header", func(b []byte) []byte {
			for i := 0; i < 88; i++ {
				b[i] = 0
			}
			return b
		}, snapshot.ErrCorrupt},
		{"header-bit-flip", func(b []byte) []byte { b[16] ^= 0x01; return b }, snapshot.ErrCorrupt},
		{"truncated-body", func(b []byte) []byte { return b[:len(b)-3] }, snapshot.ErrCorrupt},
		{"index-bit-flip", func(b []byte) []byte { b[90] ^= 0x80; return b }, snapshot.ErrCorrupt},
		{"data-bit-flip", func(b []byte) []byte { b[len(b)-1] ^= 0x10; return b }, snapshot.ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img2 := tc.mutate(append([]byte(nil), img...))
			_, err := snapshot.Decode(img2)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
	// A future format version is stale, not corrupt: the header must
	// be re-checksummed or the CRC rung fires first.
	img2 := append([]byte(nil), img...)
	img2[7] = 2 // version u32 low byte
	reseal(img2)
	if _, err := snapshot.Decode(img2); !errors.Is(err, snapshot.ErrStale) {
		t.Fatalf("future version: got %v, want ErrStale", err)
	}
}

// reseal recomputes the header CRC after a deliberate header edit.
func reseal(img []byte) {
	crc := crc32.Checksum(img[:84], crc32.MakeTable(crc32.Castagnoli))
	binary.BigEndian.PutUint32(img[84:], crc)
}

// TestWarmRestart is the tentpole's core loop: fill, snapshot, reboot,
// warm-admit, and verify the cache answers exactly as before.
func TestWarmRestart(t *testing.T) {
	for _, policy := range []string{"", "2q"} {
		t.Run("policy="+policy, func(t *testing.T) {
			dir := t.TempDir()
			dbDir := filepath.Join(dir, "db")
			snapDir := filepath.Join(dir, "snap")
			opts := pmv.ViewOptions{}
			if policy == "2q" {
				opts.Policy = pmv.Policy2Q
			}
			db, tpl := buildDB(t, dbDir, opts)
			fillCache(t, db, 2)
			v, _ := db.ViewByName("pmv_on_sale")
			wantEntries, wantTuples := v.Len(), v.TupleCount()
			if wantEntries == 0 || wantTuples == 0 {
				t.Fatalf("cache empty after fill: %d entries %d tuples", wantEntries, wantTuples)
			}
			// Ground truth before the reboot.
			truth := make(map[string]int)
			q := pmv.NewQuery(tpl).In(0, pmv.Int(3)).In(1, pmv.Int(1)).Query()
			if err := db.Execute(q, func(tu pmv.Tuple) error {
				truth[string(value.EncodeTuple(nil, tu))]++
				return nil
			}); err != nil {
				t.Fatal(err)
			}

			m := newMgr(t, db, snapDir)
			if err := m.WriteNow(); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			db2, err := pmv.Open(dbDir, pmv.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			m2 := newMgr(t, db2, snapDir)
			res := m2.Load()
			if !res.Warm {
				t.Fatalf("expected warm boot, got cold: %s", res.Reason)
			}
			if res.Rejected != 0 {
				t.Fatalf("warm boot rejected %d entries: %s", res.Rejected, res.Reason)
			}
			v2, _ := db2.ViewByName("pmv_on_sale")
			if err := v2.CheckInvariants(); err != nil {
				t.Fatalf("invariants after warm admit: %v", err)
			}
			if v2.Len() != wantEntries || v2.TupleCount() != wantTuples {
				t.Fatalf("warm cache %d entries/%d tuples, want %d/%d",
					v2.Len(), v2.TupleCount(), wantEntries, wantTuples)
			}
			// A PartialOnly answer must be a subset of ground truth —
			// warm entries can make answers fast, never wrong.
			got := make(map[string]int)
			rep, err := v2.PartialOnly(pmv.NewQuery(tpl).In(0, pmv.Int(3)).In(1, pmv.Int(1)).Query(),
				func(r pmv.Result) error {
					got[string(value.EncodeTuple(nil, r.Tuple))]++
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Hit {
				t.Fatal("warm boot: probe missed a snapshotted entry")
			}
			for k, n := range got {
				if n > truth[k] {
					t.Fatalf("warm cache delivered %d copies of a row ground truth has %d of", n, truth[k])
				}
			}
			// And a full ExecutePartial run must still be exactly right.
			exact := make(map[string]int)
			if _, err := v2.ExecutePartial(pmv.NewQuery(tpl).In(0, pmv.Int(3)).In(1, pmv.Int(1)).Query(),
				func(r pmv.Result) error {
					exact[string(value.EncodeTuple(nil, r.Tuple))]++
					return nil
				}); err != nil {
				t.Fatal(err)
			}
			if len(exact) != len(truth) {
				t.Fatalf("warm ExecutePartial row set %d, want %d", len(exact), len(truth))
			}
			for k, n := range truth {
				if exact[k] != n {
					t.Fatalf("warm ExecutePartial multiset mismatch for one row: got %d want %d", exact[k], n)
				}
			}
		})
	}
}

// TestEpochMismatch is the satellite's contract: a snapshot written
// under shard-map epoch N is rejected when the shard boots at N+1.
func TestEpochMismatch(t *testing.T) {
	dir := t.TempDir()
	dbDir, snapDir := filepath.Join(dir, "db"), filepath.Join(dir, "snap")
	db, _ := buildDB(t, dbDir, pmv.ViewOptions{})
	fillCache(t, db, 2)
	m := newMgr(t, db, snapDir)
	m.SetEpoch(5)
	if err := m.WriteNow(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// The cluster moved on: epoch 6 was installed after the snapshot.
	if err := snapshot.WriteEpochState(vfs.OS(), snapDir, 6); err != nil {
		t.Fatal(err)
	}
	db2, err := pmv.Open(dbDir, pmv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	m2 := newMgr(t, db2, snapDir)
	res := m2.Load()
	if res.Warm {
		t.Fatalf("stale-epoch snapshot admitted: %s", res.Reason)
	}
	if !strings.Contains(res.Reason, "epoch") {
		t.Fatalf("cold reason %q does not name the epoch", res.Reason)
	}
	if st := m2.Stats(); st.StaleRejects != 1 {
		t.Fatalf("StaleRejects = %d, want 1", st.StaleRejects)
	}
	v, _ := db2.ViewByName("pmv_on_sale")
	if v.Len() != 0 {
		t.Fatalf("cold start still admitted %d entries", v.Len())
	}
}

// TestDiscGenMismatch: same view name, different dividers — a new
// discretizer generation must reject the snapshot (its bcp keys would
// mis-bucket).
func TestDiscGenMismatch(t *testing.T) {
	dir := t.TempDir()
	dbDir, snapDir := filepath.Join(dir, "db"), filepath.Join(dir, "snap")
	db, err := pmv.Open(dbDir, pmv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateRelation("m", pmv.Col("k", pmv.TypeInt), pmv.Col("v", pmv.TypeInt)); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 40; i++ {
		if err := db.Insert("m", pmv.Int(i%4), pmv.Int(i)); err != nil {
			t.Fatal(err)
		}
	}
	mk := func() *pmv.Template {
		return pmv.NewTemplate("ranges").
			From("m").
			Select("m.k", "m.v").
			WhereEq("m.k").
			WhereInterval("m.v").
			MustBuild()
	}
	mkView := func(db *pmv.DB, divs []pmv.Value) *pmv.Template {
		tpl := mk()
		if _, err := db.CreatePartialView(tpl, pmv.ViewOptions{
			MaxEntries: 32, TuplesPerBCP: 8,
			Dividers: map[int][]pmv.Value{1: divs},
		}); err != nil {
			t.Fatal(err)
		}
		return tpl
	}
	tpl := mkView(db, []pmv.Value{pmv.Int(10), pmv.Int(20)})
	v, _ := db.ViewByName("pmv_ranges")
	for r := 0; r < 2; r++ {
		q := pmv.NewQuery(tpl).In(0, pmv.Int(1)).Between(1, pmv.Int(10), pmv.Int(20)).Query()
		if _, err := v.ExecutePartial(q, func(pmv.Result) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	m := newMgr(t, db, snapDir)
	if err := m.WriteNow(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := pmv.Open(dbDir, pmv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	// Re-discretize: drop and recreate the view with shifted dividers.
	if err := db2.DropPartialView("pmv_ranges"); err != nil {
		t.Fatal(err)
	}
	mkView(db2, []pmv.Value{pmv.Int(10), pmv.Int(30)})
	m2 := newMgr(t, db2, snapDir)
	res := m2.Load()
	if res.Warm {
		t.Fatalf("snapshot from another discretizer generation admitted: %s", res.Reason)
	}
	if !strings.Contains(res.Reason, "generation") {
		t.Fatalf("cold reason %q does not name the generation", res.Reason)
	}
	if st := m2.Stats(); st.StaleRejects != 1 {
		t.Fatalf("StaleRejects = %d, want 1", st.StaleRejects)
	}
}

// TestFingerprintMismatch: base data changed behind the snapshot's
// back (no WAL, so the data stamp is blind) — the relation-count
// fingerprint must reject it.
func TestFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	dbDir, snapDir := filepath.Join(dir, "db"), filepath.Join(dir, "snap")
	db, _ := buildDB(t, dbDir, pmv.ViewOptions{})
	fillCache(t, db, 2)
	m := newMgr(t, db, snapDir)
	if err := m.WriteNow(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := pmv.Open(dbDir, pmv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := db2.Insert("sale", pmv.Int(1), pmv.Int(0), pmv.Int(9)); err != nil {
		t.Fatal(err)
	}
	m2 := newMgr(t, db2, snapDir)
	res := m2.Load()
	if res.Warm {
		t.Fatalf("snapshot over changed base data admitted: %s", res.Reason)
	}
	if !strings.Contains(res.Reason, "fingerprint") {
		t.Fatalf("cold reason %q does not name the fingerprint", res.Reason)
	}
}

// TestViewRevisionMismatch: a redefined view (different F) invalidates
// the snapshot.
func TestViewRevisionMismatch(t *testing.T) {
	dir := t.TempDir()
	dbDir, snapDir := filepath.Join(dir, "db"), filepath.Join(dir, "snap")
	db, _ := buildDB(t, dbDir, pmv.ViewOptions{})
	fillCache(t, db, 2)
	m := newMgr(t, db, snapDir)
	if err := m.WriteNow(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := pmv.Open(dbDir, pmv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	v, _ := db2.ViewByName("pmv_on_sale")
	tpl := v.Config().Template
	if err := db2.DropPartialView("pmv_on_sale"); err != nil {
		t.Fatal(err)
	}
	if _, err := db2.CreatePartialView(tpl, pmv.ViewOptions{MaxEntries: 64, TuplesPerBCP: 2}); err != nil {
		t.Fatal(err)
	}
	m2 := newMgr(t, db2, snapDir)
	res := m2.Load()
	if res.Warm {
		t.Fatalf("snapshot for a redefined view admitted: %s", res.Reason)
	}
	if !strings.Contains(res.Reason, "revision") {
		t.Fatalf("cold reason %q does not name the revision", res.Reason)
	}
}

// TestLayoutChangeBootsCold: a snapshot written by a build whose Ls′
// was narrower — the same template, fewer columns per cached row —
// boots cold with a stale reason instead of loading rows of the wrong
// width. The control boot without the narrowing is warm.
func TestLayoutChangeBootsCold(t *testing.T) {
	for _, narrow := range []bool{false, true} {
		dir := t.TempDir()
		dbDir, snapDir := filepath.Join(dir, "db"), filepath.Join(dir, "snap")
		db, _ := buildDB(t, dbDir, pmv.ViewOptions{})
		fillCache(t, db, 2)
		m := newMgr(t, db, snapDir)
		if narrow {
			wide := *snapshot.LayoutOf
			*snapshot.LayoutOf = func(v *core.View) []expr.ColumnRef {
				sp := wide(v)
				return sp[:len(sp)-1]
			}
			err := m.WriteNow()
			*snapshot.LayoutOf = wide
			if err != nil {
				t.Fatal(err)
			}
		} else if err := m.WriteNow(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db2, err := pmv.Open(dbDir, pmv.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res := newMgr(t, db2, snapDir).Load()
		v, _ := db2.ViewByName("pmv_on_sale")
		switch {
		case !narrow && !res.Warm:
			t.Fatalf("same layout booted cold: %s", res.Reason)
		case narrow && res.Warm:
			t.Fatalf("snapshot of a narrower layout admitted: %s", res.Reason)
		case narrow && (!strings.HasPrefix(res.Reason, snapshot.ErrStale.Error()) || !strings.Contains(res.Reason, "revision")):
			t.Fatalf("cold reason %q is not a stale view revision", res.Reason)
		case narrow && v.Len() != 0:
			t.Fatalf("cold boot cached %d entries", v.Len())
		}
		db2.Close()
	}
}

// TestCorruptSnapshotRejected: on-disk damage is caught by the CRCs
// and degrades to cold start with a counted, typed rejection.
func TestCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	dbDir, snapDir := filepath.Join(dir, "db"), filepath.Join(dir, "snap")
	db, _ := buildDB(t, dbDir, pmv.ViewOptions{})
	fillCache(t, db, 2)
	m := newMgr(t, db, snapDir)
	if err := m.WriteNow(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(snapDir, snapshot.FileName)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-5] ^= 0x40 // bit rot in the data section
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	db2, err := pmv.Open(dbDir, pmv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	m2 := newMgr(t, db2, snapDir)
	res := m2.Load()
	if res.Warm {
		t.Fatalf("corrupt snapshot admitted: %s", res.Reason)
	}
	if !strings.Contains(res.Reason, "corrupt") {
		t.Fatalf("cold reason %q does not say corrupt", res.Reason)
	}
	if st := m2.Stats(); st.CorruptRejects != 1 {
		t.Fatalf("CorruptRejects = %d, want 1", st.CorruptRejects)
	}
	v, _ := db2.ViewByName("pmv_on_sale")
	if v.Len() != 0 {
		t.Fatalf("cold start still admitted %d entries", v.Len())
	}
}

// TestStickySyncFailure: a snapshot write through a failing-fsync
// filesystem reports the error, counts it, and the next boot is a
// typed cold start — never a half-admitted cache.
func TestStickySyncFailure(t *testing.T) {
	dir := t.TempDir()
	dbDir, snapDir := filepath.Join(dir, "db"), filepath.Join(dir, "snap")
	db, _ := buildDB(t, dbDir, pmv.ViewOptions{})
	fillCache(t, db, 2)

	inj := vfs.NewInjector(1)
	inj.Add(vfs.Rule{Kind: vfs.FaultSyncFail, Op: vfs.OpSync, Path: snapshot.FileName, AfterOps: 1, Sticky: true})
	faulty := vfs.NewFaulty(vfs.OS(), inj)
	m, err := snapshot.NewManager(snapshot.Config{Dir: snapDir, Source: db, FS: faulty, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteNow(); err == nil {
		t.Fatal("sync failure did not surface from WriteNow")
	}
	if st := m.Stats(); st.WriteErrors != 1 || st.Writes != 0 {
		t.Fatalf("stats after failed write: %+v", st)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := pmv.Open(dbDir, pmv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	m2 := newMgr(t, db2, snapDir)
	res := m2.Load()
	if res.Warm && res.Entries > 0 {
		// The guard header never became a valid snapshot, so a warm
		// boot here means the commit protocol leaked.
		t.Fatalf("boot after failed commit admitted entries: %s", res.Reason)
	}
	v, _ := db2.ViewByName("pmv_on_sale")
	if v.Len() != 0 {
		t.Fatalf("failed commit still warmed %d entries", v.Len())
	}
}

// TestCloseWritesFinalSnapshot: the graceful-drain contract.
func TestCloseWritesFinalSnapshot(t *testing.T) {
	dir := t.TempDir()
	dbDir, snapDir := filepath.Join(dir, "db"), filepath.Join(dir, "snap")
	db, _ := buildDB(t, dbDir, pmv.ViewOptions{})
	fillCache(t, db, 2)
	m := newMgr(t, db, snapDir)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal("second Close must be a no-op, got", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := pmv.Open(dbDir, pmv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	m2 := newMgr(t, db2, snapDir)
	if res := m2.Load(); !res.Warm || res.Entries == 0 {
		t.Fatalf("final snapshot did not warm the next boot: %+v", res)
	}
}
