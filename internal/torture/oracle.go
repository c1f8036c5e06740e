package torture

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"pmv"
	"pmv/client"
)

// The chaos dataset: product(pid, category, name) ⋈ sale(pid, store,
// discount) for 400 pids, cached by one view keyed on (category,
// store). Pid p lives in the pair (p mod 8, (p/8) mod 5), so each pair
// has ten member pids and its answer is one (pid, discount) row per
// member.
const (
	chaosCategories = 8
	chaosStores     = 5
	chaosPids       = 400
	chaosView       = "pmv_on_sale"
)

// chaosDB builds the dataset in dir.
func chaosDB(dir string) (*pmv.DB, error) {
	db, err := pmv.Open(dir, pmv.Options{})
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*pmv.DB, error) {
		db.Close()
		return nil, err
	}
	steps := []error{
		db.CreateRelation("product",
			pmv.Col("pid", pmv.TypeInt),
			pmv.Col("category", pmv.TypeInt),
			pmv.Col("name", pmv.TypeString)),
		db.CreateRelation("sale",
			pmv.Col("pid", pmv.TypeInt),
			pmv.Col("store", pmv.TypeInt),
			pmv.Col("discount", pmv.TypeInt)),
		db.CreateIndex("product", "pid"),
		db.CreateIndex("product", "category"),
		db.CreateIndex("sale", "pid"),
		db.CreateIndex("sale", "store"),
	}
	if err := errors.Join(steps...); err != nil {
		return fail(err)
	}
	for pid := int64(0); pid < chaosPids; pid++ {
		pair := pairOf(pid)
		if err := errors.Join(
			db.Insert("product", pmv.Int(pid), pmv.Int(pair[0]), pmv.Str("p")),
			db.Insert("sale", pmv.Int(pid), pmv.Int(pair[1]), pmv.Int(discountOf(pid, 0)))); err != nil {
			return fail(err)
		}
	}
	tpl := pmv.NewTemplate("on_sale").
		From("product", "sale").
		Select("product.pid", "sale.discount").
		Join("product.pid", "sale.pid").
		WhereEq("product.category").
		WhereEq("sale.store").
		MustBuild()
	if _, err := db.CreatePartialView(tpl, pmv.ViewOptions{MaxEntries: 64, TuplesPerBCP: 4}); err != nil {
		return fail(err)
	}
	return db, nil
}

func pairOf(pid int64) [2]int64 {
	return [2]int64{pid % chaosCategories, (pid / chaosCategories) % chaosStores}
}

// members returns the pids in pair's answer; none for an absent key.
func members(pair [2]int64) []int64 {
	var pids []int64
	for pid := int64(0); pid < chaosPids; pid++ {
		if pairOf(pid) == pair {
			pids = append(pids, pid)
		}
	}
	return pids
}

func conds(pair [2]int64) []client.Cond {
	return []client.Cond{client.Eq(client.Int(pair[0])), client.Eq(client.Int(pair[1]))}
}

// A pid's versions: writers overwrite sale.discount with a monotone
// sequence per pid. Version 0 is the loader's pid%50; later versions
// sit far above it, so every value decodes to exactly one version.
func discountOf(pid, seq int64) int64 {
	if seq == 0 {
		return pid % 50
	}
	return 10000 + seq
}

// seqOf decodes a served discount back to its version (-1 = a value
// never written for this pid).
func seqOf(pid, v int64) int64 {
	if v == pid%50 {
		return 0
	}
	if v > 10000 {
		return v - 10000
	}
	return -1
}

// pidTimeline is one pid's write clock: sent is bumped before the
// write leaves, acked once it is acknowledged everywhere.
type pidTimeline struct {
	sent, acked atomic.Int64
}

// window bounds the versions one read may deliver for a pid: floor is
// the version acked before the read started (anything older is stale),
// ceil the version sent before it ended (nothing newer exists). A pid
// no writer touches has the window [0, 0].
type window struct{ floor, ceil int64 }

// checkRead is the oracle. wins holds the windows of the pair's
// members; got is the delivery, each pid's versions in arrival order.
// A fabricated pid or a version above ceil fails any read. A clean
// read must deliver every member exactly once inside its window. A
// non-clean read (flagged, interrupted, typed failure) delivers a
// subset: members only, and per pid at most two distinct versions —
// the stale partial and the fresh row of a read that raced a write,
// which the DS audit then fails — never the same version twice.
func checkRead(wins map[int64]window, got map[int64][]int64, clean bool) error {
	for pid, vals := range got {
		w, ok := wins[pid]
		switch {
		case !ok:
			return fmt.Errorf("fabricated pid %d delivered", pid)
		case len(vals) > 2 || clean && len(vals) > 1:
			return fmt.Errorf("pid %d delivered %d times (clean=%v)", pid, len(vals), clean)
		case len(vals) == 2 && vals[0] == vals[1]:
			return fmt.Errorf("pid %d delivered discount %d twice", pid, vals[0])
		}
		for _, v := range vals {
			seq := seqOf(pid, v)
			if seq < 0 || seq > w.ceil {
				return fmt.Errorf("pid %d delivered discount %d (seq %d), never written (ceiling %d)", pid, v, seq, w.ceil)
			}
			if clean && seq < w.floor {
				return fmt.Errorf("STALE tuple served unflagged: pid %d at seq %d, acked floor %d", pid, seq, w.floor)
			}
		}
	}
	if clean && len(got) != len(wins) {
		return fmt.Errorf("clean read delivered %d of %d pids", len(got), len(wins))
	}
	return nil
}

// buckets are the ends a call can have, in report order. Anything else
// is an untyped error and fails the run.
var buckets = []string{"clean", "flagged", "interrupted", "unavailable", "remote", "ctx"}

// outcome sorts one call's end into its bucket ("" = untyped).
func outcome(rep client.Report, err error) string {
	switch {
	case err == nil && !(rep.Shed || rep.PartialOnly || rep.DeadlineExpired || rep.Degraded):
		return "clean"
	case err == nil:
		return "flagged"
	case errors.Is(err, client.ErrInterrupted):
		return "interrupted"
	case errors.Is(err, client.ErrUnavailable):
		return "unavailable"
	case errors.Is(err, client.ErrRemote):
		return "remote"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return "ctx"
	}
	return ""
}
