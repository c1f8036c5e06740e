package maint_test

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"pmv"
	"pmv/internal/maint"
	"pmv/internal/value"
	"pmv/internal/wire"
)

// FuzzPlaneMatchesPerStatement holds the write plane to per-statement
// maintenance. A random stream of inserts and point deletes and
// updates goes through a Plane on one database and statement by
// statement, views attached, through maint.ApplyOp on a twin. After
// each batch both views must keep their invariants and answer every
// (category, store) query alike, each with a clean DS audit.
//
//	go test -fuzz=FuzzPlaneMatchesPerStatement -fuzztime=30s ./internal/maint
func FuzzPlaneMatchesPerStatement(f *testing.F) {
	f.Add([]byte{1, 25, 0, 2, 26, 3, 130, 27, 9, 4, 25, 1})
	f.Add([]byte{3, 10, 0, 3, 11, 0, 3, 12, 0, 131, 13, 0, 5, 10, 7, 6, 11, 2})
	f.Add([]byte{0, 40, 1, 7, 40, 3, 129, 41, 2, 2, 40, 5, 8, 42, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 48 {
			t.Skip("long streams add nothing but time")
		}
		dbs := [2]*pmv.DB{openDB(t), openDB(t)}
		var views [2]*pmv.View
		var tpl *pmv.Template
		for i, db := range dbs {
			tpl = storefront(t, db)
			v, err := db.CreatePartialView(tpl, pmv.ViewOptions{MaxEntries: 12, TuplesPerBCP: 3})
			if err != nil {
				t.Fatal(err)
			}
			views[i] = v
		}
		check := func() {
			t.Helper()
			for cat := int64(0); cat < 8; cat++ {
				for st := int64(0); st < 5; st++ {
					q := pmv.NewQuery(tpl).In(0, pmv.Int(cat)).In(1, pmv.Int(st)).Query()
					var got [2][][]byte
					for i, v := range views {
						if _, err := v.ExecutePartial(q, func(r pmv.Result) error {
							got[i] = append(got[i], value.EncodeTuple(nil, r.Tuple))
							return nil
						}); err != nil {
							t.Fatalf("view %d, (%d, %d): %v", i, cat, st, err)
						}
						slices.SortFunc(got[i], bytes.Compare)
					}
					if !slices.EqualFunc(got[0], got[1], bytes.Equal) {
						t.Fatalf("(%d, %d): plane answers %d rows, per-statement %d", cat, st, len(got[0]), len(got[1]))
					}
				}
			}
			for i, v := range views {
				if err := v.CheckInvariants(); err != nil {
					t.Fatalf("view %d: %v", i, err)
				}
			}
		}
		check() // warm both caches
		p := newPlane(t, dbs[0], maint.Config{BatchSize: 1 << 10})

		var batch []wire.UpdateOp
		flush := func() {
			t.Helper()
			if len(batch) == 0 {
				return
			}
			res, err := p.Apply(context.Background(), batch, false)
			if err != nil {
				t.Fatal(err)
			}
			rows := 0
			for i := range batch {
				n, err := maint.ApplyOp(context.Background(), dbs[1].Engine(), &batch[i])
				if err != nil {
					t.Fatal(err)
				}
				rows += n
			}
			if res.Applied != len(batch) || res.Rows != rows {
				t.Fatalf("plane applied %d ops to %d rows, per-statement %d to %d", res.Applied, res.Rows, len(batch), rows)
			}
			batch = batch[:0]
			check()
		}
		for i := 0; i+2 < len(data); i += 3 {
			batch = append(batch, fuzzOp(data[i]&0x7f, int64(data[i+1]), int64(data[i+2])))
			if data[i]&0x80 != 0 {
				flush()
			}
		}
		flush()
	})
}

// fuzzOp decodes one op over the storefront fixture: pid picks the
// rows to match or the pid to insert, x a value for the op to write.
func fuzzOp(kind byte, pid, x int64) wire.UpdateOp {
	sale := func(col string, val value.Value) wire.UpdateOp {
		return wire.UpdateOp{Kind: wire.OpUpdate, Rel: "sale", Col: "pid", Val: value.Int(pid), SetCol: col, SetVal: val}
	}
	switch kind % 9 {
	case 0:
		return wire.UpdateOp{Kind: wire.OpInsert, Rel: "sale", Tuple: value.Tuple{value.Int(pid), value.Int(x % 5), value.Int(x)}}
	case 1:
		return wire.UpdateOp{Kind: wire.OpInsert, Rel: "product", Tuple: value.Tuple{value.Int(pid), value.Int(x % 8), value.Str("n")}}
	case 2:
		return wire.UpdateOp{Kind: wire.OpDelete, Rel: "sale", Col: "pid", Val: value.Int(pid)}
	case 3:
		return wire.UpdateOp{Kind: wire.OpDelete, Rel: "product", Col: "pid", Val: value.Int(pid)}
	case 4:
		return sale("discount", value.Int(x))
	case 5:
		return sale("store", value.Int(x%5))
	case 6:
		return sale("pid", value.Int(x)) // moves the row: never coalesced
	case 7:
		return wire.UpdateOp{Kind: wire.OpUpdate, Rel: "product", Col: "pid", Val: value.Int(pid), SetCol: "category", SetVal: value.Int(x % 8)}
	default:
		return wire.UpdateOp{Kind: wire.OpUpdate, Rel: "product", Col: "pid", Val: value.Int(pid), SetCol: "name", SetVal: value.Str("m")}
	}
}
