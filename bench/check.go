package main

import (
	"errors"
	"fmt"

	"pmv/internal/expr"
	"pmv/internal/value"
)

// answerCheck replays the seeded sample through the workload's front
// door and through DB.Execute — the same template run PMV-less — and
// requires the two row multisets to be equal: every result delivered
// exactly once across O2 and O3, none invented, none left over. It
// runs after the measured interval, when the writer has quiesced, and
// returns how many sample queries it attempted and how many mismatched.
func (sys *system) answerCheck(seed int64) (attempted, failed int64, err error) {
	query := sys.newReader()
	ref := sys.dbs[0]
	st := newQueryStream(seed, saltSample, sys.sc, sys.sp.alpha)
	for i := 0; i < sys.sc.sample; i++ {
		conds := st.next()
		want := map[string]int{}
		q := &expr.Query{Template: sys.tpl, Conds: conds}
		if err := ref.Execute(q, func(t value.Tuple) error {
			want[string(value.EncodeTuple(nil, t))]++
			return nil
		}); err != nil {
			return attempted, failed, fmt.Errorf("reference execution: %w", err)
		}
		var got map[string]int
		var rep report
		attempted++
		for try := 0; ; try++ {
			got = map[string]int{}
			rep, err = query(conds, func(t value.Tuple) {
				got[string(value.EncodeTuple(nil, t))]++
			})
			// Asynchronous invalidations of the last write batch may
			// still be landing; the stale read is loud and retried.
			if !errors.Is(err, errStale) || try == maxStaleRetries {
				break
			}
		}
		if err != nil {
			return attempted, failed, fmt.Errorf("sample query %d: %w", i, err)
		}
		if rep.flagged || !sameMultiset(got, want) {
			failed++
		}
	}
	return attempted, failed, nil
}

func sameMultiset(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// maxStaleFrac caps the stale-read retries a pass may see, as a share
// of its queries.
const maxStaleFrac = 0.01

// driftGuard fails the run when a pass was measured on the wrong
// regime: a number from a view that stopped hitting (or started), a
// pool that stopped fitting, or a daemon that shed, degraded or lost
// probes is worse than no number.
func (sys *system) driftGuard(p *pass) error {
	sp := sys.sp
	var hits float64
	rows := 0
	for i := range p.read.Samples {
		if p.read.Samples[i].Hit {
			hits++
		}
		rows += p.read.Samples[i].Rows
	}
	if rows == 0 {
		return errors.New("drift: no query returned a row")
	}
	if float64(p.read.Stale) > maxStaleFrac*float64(p.read.Queries) {
		return fmt.Errorf("drift: %d stale-read retries in %d queries, above %.0f%%", p.read.Stale, p.read.Queries, 100*maxStaleFrac)
	}
	hit := hits / float64(len(p.read.Samples))
	if hit < sp.hitMin || hit > sp.hitMax {
		return fmt.Errorf("drift: core.query_hit_ratio %.3f outside [%.2f, %.2f]", hit, sp.hitMin, sp.hitMax)
	}
	h, m := float64(p.c1.poolHits-p.c0.poolHits), float64(p.c1.poolMisses-p.c0.poolMisses)
	if r := ratio(h, h+m); r < sp.poolHitMin {
		return fmt.Errorf("drift: buffer.hit_ratio %.4f below %.2f", r, sp.poolHitMin)
	}
	a, b := p.c2, p.c0
	for _, c := range []struct {
		name string
		n    int64
	}{
		{"core flagged queries", flagged(a.view) - flagged(b.view)},
		{"server shed", a.srvShed - b.srvShed},
		{"server degraded", a.srvDegraded - b.srvDegraded},
		{"server deadline-expired", a.srvExpiry - b.srvExpiry},
		{"router shed", a.rtrShed - b.rtrShed},
		{"router degraded", a.rtrDegraded - b.rtrDegraded},
		{"router ds leftover", a.rtrLeftover - b.rtrLeftover},
		{"cluster probe failures", a.probeFailures - b.probeFailures},
		{"cluster exec failures", a.execFailures - b.execFailures},
		{"cluster refill failures", a.refillFails - b.refillFails},
	} {
		if c.n != 0 {
			return fmt.Errorf("drift: %s = %d, want 0", c.name, c.n)
		}
	}
	return nil
}
