package main

import (
	"math/rand"

	"pmv/client"
	"pmv/internal/expr"
	"pmv/internal/value"
	"pmv/internal/workload"
)

// Stream salts: every stream of a run shares the seed's key
// permutation (which bcps are hot) and differs in its draw sequence.
const (
	saltWarm   = 1
	saltSample = 2
	saltWriter = 3
	saltReader = 10 // + reader index; the traced pass adds saltTraced
	saltTraced = 100
)

// zipfStream draws Zipf-skewed ids in [0, n). The permutation that
// scatters hot ranks over the id space comes from seed alone, so all
// streams of a run agree on which ids are hot; the draws come from
// seed and salt.
func zipfStream(seed, salt int64, n int, alpha float64) *workload.PermutedZipf {
	rng := rand.New(rand.NewSource(seed))
	z := workload.NewPermutedZipf(rng, n, alpha)
	rng.Seed(seed*1_000_003 + salt)
	return z
}

// queryStream generates T1 queries of 2 dates × 2 suppliers (h = 4
// condition parts). Two of the four parts are (date, supplier) pairs
// drawn from the Zipf over the bcp domain; the other two are their
// cross terms.
type queryStream struct {
	z         *workload.PermutedZipf
	suppliers int
}

func newQueryStream(seed, salt int64, sc scale, alpha float64) *queryStream {
	return &queryStream{z: zipfStream(seed, salt, sc.domain(), alpha), suppliers: sc.tpcr.Suppliers}
}

// next returns the conditions of the next query: two distinct dates
// and two distinct suppliers.
func (s *queryStream) next() []expr.CondInstance {
	k1 := s.z.Draw()
	d1, s1 := k1/s.suppliers, k1%s.suppliers
	for {
		k2 := s.z.Draw()
		d2, s2 := k2/s.suppliers, k2%s.suppliers
		if d2 == d1 || s2 == s1 {
			continue
		}
		return []expr.CondInstance{
			{Values: []value.Value{value.Date(epochDay + int64(d1)), value.Date(epochDay + int64(d2))}},
			{Values: []value.Value{value.Int(int64(s1)), value.Int(int64(s2))}},
		}
	}
}

// writeStream generates ΔR statements: overwrite the totalprice of the
// order whose key is drawn from a Zipf over the orders. totalprice is
// in T1's select list, so every statement invalidates the cached
// tuples of the order's bcps.
type writeStream struct {
	z   *workload.PermutedZipf
	rng *rand.Rand
}

func newWriteStream(seed int64, sc scale) *writeStream {
	return &writeStream{
		z:   zipfStream(seed, saltWriter, sc.tpcr.Orders(), hotAlpha),
		rng: rand.New(rand.NewSource(seed*1_000_003 + saltWriter + 1)),
	}
}

// next returns the order key and the new totalprice of one statement.
func (w *writeStream) next() (orderkey int64, price float64) {
	return int64(w.z.Draw()), w.rng.Float64() * 100000
}

// request returns the next write request of n statements.
func (w *writeStream) request(n int) []client.Op {
	ops := make([]client.Op, n)
	for i := range ops {
		k, v := w.next()
		ops[i] = client.Set("orders", "orderkey", client.Int(k), "totalprice", client.Float(v))
	}
	return ops
}
