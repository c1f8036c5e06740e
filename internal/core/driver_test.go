package core

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"pmv/internal/expr"
	"pmv/internal/keycodec"
	"pmv/internal/value"
)

// fakeSource is a Source over fixed data: cached maps each part's bcp
// key to the tuples O2 serves, and attempt i of O3 emits rows[i] and
// then returns errs[i].
type fakeSource struct {
	parts  []ConditionPart
	cached map[string][]value.Tuple
	rows   [][]value.Tuple
	errs   []error

	execs, refills int
	fills          []value.Tuple
	invalidated    []string
}

func (s *fakeSource) Parts(*PartBuf, *expr.Query) ([]ConditionPart, error) { return s.parts, nil }

func (s *fakeSource) Probe(_ context.Context, parts []ConditionPart, emit func(value.Tuple, string) error) (ProbeReport, error) {
	var rep ProbeReport
	for _, p := range parts {
		ts, ok := s.cached[p.BCPKey]
		if !ok {
			continue
		}
		rep.Hit = true
		rep.PartHits++
		for _, t := range ts {
			rep.PartialTuples++
			if err := emit(t, p.BCPKey); err != nil {
				return rep, err
			}
		}
	}
	return rep, nil
}

func (s *fakeSource) Exec(_ context.Context, i int, _ *expr.Query, dup func([]byte) bool, emit func(value.Tuple) error) (bool, error) {
	s.execs++
	for _, t := range s.rows[i] {
		if dup != nil && dup(keycodec.AppendTuple(nil, t)) {
			continue
		}
		if err := emit(t); err != nil {
			return false, err
		}
	}
	return i+1 < len(s.rows), s.errs[i]
}

func (s *fakeSource) Fill(t value.Tuple)       { s.fills = append(s.fills, t) }
func (s *fakeSource) Refill([]string)          { s.refills++ }
func (s *fakeSource) Invalidate(keys []string) { s.invalidated = append(s.invalidated, keys...) }

// tup is an Ls′ row whose first column is the user's.
func tup(x int64) value.Tuple { return value.Tuple{value.Int(x), value.Int(x % 3)} }

// parts returns one exact part per key.
func parts(keys ...string) (out []ConditionPart) {
	for _, k := range keys {
		out = append(out, ConditionPart{BCPKey: k, Exact: true})
	}
	return out
}

// runFake runs src and returns the results as "p<x>" (partial) or
// "<x>" strings, in delivery order.
func runFake(t *testing.T, ctx context.Context, src *fakeSource, partialOnly bool) ([]string, QueryReport, error) {
	t.Helper()
	var got []string
	rep, err := Run(ctx, src, nil, 1, partialOnly, func(r Result) error {
		if len(r.Tuple) != 1 {
			t.Fatalf("result has %d columns, want the 1 user column", len(r.Tuple))
		}
		s := r.Tuple[0].String()
		if r.Partial {
			s = "p" + s
		}
		got = append(got, s)
		return nil
	}, nil)
	return got, rep, err
}

var errShard = errors.New("shard refused")

// TestDriverRetryRestoresDS: a failed O3 attempt that only took DS
// tokens for duplicates leaves DS as O2 left it, so the next attempt
// neither delivers a partial again nor fails the audit.
func TestDriverRetryRestoresDS(t *testing.T) {
	src := &fakeSource{
		parts:  parts("k1"),
		cached: map[string][]value.Tuple{"k1": {tup(1), tup(1)}},
		rows:   [][]value.Tuple{{tup(1), tup(1)}, {tup(1), tup(2), tup(1)}},
		errs:   []error{errShard, nil},
	}
	got, rep, err := runFake(t, context.Background(), src, false)
	if err != nil {
		t.Fatalf("retried query failed: %v", err)
	}
	if want := []string{"p1", "p1", "2"}; !slices.Equal(got, want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	if src.execs != 2 || rep.TotalTuples != 3 || rep.PartialTuples != 2 || src.refills != 1 || len(src.invalidated) != 0 {
		t.Fatalf("execs=%d refills=%d invalidated=%v report %+v", src.execs, src.refills, src.invalidated, rep)
	}
}

// TestDriverNoRetryAfterFreshRow: an attempt that failed after one of
// its rows went out ends the query with that error; a second attempt
// could deliver the row again.
func TestDriverNoRetryAfterFreshRow(t *testing.T) {
	src := &fakeSource{
		parts:  parts("k1"),
		cached: map[string][]value.Tuple{},
		rows:   [][]value.Tuple{{tup(4)}, {tup(4)}},
		errs:   []error{errShard, nil},
	}
	got, _, err := runFake(t, context.Background(), src, false)
	if !errors.Is(err, errShard) {
		t.Fatalf("err = %v, want the attempt's error", err)
	}
	if src.execs != 1 || !slices.Equal(got, []string{"4"}) || src.refills != 0 {
		t.Fatalf("execs=%d refills=%d delivered %v; want one attempt and its row once", src.execs, src.refills, got)
	}
}

// TestDriverAuditInvalidatesServedParts: tokens left after O3 fail the
// query and invalidate exactly the bcps that served a partial; a probed
// part that served nothing keeps its entry.
func TestDriverAuditInvalidatesServedParts(t *testing.T) {
	src := &fakeSource{
		parts:  parts("k3", "k1", "k2", "k4"),
		cached: map[string][]value.Tuple{"k1": {tup(1)}, "k2": {}, "k3": {tup(3), tup(6)}},
		rows:   [][]value.Tuple{{tup(3), tup(6), tup(5)}}, // tup(1) is stale
		errs:   []error{nil},
	}
	_, _, err := runFake(t, context.Background(), src, false)
	if err == nil || !strings.Contains(err.Error(), "1 partial tuples not found") || !strings.Contains(err.Error(), "consistency violation") {
		t.Fatalf("audit error %v", err)
	}
	if want := []string{"k1", "k3"}; !slices.Equal(src.invalidated, want) {
		t.Fatalf("invalidated %v, want %v", src.invalidated, want)
	}
	if src.refills != 0 {
		t.Fatal("a query that failed its audit refilled the view")
	}
}

// TestDriverPartialOnly: partial-only mode serves O2 and runs no exec
// and no refill.
func TestDriverPartialOnly(t *testing.T) {
	src := &fakeSource{
		parts:  parts("k1", "k2"),
		cached: map[string][]value.Tuple{"k1": {tup(1)}, "k2": {tup(2)}},
	}
	got, rep, err := runFake(t, context.Background(), src, true)
	if err != nil || !slices.Equal(got, []string{"p1", "p2"}) {
		t.Fatalf("delivered %v, %v", got, err)
	}
	if src.execs != 0 || src.refills != 0 || len(src.fills) != 0 {
		t.Fatalf("partial-only ran execs=%d refills=%d fills=%d", src.execs, src.refills, len(src.fills))
	}
	if !rep.PartialOnly || rep.TotalTuples != 2 || rep.PartialTuples != 2 || !rep.Hit || rep.PartHits != 2 {
		t.Fatalf("report %+v", rep)
	}
}

// TestDriverDeadlineAfterO2: a deadline that ran out by the end of O2
// keeps the partials, flags DeadlineExpired and returns no error;
// cancellation instead fails the query with ctx.Err(). Neither runs O3.
func TestDriverDeadlineAfterO2(t *testing.T) {
	newSrc := func() *fakeSource {
		return &fakeSource{
			parts:  parts("k1"),
			cached: map[string][]value.Tuple{"k1": {tup(1), tup(7)}},
			rows:   [][]value.Tuple{{tup(1), tup(7), tup(2)}},
			errs:   []error{nil},
		}
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	src := newSrc()
	got, rep, err := runFake(t, ctx, src, false)
	if err != nil || !rep.DeadlineExpired || !slices.Equal(got, []string{"p1", "p7"}) {
		t.Fatalf("delivered %v, report %+v, err %v", got, rep, err)
	}
	if rep.TotalTuples != 2 || src.execs != 0 {
		t.Fatalf("execs=%d report %+v", src.execs, rep)
	}

	ctx, cancel = context.WithCancel(context.Background())
	cancel()
	src = newSrc()
	if _, rep, err := runFake(t, ctx, src, false); !errors.Is(err, context.Canceled) || rep.DeadlineExpired || src.execs != 0 {
		t.Fatalf("cancelled query: err %v, report %+v, execs %d", err, rep, src.execs)
	}
}
