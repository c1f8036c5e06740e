// Package exec is the Volcano-style query executor: iterators over
// value.Tuple rows plus a planner that turns a bound template query
// (expr.Query) into the index-driven plan the paper describes for its
// Eqt example — index access on the driving relation's selection
// attribute, then index nested-loop joins, with residual filters.
package exec

import (
	"errors"
	"fmt"

	"pmv/internal/expr"
	"pmv/internal/value"
)

// ErrNotOpen is returned by Next on an unopened iterator.
var ErrNotOpen = errors.New("exec: iterator not open")

// Iterator is the pull-based operator interface. Next returns
// (tuple, true, nil) per row and (nil, false, nil) at end of stream.
//
// A row is the consumer's to read until its next call to Next or Close:
// an operator may rewrite it then (KeyJoin does). A consumer that keeps
// rows longer clones them. Collect does, and so NestedLoopJoin may keep
// the right side it collects; a join's current outer row is kept only
// until it pulls the next one.
type Iterator interface {
	Open() error
	Next() (value.Tuple, bool, error)
	Close() error
}

// RowSchema binds qualified column references to positions in the
// tuples an iterator produces.
type RowSchema struct {
	Cols []expr.ColumnRef
}

// Index returns the position of ref, or -1.
func (rs RowSchema) Index(ref expr.ColumnRef) int {
	for i, c := range rs.Cols {
		if c == ref {
			return i
		}
	}
	return -1
}

// MustIndex returns the position of ref or an error naming it.
func (rs RowSchema) MustIndex(ref expr.ColumnRef) (int, error) {
	if i := rs.Index(ref); i >= 0 {
		return i, nil
	}
	return -1, fmt.Errorf("exec: column %s not in row schema", ref)
}

// Concat returns rs followed by other.
func (rs RowSchema) Concat(other RowSchema) RowSchema {
	cols := make([]expr.ColumnRef, 0, len(rs.Cols)+len(other.Cols))
	cols = append(cols, rs.Cols...)
	cols = append(cols, other.Cols...)
	return RowSchema{Cols: cols}
}

// Pred is a compiled row predicate.
type Pred func(value.Tuple) bool

// Collect drains an iterator into a slice (open/close included), each
// row a clone the caller owns.
func Collect(it Iterator) ([]value.Tuple, error) {
	if err := it.Open(); err != nil {
		return nil, err
	}
	defer it.Close()
	var out []value.Tuple
	for {
		t, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, t.Clone())
	}
}

// ForEach streams an iterator through fn (open/close included).
func ForEach(it Iterator, fn func(value.Tuple) error) error {
	if err := it.Open(); err != nil {
		return err
	}
	defer it.Close()
	for {
		t, ok, err := it.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := fn(t); err != nil {
			return err
		}
	}
}

// sliceIter replays a materialized row set; it is the building block of
// blocking operators (sort, aggregate, materialize).
type sliceIter struct {
	rows []value.Tuple
	pos  int
	open bool
}

// NewSliceIter returns an iterator over rows.
func NewSliceIter(rows []value.Tuple) Iterator { return &sliceIter{rows: rows} }

func (s *sliceIter) Open() error {
	s.pos = 0
	s.open = true
	return nil
}

func (s *sliceIter) Next() (value.Tuple, bool, error) {
	if !s.open {
		return nil, false, ErrNotOpen
	}
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	t := s.rows[s.pos]
	s.pos++
	return t, true, nil
}

func (s *sliceIter) Close() error {
	s.open = false
	return nil
}

// Guard injects a liveness check into a pipeline: Check runs before
// every row is pulled from the child, so a cancelled context (or any
// other abort condition) stops an in-flight plan between rows instead
// of letting it run to completion. The engine wraps plan roots with a
// Guard when the caller supplies a cancellable context.
type Guard struct {
	Child Iterator
	Check func() error
}

// Open checks once, then opens the child.
func (g *Guard) Open() error {
	if err := g.Check(); err != nil {
		return err
	}
	return g.Child.Open()
}

// Next checks, then pulls the next child row.
func (g *Guard) Next() (value.Tuple, bool, error) {
	if err := g.Check(); err != nil {
		return nil, false, err
	}
	return g.Child.Next()
}

// Close closes the child.
func (g *Guard) Close() error { return g.Child.Close() }

// Filter passes through rows satisfying pred.
type Filter struct {
	Child Iterator
	Pred  Pred
}

// Open opens the child.
func (f *Filter) Open() error { return f.Child.Open() }

// Next returns the next row satisfying the predicate.
func (f *Filter) Next() (value.Tuple, bool, error) {
	for {
		t, ok, err := f.Child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if f.Pred(t) {
			return t, true, nil
		}
	}
}

// Close closes the child.
func (f *Filter) Close() error { return f.Child.Close() }

// Project maps rows to the given column positions.
type Project struct {
	Child Iterator
	Cols  []int
}

// Open opens the child.
func (p *Project) Open() error { return p.Child.Open() }

// Next returns the projection of the next child row.
func (p *Project) Next() (value.Tuple, bool, error) {
	t, ok, err := p.Child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	out := make(value.Tuple, len(p.Cols))
	for i, c := range p.Cols {
		out[i] = t[c]
	}
	return out, true, nil
}

// Close closes the child.
func (p *Project) Close() error { return p.Child.Close() }
