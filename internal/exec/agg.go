package exec

import (
	"fmt"
	"sort"

	"pmv/internal/keycodec"
	"pmv/internal/value"
)

// AggFunc enumerates the aggregate functions supported by the
// GROUP BY extension of Section 3.6.
type AggFunc uint8

// Aggregate functions.
const (
	AggCount AggFunc = iota
	AggSum
	AggMin
	AggMax
	AggAvg
)

// String renders the function name.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	default:
		return fmt.Sprintf("AggFunc(%d)", uint8(f))
	}
}

// AggSpec is one aggregate output: Func applied to column Col
// (ignored for COUNT).
type AggSpec struct {
	Func AggFunc
	Col  int
}

type aggState struct {
	count int64
	sum   float64
	min   value.Value
	max   value.Value
}

func (s *aggState) add(v value.Value) {
	s.count++
	if v.IsNull() {
		return
	}
	switch v.Type() {
	case value.TypeInt, value.TypeFloat, value.TypeDate, value.TypeBool:
		s.sum += v.Float64()
	}
	if s.min.IsNull() || value.Compare(v, s.min) < 0 {
		s.min = v
	}
	if s.max.IsNull() || value.Compare(v, s.max) > 0 {
		s.max = v
	}
}

func (s *aggState) result(f AggFunc) value.Value {
	switch f {
	case AggCount:
		return value.Int(s.count)
	case AggSum:
		return value.Float(s.sum)
	case AggMin:
		return s.min
	case AggMax:
		return s.max
	case AggAvg:
		if s.count == 0 {
			return value.Null()
		}
		return value.Float(s.sum / float64(s.count))
	default:
		return value.Null()
	}
}

// HashAggregate groups child rows by GroupCols and emits one row per
// group: group columns followed by the aggregate results. It is a
// blocking operator. Output group order is the encoded-key order, so
// results are deterministic.
type HashAggregate struct {
	Child     Iterator
	GroupCols []int
	Aggs      []AggSpec

	inner *sliceIter
}

// Open drains the child and computes all groups.
func (a *HashAggregate) Open() error {
	type group struct {
		key    value.Tuple
		states []aggState
	}
	groups := make(map[string]*group)
	err := ForEach(a.Child, func(t value.Tuple) error {
		keyT := make(value.Tuple, len(a.GroupCols))
		for i, c := range a.GroupCols {
			keyT[i] = t[c]
		}
		k := string(keycodec.Encode(keyT))
		g, ok := groups[k]
		if !ok {
			g = &group{key: keyT, states: make([]aggState, len(a.Aggs))}
			groups[k] = g
		}
		for i, spec := range a.Aggs {
			if spec.Func == AggCount {
				g.states[i].count++
				continue
			}
			g.states[i].add(t[spec.Col])
		}
		return nil
	})
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rows := make([]value.Tuple, 0, len(keys))
	for _, k := range keys {
		g := groups[k]
		row := make(value.Tuple, 0, len(g.key)+len(a.Aggs))
		row = append(row, g.key...)
		for i, spec := range a.Aggs {
			row = append(row, g.states[i].result(spec.Func))
		}
		rows = append(rows, row)
	}
	a.inner = &sliceIter{rows: rows}
	return a.inner.Open()
}

// Next emits the next group row.
func (a *HashAggregate) Next() (value.Tuple, bool, error) {
	if a.inner == nil {
		return nil, false, ErrNotOpen
	}
	return a.inner.Next()
}

// Close releases group state.
func (a *HashAggregate) Close() error {
	a.inner = nil
	return nil
}

// SortKey is one ORDER BY term.
type SortKey struct {
	Col  int
	Desc bool
}
