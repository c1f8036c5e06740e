// Package expr models the query language of the paper: parameterized
// templates of the form
//
//	qt: select Ls from R1, R2, ..., Rn where Cjoin and Cselect
//
// (Section 2.1), where Cjoin holds equi-join predicates plus
// parameterless single-relation predicates, and Cselect is a
// conjunction of m selection-condition templates C1..Cm, each a
// disjunction of either equalities or pairwise-disjoint intervals over
// one attribute.
package expr

import (
	"errors"
	"fmt"
	"strings"

	"pmv/internal/value"
)

// ErrMalformed reports an invalid template or query instance.
var ErrMalformed = errors.New("expr: malformed")

// ColumnRef names an attribute as relation.column.
type ColumnRef struct {
	Rel string `json:"rel"`
	Col string `json:"col"`
}

// String renders the reference SQL-style.
func (c ColumnRef) String() string { return c.Rel + "." + c.Col }

// CompareOp is a scalar comparison operator for fixed predicates.
type CompareOp uint8

// Comparison operators.
const (
	OpEq CompareOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String renders the operator.
func (op CompareOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("CompareOp(%d)", uint8(op))
	}
}

// Eval applies the operator to (a, b). Comparisons with NULL are false.
func (op CompareOp) Eval(a, b value.Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	c := value.Compare(a, b)
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	default:
		return false
	}
}

// JoinPred is one equi-join predicate Left = Right.
type JoinPred struct {
	Left  ColumnRef `json:"left"`
	Right ColumnRef `json:"right"`
}

// FixedPred is a parameterless single-relation predicate that lives in
// Cjoin (e.g. R1.b = 100 in the paper's grammar).
type FixedPred struct {
	Col ColumnRef   `json:"col"`
	Op  CompareOp   `json:"op"`
	Val value.Value `json:"val"`
}

// CondForm distinguishes the two disjunctive forms of Section 2.1.
type CondForm uint8

// Selection-condition forms.
const (
	// EqualityForm: ∨ (R.a = v_r)
	EqualityForm CondForm = iota
	// IntervalForm: ∨ (v_r < R.a < w_r), intervals pairwise disjoint
	IntervalForm
)

// CondTemplate is one selection-condition template Ci: the attribute it
// constrains and which disjunctive form its instances take.
type CondTemplate struct {
	Col  ColumnRef `json:"col"`
	Form CondForm  `json:"form"`
}

// Template is one parameterized query template qt.
type Template struct {
	Name      string         `json:"name"`
	Relations []string       `json:"relations"` // R1..Rn in plan (driver-first) order
	Select    []ColumnRef    `json:"select"`    // Ls
	Join      []JoinPred     `json:"join"`
	Fixed     []FixedPred    `json:"fixed"`
	Conds     []CondTemplate `json:"conds"` // C1..Cm
}

// Validate checks structural consistency of the template.
func (t *Template) Validate() error {
	if len(t.Relations) == 0 {
		return fmt.Errorf("%w: template %q has no relations", ErrMalformed, t.Name)
	}
	rels := make(map[string]bool, len(t.Relations))
	for _, r := range t.Relations {
		if rels[r] {
			return fmt.Errorf("%w: template %q lists relation %q twice (self-joins need aliases)", ErrMalformed, t.Name, r)
		}
		rels[r] = true
	}
	check := func(c ColumnRef) error {
		if !rels[c.Rel] {
			return fmt.Errorf("%w: template %q references unknown relation in %s", ErrMalformed, t.Name, c)
		}
		return nil
	}
	for _, c := range t.Select {
		if err := check(c); err != nil {
			return err
		}
	}
	for _, j := range t.Join {
		if err := check(j.Left); err != nil {
			return err
		}
		if err := check(j.Right); err != nil {
			return err
		}
	}
	for _, f := range t.Fixed {
		if err := check(f.Col); err != nil {
			return err
		}
	}
	if len(t.Conds) == 0 {
		return fmt.Errorf("%w: template %q has no selection conditions", ErrMalformed, t.Name)
	}
	for _, c := range t.Conds {
		if err := check(c.Col); err != nil {
			return err
		}
	}
	return nil
}

// EachColumn calls fn with every column reference the template reads:
// its select list, conditions, join predicates and fixed predicates, in
// that order. A column named twice is passed twice.
func (t *Template) EachColumn(fn func(ColumnRef)) {
	for _, c := range t.Select {
		fn(c)
	}
	for _, c := range t.Conds {
		fn(c.Col)
	}
	for _, j := range t.Join {
		fn(j.Left)
		fn(j.Right)
	}
	for _, f := range t.Fixed {
		fn(f.Col)
	}
}

// String renders the template as pseudo-SQL for diagnostics.
func (t *Template) String() string {
	var sb strings.Builder
	sb.WriteString("select ")
	for i, c := range t.Select {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(c.String())
	}
	sb.WriteString(" from ")
	sb.WriteString(strings.Join(t.Relations, ", "))
	sb.WriteString(" where ...")
	return sb.String()
}

// Interval is one (possibly unbounded, possibly closed) interval over
// an attribute. A NULL bound means unbounded on that side.
type Interval struct {
	Lo, Hi         value.Value
	LoIncl, HiIncl bool
}

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v value.Value) bool {
	if v.IsNull() {
		return false
	}
	if !iv.Lo.IsNull() {
		c := value.Compare(v, iv.Lo)
		if c < 0 || (c == 0 && !iv.LoIncl) {
			return false
		}
	}
	if !iv.Hi.IsNull() {
		c := value.Compare(v, iv.Hi)
		if c > 0 || (c == 0 && !iv.HiIncl) {
			return false
		}
	}
	return true
}

// Overlaps reports whether two intervals share any point.
func (iv Interval) Overlaps(o Interval) bool {
	// iv entirely below o?
	if !iv.Hi.IsNull() && !o.Lo.IsNull() {
		c := value.Compare(iv.Hi, o.Lo)
		if c < 0 || (c == 0 && !(iv.HiIncl && o.LoIncl)) {
			return false
		}
	}
	// iv entirely above o?
	if !iv.Lo.IsNull() && !o.Hi.IsNull() {
		c := value.Compare(iv.Lo, o.Hi)
		if c > 0 || (c == 0 && !(iv.LoIncl && o.HiIncl)) {
			return false
		}
	}
	return true
}

// Intersect returns the intersection of two overlapping intervals.
func (iv Interval) Intersect(o Interval) Interval {
	out := iv
	if iv.Lo.IsNull() || (!o.Lo.IsNull() && higherLo(o, iv)) {
		out.Lo, out.LoIncl = o.Lo, o.LoIncl
	}
	if iv.Hi.IsNull() || (!o.Hi.IsNull() && lowerHi(o, iv)) {
		out.Hi, out.HiIncl = o.Hi, o.HiIncl
	}
	return out
}

// higherLo reports whether a's lower bound is stricter than b's.
func higherLo(a, b Interval) bool {
	if b.Lo.IsNull() {
		return true
	}
	c := value.Compare(a.Lo, b.Lo)
	return c > 0 || (c == 0 && !a.LoIncl && b.LoIncl)
}

// lowerHi reports whether a's upper bound is stricter than b's.
func lowerHi(a, b Interval) bool {
	if b.Hi.IsNull() {
		return true
	}
	c := value.Compare(a.Hi, b.Hi)
	return c < 0 || (c == 0 && !a.HiIncl && b.HiIncl)
}

// String renders the interval.
func (iv Interval) String() string {
	var sb strings.Builder
	if iv.LoIncl {
		sb.WriteByte('[')
	} else {
		sb.WriteByte('(')
	}
	if iv.Lo.IsNull() {
		sb.WriteString("-inf")
	} else {
		sb.WriteString(iv.Lo.String())
	}
	sb.WriteString(", ")
	if iv.Hi.IsNull() {
		sb.WriteString("+inf")
	} else {
		sb.WriteString(iv.Hi.String())
	}
	if iv.HiIncl {
		sb.WriteByte(']')
	} else {
		sb.WriteByte(')')
	}
	return sb.String()
}

// CondInstance is one bound selection condition Ci: the parameter list
// of a query. Exactly one of Values/Intervals is used, matching the
// template's form.
type CondInstance struct {
	Values    []value.Value // equality form
	Intervals []Interval    // interval form; pairwise disjoint
}

// Matches reports whether attribute value v satisfies the condition.
func (ci CondInstance) Matches(form CondForm, v value.Value) bool {
	switch form {
	case EqualityForm:
		for _, ev := range ci.Values {
			if value.Equal(v, ev) {
				return true
			}
		}
		return false
	case IntervalForm:
		for _, iv := range ci.Intervals {
			if iv.Contains(v) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// Query is one bound instance of a template: per-condition parameters.
type Query struct {
	Template *Template
	Conds    []CondInstance // len == len(Template.Conds)
}

// Validate checks that the instance matches its template: right arity,
// right forms, intervals pairwise disjoint (the paper requires it).
func (q *Query) Validate() error {
	if q.Template == nil {
		return fmt.Errorf("%w: query without template", ErrMalformed)
	}
	if len(q.Conds) != len(q.Template.Conds) {
		return fmt.Errorf("%w: query has %d conditions, template %q has %d",
			ErrMalformed, len(q.Conds), q.Template.Name, len(q.Template.Conds))
	}
	for i, ci := range q.Conds {
		form := q.Template.Conds[i].Form
		switch form {
		case EqualityForm:
			if len(ci.Values) == 0 || len(ci.Intervals) != 0 {
				return fmt.Errorf("%w: condition %d wants equality values", ErrMalformed, i)
			}
			// Disjuncts must be distinct (the equality analogue of the
			// paper's disjoint-intervals requirement); duplicates would
			// both double-deliver results and duplicate bcps.
			for a := 0; a < len(ci.Values); a++ {
				for b := a + 1; b < len(ci.Values); b++ {
					if value.Equal(ci.Values[a], ci.Values[b]) {
						return fmt.Errorf("%w: condition %d lists value %s twice",
							ErrMalformed, i, ci.Values[a])
					}
				}
			}
		case IntervalForm:
			if len(ci.Intervals) == 0 || len(ci.Values) != 0 {
				return fmt.Errorf("%w: condition %d wants intervals", ErrMalformed, i)
			}
			for a := 0; a < len(ci.Intervals); a++ {
				for b := a + 1; b < len(ci.Intervals); b++ {
					if ci.Intervals[a].Overlaps(ci.Intervals[b]) {
						return fmt.Errorf("%w: condition %d intervals %s and %s overlap",
							ErrMalformed, i, ci.Intervals[a], ci.Intervals[b])
					}
				}
			}
		}
	}
	return nil
}

// CombinationFactor returns the product of per-condition disjunct
// counts — "h" in the paper's experiments when every disjunct maps to
// one basic condition part.
func (q *Query) CombinationFactor() int {
	h := 1
	for _, ci := range q.Conds {
		if len(ci.Values) > 0 {
			h *= len(ci.Values)
		} else {
			h *= len(ci.Intervals)
		}
	}
	return h
}
