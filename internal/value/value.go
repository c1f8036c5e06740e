// Package value defines the typed scalar values and tuples that flow
// through the engine: storage, indexes, the executor, and the PMV layer
// all exchange data as value.Tuple.
//
// Values are deliberately small and immutable. A Value is a tagged union
// of the SQL-ish types the paper's templates need: 64-bit integers,
// 64-bit floats, strings, dates (days since epoch), and booleans, plus
// NULL. Comparison follows SQL ordering with NULL sorting first.
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Type enumerates the scalar types supported by the engine.
type Type uint8

// Supported scalar types.
const (
	TypeNull Type = iota
	TypeInt
	TypeFloat
	TypeString
	TypeDate
	TypeBool
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return "BIGINT"
	case TypeFloat:
		return "DOUBLE"
	case TypeString:
		return "VARCHAR"
	case TypeDate:
		return "DATE"
	case TypeBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Value is a single typed scalar. The zero Value is NULL.
type Value struct {
	typ Type
	i   int64 // TypeInt, TypeDate (days since 1970-01-01), TypeBool (0/1)
	f   float64
	s   string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{typ: TypeInt, i: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{typ: TypeFloat, f: v} }

// Str returns a string value.
func Str(v string) Value { return Value{typ: TypeString, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{typ: TypeBool, i: i}
}

// Date returns a date value from days since the Unix epoch.
func Date(days int64) Value { return Value{typ: TypeDate, i: days} }

// DateFromTime returns a date value for the calendar day of t (UTC).
func DateFromTime(t time.Time) Value {
	return Date(t.UTC().Unix() / 86400)
}

// DateFromString parses a YYYY-MM-DD date.
func DateFromString(s string) (Value, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return Null(), fmt.Errorf("value: bad date %q: %w", s, err)
	}
	return DateFromTime(t), nil
}

// Type reports the value's type.
func (v Value) Type() Type { return v.typ }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.typ == TypeNull }

// Int64 returns the integer payload. It panics if the value is not an
// integer, date, or boolean.
func (v Value) Int64() int64 {
	switch v.typ {
	case TypeInt, TypeDate, TypeBool:
		return v.i
	}
	panic(fmt.Sprintf("value: Int64 on %s", v.typ))
}

// Float64 returns the float payload, widening integers.
func (v Value) Float64() float64 {
	switch v.typ {
	case TypeFloat:
		return v.f
	case TypeInt, TypeDate, TypeBool:
		return float64(v.i)
	}
	panic(fmt.Sprintf("value: Float64 on %s", v.typ))
}

// Str returns the string payload. It panics on non-strings.
func (v Value) Str() string {
	if v.typ != TypeString {
		panic(fmt.Sprintf("value: Str on %s", v.typ))
	}
	return v.s
}

// BoolVal returns the boolean payload. It panics on non-booleans.
func (v Value) BoolVal() bool {
	if v.typ != TypeBool {
		panic(fmt.Sprintf("value: BoolVal on %s", v.typ))
	}
	return v.i != 0
}

// String renders the value for display.
func (v Value) String() string {
	switch v.typ {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return strconv.FormatInt(v.i, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case TypeString:
		return v.s
	case TypeDate:
		return time.Unix(v.i*86400, 0).UTC().Format("2006-01-02")
	case TypeBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	default:
		return fmt.Sprintf("Value(%d)", uint8(v.typ))
	}
}

// Compare orders two values. NULL sorts before everything; values of
// different non-null types order by type tag (the engine never compares
// mixed types on a hot path, but a total order keeps sort stable).
// Returns -1, 0, or +1.
func Compare(a, b Value) int {
	if a.typ != b.typ {
		// Int and Float compare numerically across the type boundary.
		if isNumeric(a.typ) && isNumeric(b.typ) {
			return cmpFloat(a.Float64(), b.Float64())
		}
		return cmpInt(int64(a.typ), int64(b.typ))
	}
	switch a.typ {
	case TypeNull:
		return 0
	case TypeInt, TypeDate, TypeBool:
		return cmpInt(a.i, b.i)
	case TypeFloat:
		return cmpFloat(a.f, b.f)
	case TypeString:
		return strings.Compare(a.s, b.s)
	default:
		return 0
	}
}

func isNumeric(t Type) bool { return t == TypeInt || t == TypeFloat }

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	// NaN handling: NaN sorts before all numbers, equal to itself.
	case math.IsNaN(a) && math.IsNaN(b):
		return 0
	case math.IsNaN(a):
		return -1
	default:
		return 1
	}
}

// Equal reports whether two values compare equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Identical reports whether a and b are the same value bit for bit:
// one type and, for floats, the same bits, so -0 differs from +0 and
// one NaN from another, which Equal calls equal. An index key, which
// stores the bits, changes exactly when Identical is false.
func Identical(a, b Value) bool {
	return a.typ == b.typ && a.i == b.i && a.s == b.s && math.Float64bits(a.f) == math.Float64bits(b.f)
}

// Tuple is an ordered list of values: one row as seen by the executor.
type Tuple []Value

// Clone returns a copy of the tuple that shares no backing array.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// String renders the tuple for display.
func (t Tuple) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

// CompareTuples orders tuples lexicographically.
func CompareTuples(a, b Tuple) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return cmpInt(int64(len(a)), int64(len(b)))
}
