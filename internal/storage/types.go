// Package storage implements the read-optimized columnar table storage
// the PatchIndex is built on: typed columns, range-partitioned tables,
// and per-block small materialized aggregates (minmax indexes, Moerkotte
// 1998) that enable scan pruning and range propagation.
package storage

import (
	"cmp"
	"fmt"
)

// Kind identifies the physical type of a column.
type Kind uint8

const (
	// KindInt64 holds 64-bit signed integers (also used for dates as day
	// numbers and for surrogate keys).
	KindInt64 Kind = iota
	// KindFloat64 holds 64-bit floating point values.
	KindFloat64
	// KindString holds variable-length strings.
	KindString
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt64:
		return "BIGINT"
	case KindFloat64:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed cell value. Only the field matching Kind
// is meaningful.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
}

// I64 returns an int64 Value.
func I64(v int64) Value { return Value{Kind: KindInt64, I: v} }

// F64 returns a float64 Value.
func F64(v float64) Value { return Value{Kind: KindFloat64, F: v} }

// Str returns a string Value.
func Str(v string) Value { return Value{Kind: KindString, S: v} }

// Less reports whether v sorts before o. Values must share the same Kind.
// DOUBLE values order as cmp.Less does, NaN before every other value.
func (v Value) Less(o Value) bool {
	switch v.Kind {
	case KindInt64:
		return v.I < o.I
	case KindFloat64:
		return cmp.Less(v.F, o.F)
	default:
		return v.S < o.S
	}
}

// Equal reports whether v equals o. Values must share the same Kind.
func (v Value) Equal(o Value) bool {
	switch v.Kind {
	case KindInt64:
		return v.I == o.I
	case KindFloat64:
		return v.F == o.F
	default:
		return v.S == o.S
	}
}

// String renders the value for debugging and result printing.
func (v Value) String() string {
	switch v.Kind {
	case KindInt64:
		return fmt.Sprintf("%d", v.I)
	case KindFloat64:
		return fmt.Sprintf("%g", v.F)
	default:
		return v.S
	}
}

// ColumnDef describes one column of a table schema.
type ColumnDef struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of column definitions.
type Schema []ColumnDef

// ColumnIndex returns the position of the named column, or -1.
func (s Schema) ColumnIndex(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// MustColumnIndex is ColumnIndex but panics on unknown names; used where
// a miss is a programming error.
func (s Schema) MustColumnIndex(name string) int {
	i := s.ColumnIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("storage: unknown column %q", name))
	}
	return i
}

// Row is a full tuple in schema order.
type Row []Value
