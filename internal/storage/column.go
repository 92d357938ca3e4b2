package storage

import "fmt"

// Column is a typed, densely packed column of values. Exactly one of the
// data slices is populated, matching Kind.
type Column struct {
	Name string
	Kind Kind

	ints    []int64
	floats  []float64
	strings []string
}

// NewColumn returns an empty column with the given name and kind.
func NewColumn(name string, kind Kind) *Column {
	return &Column{Name: name, Kind: kind}
}

// ColumnOf returns a column named name that takes ownership of vals —
// no value is copied or boxed. It is how loaders publish decoded data;
// the caller must not touch vals afterwards.
func ColumnOf[T int64 | float64 | string](name string, vals []T) *Column {
	c := &Column{Name: name}
	switch v := any(vals).(type) {
	case []int64:
		c.Kind, c.ints = KindInt64, v
	case []float64:
		c.Kind, c.floats = KindFloat64, v
	case []string:
		c.Kind, c.strings = KindString, v
	}
	return c
}

// Len returns the number of values in the column.
func (c *Column) Len() int {
	switch c.Kind {
	case KindInt64:
		return len(c.ints)
	case KindFloat64:
		return len(c.floats)
	default:
		return len(c.strings)
	}
}

// Append adds a value at the end of the column.
func (c *Column) Append(v Value) {
	if v.Kind != c.Kind {
		panic(fmt.Sprintf("storage: append %v value to %v column %q", v.Kind, c.Kind, c.Name))
	}
	switch c.Kind {
	case KindInt64:
		c.ints = append(c.ints, v.I)
	case KindFloat64:
		c.floats = append(c.floats, v.F)
	default:
		c.strings = append(c.strings, v.S)
	}
}

// AppendInt64 adds an int64 value without boxing.
func (c *Column) AppendInt64(v int64) { c.ints = append(c.ints, v) }

// AppendColumn appends the full contents of src (same kind) — the bulk,
// boxing-free form of Append used when checkpoint publication copies an
// insert buffer into base storage.
func (c *Column) AppendColumn(src *Column) {
	if src.Kind != c.Kind {
		panic(fmt.Sprintf("storage: append %v column to %v column %q", src.Kind, c.Kind, c.Name))
	}
	switch c.Kind {
	case KindInt64:
		c.ints = append(c.ints, src.ints...)
	case KindFloat64:
		c.floats = append(c.floats, src.floats...)
	default:
		c.strings = append(c.strings, src.strings...)
	}
}

// Get returns the value at position i.
func (c *Column) Get(i int) Value {
	switch c.Kind {
	case KindInt64:
		return I64(c.ints[i])
	case KindFloat64:
		return F64(c.floats[i])
	default:
		return Str(c.strings[i])
	}
}

// Int64At returns the int64 value at position i; the column must be
// KindInt64.
func (c *Column) Int64At(i int) int64 { return c.ints[i] }

// StringAt returns the string value at position i; the column must be
// KindString.
func (c *Column) StringAt(i int) string { return c.strings[i] }

// Set overwrites the value at position i.
func (c *Column) Set(i int, v Value) {
	if v.Kind != c.Kind {
		panic(fmt.Sprintf("storage: set %v value in %v column %q", v.Kind, c.Kind, c.Name))
	}
	switch c.Kind {
	case KindInt64:
		c.ints[i] = v.I
	case KindFloat64:
		c.floats[i] = v.F
	default:
		c.strings[i] = v.S
	}
}

// Int64s exposes the raw int64 data for vectorized readers. The column
// must be KindInt64; callers must not modify the slice.
func (c *Column) Int64s() []int64 { return c.ints }

// Float64s exposes the raw float64 data. The column must be KindFloat64.
func (c *Column) Float64s() []float64 { return c.floats }

// Strings exposes the raw string data. The column must be KindString.
func (c *Column) Strings() []string { return c.strings }

// DeletePositions removes the values at the given ascending positions,
// compacting the column in a single pass.
func (c *Column) DeletePositions(positions []uint64) {
	if len(positions) == 0 {
		return
	}
	switch c.Kind {
	case KindInt64:
		c.ints = deleteCompact(c.ints, positions)
	case KindFloat64:
		c.floats = deleteCompact(c.floats, positions)
	default:
		c.strings = deleteCompact(c.strings, positions)
	}
}

func deleteCompact[T any](data []T, positions []uint64) []T {
	w := int(positions[0])
	pi := 0
	for r := int(positions[0]); r < len(data); r++ {
		if pi < len(positions) && uint64(r) == positions[pi] {
			pi++
			continue
		}
		data[w] = data[r]
		w++
	}
	return data[:w]
}

// Freeze returns a read-only view of the column with its own slice
// headers, capped at the current length. The backing arrays are shared
// with the live column: appends to the live column never affect the
// frozen view (they write beyond the frozen length, or reallocate), so
// frozen views support the engine's append-in-place checkpoint path.
// In-place overwrites or compactions of the live column DO show through;
// the engine routes those through Clone + generation swap instead.
func (c *Column) Freeze() *Column {
	return &Column{
		Name:    c.Name,
		Kind:    c.Kind,
		ints:    c.ints[:len(c.ints):len(c.ints)],
		floats:  c.floats[:len(c.floats):len(c.floats)],
		strings: c.strings[:len(c.strings):len(c.strings)],
	}
}

// Clone returns a deep copy of the column.
func (c *Column) Clone() *Column {
	n := &Column{Name: c.Name, Kind: c.Kind}
	n.ints = append([]int64(nil), c.ints...)
	n.floats = append([]float64(nil), c.floats...)
	n.strings = append([]string(nil), c.strings...)
	return n
}

// gather returns a new column whose value i is c's value perm[i].
func (c *Column) gather(perm []int) *Column {
	n := &Column{Name: c.Name, Kind: c.Kind}
	switch c.Kind {
	case KindInt64:
		n.ints = gatherSlice(c.ints, perm)
	case KindFloat64:
		n.floats = gatherSlice(c.floats, perm)
	default:
		n.strings = gatherSlice(c.strings, perm)
	}
	return n
}

func gatherSlice[T any](src []T, perm []int) []T {
	dst := make([]T, len(perm))
	for i, r := range perm {
		dst[i] = src[r]
	}
	return dst
}

// withCapacity returns a copy of c whose backing array holds capacity
// values, so appends up to that length do not reallocate.
func (c *Column) withCapacity(capacity int) *Column {
	n := &Column{Name: c.Name, Kind: c.Kind}
	switch c.Kind {
	case KindInt64:
		n.ints = append(make([]int64, 0, capacity), c.ints...)
	case KindFloat64:
		n.floats = append(make([]float64, 0, capacity), c.floats...)
	default:
		n.strings = append(make([]string, 0, capacity), c.strings...)
	}
	return n
}

// SizeBytes estimates the memory consumed by the column data.
func (c *Column) SizeBytes() uint64 {
	switch c.Kind {
	case KindInt64:
		return uint64(len(c.ints)) * 8
	case KindFloat64:
		return uint64(len(c.floats)) * 8
	default:
		var sz uint64
		for _, s := range c.strings {
			sz += uint64(len(s)) + 16
		}
		return sz
	}
}
