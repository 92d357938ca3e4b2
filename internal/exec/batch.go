// Package exec implements the vectorized, pull-based query executor the
// PatchIndex integrates into: batch-at-a-time operators in the style of
// MonetDB/X100 (Scan, Select with the patch-aware selection modes,
// HashJoin with dynamic range propagation, MergeJoin, HashAggregate,
// Sort, Merge, Union, Project, Reuse caching).
package exec

import (
	"fmt"

	"patchindex/internal/storage"
)

// BatchSize is the number of tuples processed per operator invocation.
const BatchSize = 1024

// Vec is a typed column vector within a batch. Exactly one data slice is
// populated, matching Kind.
type Vec struct {
	Kind storage.Kind
	I64  []int64
	F64  []float64
	Str  []string
}

// NewVec returns an empty vector of the given kind with capacity cap.
func NewVec(kind storage.Kind, cap int) Vec {
	v := Vec{Kind: kind}
	switch kind {
	case storage.KindInt64:
		v.I64 = make([]int64, 0, cap)
	case storage.KindFloat64:
		v.F64 = make([]float64, 0, cap)
	default:
		v.Str = make([]string, 0, cap)
	}
	return v
}

// Len returns the number of values in the vector.
func (v *Vec) Len() int {
	switch v.Kind {
	case storage.KindInt64:
		return len(v.I64)
	case storage.KindFloat64:
		return len(v.F64)
	default:
		return len(v.Str)
	}
}

// Append adds the value at position i of src to v.
func (v *Vec) Append(src *Vec, i int) {
	switch v.Kind {
	case storage.KindInt64:
		v.I64 = append(v.I64, src.I64[i])
	case storage.KindFloat64:
		v.F64 = append(v.F64, src.F64[i])
	default:
		v.Str = append(v.Str, src.Str[i])
	}
}

// Value returns the boxed value at position i.
func (v *Vec) Value(i int) storage.Value {
	switch v.Kind {
	case storage.KindInt64:
		return storage.I64(v.I64[i])
	case storage.KindFloat64:
		return storage.F64(v.F64[i])
	default:
		return storage.Str(v.Str[i])
	}
}

// Reset truncates the vector to zero length, keeping capacity.
func (v *Vec) Reset() {
	v.I64 = v.I64[:0]
	v.F64 = v.F64[:0]
	v.Str = v.Str[:0]
}

// Batch is a horizontal slice of tuples flowing between operators.
// RowIDs carries the (partition-local) tuple identifiers the PatchIndex
// selection modes operate on; operators that destroy tuple identity
// (aggregation, join output) emit nil RowIDs.
type Batch struct {
	Schema storage.Schema
	Cols   []Vec
	RowIDs []uint64
}

// NewBatch returns an empty batch for the given schema.
func NewBatch(schema storage.Schema) *Batch {
	b := &Batch{Schema: schema, Cols: make([]Vec, len(schema))}
	for i, def := range schema {
		b.Cols[i] = NewVec(def.Kind, BatchSize)
	}
	return b
}

// Len returns the number of tuples in the batch.
func (b *Batch) Len() int {
	if len(b.Cols) == 0 {
		return len(b.RowIDs)
	}
	return b.Cols[0].Len()
}

// AppendRange appends rows [lo, hi) of src (same schema) to b, one
// slice append per column; rowIDs come along when src carries them.
func (b *Batch) AppendRange(src *Batch, lo, hi int) {
	for c := range b.Cols {
		dst, from := &b.Cols[c], &src.Cols[c]
		switch dst.Kind {
		case storage.KindInt64:
			dst.I64 = append(dst.I64, from.I64[lo:hi]...)
		case storage.KindFloat64:
			dst.F64 = append(dst.F64, from.F64[lo:hi]...)
		default:
			dst.Str = append(dst.Str, from.Str[lo:hi]...)
		}
	}
	if src.RowIDs != nil {
		b.RowIDs = append(b.RowIDs, src.RowIDs[lo:hi]...)
	}
}

// Reset truncates the batch to zero tuples, keeping capacity.
func (b *Batch) Reset() {
	for c := range b.Cols {
		b.Cols[c].Reset()
	}
	b.RowIDs = b.RowIDs[:0]
}

// Row returns tuple i as a boxed row (for tests and result printing).
func (b *Batch) Row(i int) storage.Row {
	row := make(storage.Row, len(b.Cols))
	for c := range b.Cols {
		row[c] = b.Cols[c].Value(i)
	}
	return row
}

// Operator is a pull-based executor node. Next returns the next batch or
// nil at end of stream. A returned batch stays valid until the operator's
// next Next or Close: operators reuse their output buffers, so a consumer
// that keeps rows longer copies them (Merge relies on this and reads its
// children's batches in place). Operators are single-use: after Next
// returns nil, behaviour of further calls is undefined until Close.
type Operator interface {
	// Schema describes the tuples the operator produces.
	Schema() storage.Schema
	// Next returns the next batch, or nil at end of stream.
	Next() (*Batch, error)
	// Close releases resources; it must be called exactly once.
	Close()
}

// Slice returns a view of elements [lo, hi) sharing the underlying
// storage.
func (v *Vec) Slice(lo, hi int) Vec {
	out := Vec{Kind: v.Kind}
	switch v.Kind {
	case storage.KindInt64:
		out.I64 = v.I64[lo:hi]
	case storage.KindFloat64:
		out.F64 = v.F64[lo:hi]
	default:
		out.Str = v.Str[lo:hi]
	}
	return out
}

// Clone returns a deep copy of the batch. Operators reuse their output
// buffers between Next calls, so consumers that retain batches must
// clone them.
func (b *Batch) Clone() *Batch {
	cp := &Batch{Schema: b.Schema, Cols: make([]Vec, len(b.Cols))}
	for c := range b.Cols {
		src := &b.Cols[c]
		v := Vec{Kind: src.Kind}
		switch src.Kind {
		case storage.KindInt64:
			v.I64 = append([]int64(nil), src.I64...)
		case storage.KindFloat64:
			v.F64 = append([]float64(nil), src.F64...)
		default:
			v.Str = append([]string(nil), src.Str...)
		}
		cp.Cols[c] = v
	}
	if b.RowIDs != nil {
		cp.RowIDs = append([]uint64(nil), b.RowIDs...)
	}
	return cp
}

// Gather appends the rows of src selected by sel to b (column-at-a-time,
// the vectorized selection idiom: the type dispatch happens once per
// column per batch instead of once per row).
func (b *Batch) Gather(src *Batch, sel []int32) {
	for c := range b.Cols {
		gatherVec(&b.Cols[c], &src.Cols[c], sel)
	}
	if src.RowIDs != nil {
		for _, i := range sel {
			b.RowIDs = append(b.RowIDs, src.RowIDs[i])
		}
	}
}

// gatherVec appends the elements of src selected by sel to dst.
func gatherVec(dst, src *Vec, sel []int32) {
	switch dst.Kind {
	case storage.KindInt64:
		for _, i := range sel {
			dst.I64 = append(dst.I64, src.I64[i])
		}
	case storage.KindFloat64:
		for _, i := range sel {
			dst.F64 = append(dst.F64, src.F64[i])
		}
	default:
		for _, i := range sel {
			dst.Str = append(dst.Str, src.Str[i])
		}
	}
}

// SliceView returns a zero-copy view of rows [lo, hi). The view shares
// storage with b and is only valid while b is.
func (b *Batch) SliceView(lo, hi int) *Batch {
	out := &Batch{Schema: b.Schema, Cols: make([]Vec, len(b.Cols))}
	for c := range b.Cols {
		out.Cols[c] = b.Cols[c].Slice(lo, hi)
	}
	if b.RowIDs != nil {
		out.RowIDs = b.RowIDs[lo:hi]
	}
	return out
}

// Drain pulls child to completion and returns copies of all produced
// batches (operators reuse their output buffers between Next calls).
func Drain(op Operator) ([]*Batch, error) {
	defer op.Close()
	var out []*Batch
	for {
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		out = append(out, b.Clone())
	}
}

// Collect pulls child to completion and returns all tuples as boxed rows.
func Collect(op Operator) ([]storage.Row, error) {
	batches, err := Drain(op)
	if err != nil {
		return nil, err
	}
	var rows []storage.Row
	for _, b := range batches {
		for i := 0; i < b.Len(); i++ {
			rows = append(rows, b.Row(i))
		}
	}
	return rows, nil
}

// CollectInt64 drains a single-column BIGINT operator into a slice.
func CollectInt64(op Operator) ([]int64, error) {
	batches, err := Drain(op)
	if err != nil {
		return nil, err
	}
	var out []int64
	for _, b := range batches {
		out = append(out, b.Cols[0].I64...)
	}
	return out, nil
}

// Count pulls child to completion and returns the tuple count. It only
// sums batch lengths: nothing is copied.
func Count(op Operator) (int, error) {
	defer op.Close()
	n := 0
	for {
		b, err := op.Next()
		if err != nil {
			return 0, err
		}
		if b == nil {
			return n, nil
		}
		n += b.Len()
	}
}

func schemaConcat(a, b storage.Schema) storage.Schema {
	out := make(storage.Schema, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}

func mustInt64Col(schema storage.Schema, col int, op string) {
	if schema[col].Kind != storage.KindInt64 {
		panic(fmt.Sprintf("exec: %s requires BIGINT column, got %v (%s)", op, schema[col].Kind, schema[col].Name))
	}
}
