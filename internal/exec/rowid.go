package exec

import "patchindex/internal/storage"

// WithRowIDColumn appends the child's rowIDs as an extra BIGINT column —
// used by the insert handling query, which joins on values but needs the
// rowIDs of both sides in its output.
type WithRowIDColumn struct {
	child  Operator
	schema storage.Schema
	out    *Batch
}

// NewWithRowIDColumn appends a rowID column named name to child's schema.
func NewWithRowIDColumn(child Operator, name string) *WithRowIDColumn {
	schema := append(storage.Schema{}, child.Schema()...)
	schema = append(schema, storage.ColumnDef{Name: name, Kind: storage.KindInt64})
	return &WithRowIDColumn{child: child, schema: schema}
}

// Schema implements Operator.
func (w *WithRowIDColumn) Schema() storage.Schema { return w.schema }

// Next implements Operator.
func (w *WithRowIDColumn) Next() (*Batch, error) {
	in, err := w.child.Next()
	if err != nil || in == nil {
		return nil, err
	}
	if in.RowIDs == nil {
		panic("exec: WithRowIDColumn requires rowIDs from its child")
	}
	if w.out == nil {
		w.out = &Batch{Schema: w.schema, Cols: make([]Vec, len(w.schema))}
	}
	copy(w.out.Cols, in.Cols)
	rid := &w.out.Cols[len(w.schema)-1]
	rid.Kind = storage.KindInt64
	rid.I64 = rid.I64[:0]
	for _, r := range in.RowIDs {
		rid.I64 = append(rid.I64, int64(r))
	}
	w.out.RowIDs = in.RowIDs
	return w.out, nil
}

// Close implements Operator.
func (w *WithRowIDColumn) Close() {
	w.child.Close()
	w.out = nil
}
