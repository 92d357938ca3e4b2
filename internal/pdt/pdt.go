// Package pdt implements a positional delta structure in the spirit of
// Positional Delta Trees (Héman et al., SIGMOD 2010), the in-memory
// update mechanism of read-optimized column stores that the paper's
// update handling builds on (Section 5): table updates are kept in memory
// as positional deltas instead of rewriting the read-optimized base
// storage, and scans merge the deltas on the fly. PatchIndex insert
// handling scans "the PDTs of the current query" to see inserted tuples.
//
// The structure here is a flat positional delta (sorted delete positions,
// columnar insert buffer, per-cell modify map) rather than a tree; it
// provides the same interface semantics at the scale of this
// reproduction, and Checkpoint propagates the delta into base storage.
package pdt

import (
	"fmt"
	"sort"

	"patchindex/internal/storage"
)

// Delta holds the in-memory updates pending against one base partition.
type Delta struct {
	schema   storage.Schema
	baseRows int // rows in the base partition at creation/last checkpoint

	inserts  []*storage.Column       // columnar buffer of inserted rows
	deletes  []int                   // sorted base positions marked deleted
	modifies []map[int]storage.Value // per column: basePos -> new value
}

// NewDelta returns an empty delta against a base partition that currently
// holds baseRows rows.
func NewDelta(schema storage.Schema, baseRows int) *Delta {
	d := &Delta{schema: schema, baseRows: baseRows}
	d.inserts = make([]*storage.Column, len(schema))
	d.modifies = make([]map[int]storage.Value, len(schema))
	for i, def := range schema {
		d.inserts[i] = storage.NewColumn(def.Name, def.Kind)
	}
	return d
}

// BaseRows returns the base partition row count the delta is relative to.
func (d *Delta) BaseRows() int { return d.baseRows }

// NumInserts returns the number of buffered inserted rows.
func (d *Delta) NumInserts() int { return d.inserts[0].Len() }

// NumDeletes returns the number of base rows marked deleted.
func (d *Delta) NumDeletes() int { return len(d.deletes) }

// NumRows returns the logical row count of the merged view.
func (d *Delta) NumRows() int { return d.baseRows - len(d.deletes) + d.NumInserts() }

// Empty reports whether the delta holds no pending updates.
func (d *Delta) Empty() bool {
	if d.NumInserts() != 0 || len(d.deletes) != 0 {
		return false
	}
	for _, m := range d.modifies {
		if len(m) != 0 {
			return false
		}
	}
	return true
}

// InsertsOnly reports whether the delta holds only inserts (no deletes
// or modifies). Base positions then still equal logical positions, so
// block-level pruning information about base storage remains valid.
func (d *Delta) InsertsOnly() bool {
	if len(d.deletes) != 0 {
		return false
	}
	for _, m := range d.modifies {
		if len(m) != 0 {
			return false
		}
	}
	return true
}

// Insert buffers a new tuple at the logical end of the view.
func (d *Delta) Insert(row storage.Row) {
	if len(row) != len(d.inserts) {
		panic(fmt.Sprintf("pdt: row width %d != schema width %d", len(row), len(d.inserts)))
	}
	for i, v := range row {
		d.inserts[i].Append(v)
	}
}

// InsertRows buffers a batch of tuples at the logical end of the view —
// the bulk form of Insert the engine's partitioned insert path publishes
// one partition chunk at a time. Appending column-by-column touches each
// insert-buffer column once per batch instead of once per row.
func (d *Delta) InsertRows(rows []storage.Row) {
	for _, row := range rows {
		if len(row) != len(d.inserts) {
			panic(fmt.Sprintf("pdt: row width %d != schema width %d", len(row), len(d.inserts)))
		}
	}
	for i, c := range d.inserts {
		for _, row := range rows {
			c.Append(row[i])
		}
	}
}

// survivors returns the number of base rows not marked deleted.
func (d *Delta) survivors() int { return d.baseRows - len(d.deletes) }

// Resolve translates a logical position of the merged view into either a
// base position (isInsert=false) or an index into the insert buffer
// (isInsert=true).
func (d *Delta) Resolve(logical int) (pos int, isInsert bool) {
	if logical < 0 || logical >= d.NumRows() {
		panic(fmt.Sprintf("pdt: logical position %d out of range [0,%d)", logical, d.NumRows()))
	}
	if logical >= d.survivors() {
		return logical - d.survivors(), true
	}
	// Find the base position p (not deleted) whose survivor rank equals
	// logical: p = logical + #deletes <= p, computed by binary search
	// since rank(p) = p - #deletes<=p is nondecreasing.
	lo, hi := logical, logical+len(d.deletes)
	for lo < hi {
		mid := (lo + hi) / 2
		if mid-d.deletedAtOrBelow(mid) < logical {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, false
}

// deletedAtOrBelow returns the number of deleted base positions <= p.
func (d *Delta) deletedAtOrBelow(p int) int {
	return sort.SearchInts(d.deletes, p+1)
}

// Delete removes the tuple at the given logical position from the view.
func (d *Delta) Delete(logical int) {
	pos, isInsert := d.Resolve(logical)
	if isInsert {
		for _, c := range d.inserts {
			c.DeletePositions([]uint64{uint64(pos)})
		}
		return
	}
	i := sort.SearchInts(d.deletes, pos)
	d.deletes = append(d.deletes, 0)
	copy(d.deletes[i+1:], d.deletes[i:])
	d.deletes[i] = pos
	for _, m := range d.modifies {
		delete(m, pos)
	}
}

// DeleteRows removes the tuples at the given ascending logical positions.
// Positions are interpreted against the state before the call.
func (d *Delta) DeleteRows(logical []int) {
	for i := len(logical) - 1; i >= 0; i-- {
		d.Delete(logical[i])
	}
}

// Modify overwrites one cell of the view.
func (d *Delta) Modify(logical, col int, v storage.Value) {
	pos, isInsert := d.Resolve(logical)
	if isInsert {
		d.inserts[col].Set(pos, v)
		return
	}
	if d.modifies[col] == nil {
		d.modifies[col] = make(map[int]storage.Value)
	}
	d.modifies[col][pos] = v
}

// Clone returns a deep copy of the delta. The engine's snapshot layer
// uses it for copy-on-write: a delta captured by a live snapshot is
// cloned before the next update mutates it, so the snapshot's sealed
// generation stays frozen.
func (d *Delta) Clone() *Delta {
	n := &Delta{schema: d.schema, baseRows: d.baseRows}
	n.inserts = make([]*storage.Column, len(d.inserts))
	for i, c := range d.inserts {
		n.inserts[i] = c.Clone()
	}
	n.deletes = append([]int(nil), d.deletes...)
	n.modifies = make([]map[int]storage.Value, len(d.modifies))
	for i, m := range d.modifies {
		if len(m) == 0 {
			continue
		}
		cp := make(map[int]storage.Value, len(m))
		for pos, v := range m {
			cp[pos] = v
		}
		n.modifies[i] = cp
	}
	return n
}

// ApplyTo propagates the delta into the base partition without touching
// the delta itself: modifies are applied in place, deletes compact the
// base columns, and the insert buffer is appended. Callers that keep
// using the delta afterwards must Reset it (or replace it) so it does
// not apply twice; Checkpoint bundles both steps.
func (d *Delta) ApplyTo(base *storage.Partition) {
	for col, m := range d.modifies {
		for pos, v := range m {
			base.SetValue(pos, col, v)
		}
	}
	if len(d.deletes) > 0 {
		positions := make([]uint64, len(d.deletes))
		for i, p := range d.deletes {
			positions[i] = uint64(p)
		}
		base.DeleteRows(positions)
	}
	if d.NumInserts() == 0 {
		return
	}
	// The insert buffer is already columnar; hand the columns over
	// wholesale instead of boxing every row.
	base.AppendColumns(d.inserts)
}

// Reset empties the delta and re-anchors it to a base partition that now
// holds baseRows rows.
func (d *Delta) Reset(baseRows int) {
	for i, def := range d.schema {
		d.inserts[i] = storage.NewColumn(def.Name, def.Kind)
	}
	d.deletes = d.deletes[:0]
	for i := range d.modifies {
		d.modifies[i] = nil
	}
	d.baseRows = baseRows
}

// Checkpoint propagates the delta into the base partition and resets the
// delta: deletes compact the base columns, modifies are applied in place,
// and the insert buffer is appended.
func (d *Delta) Checkpoint(base *storage.Partition) {
	d.ApplyTo(base)
	d.Reset(base.NumRows())
}

// View merges a base partition with its pending delta for reading.
type View struct {
	Base  *storage.Partition
	Delta *Delta
}

// NewView returns a read view over base and delta.
func NewView(base *storage.Partition, delta *Delta) *View {
	return &View{Base: base, Delta: delta}
}

// NumRows returns the logical row count.
func (v *View) NumRows() int {
	if v.Delta == nil {
		return v.Base.NumRows()
	}
	return v.Delta.NumRows()
}

// Get returns the value at the logical position (row, col).
func (v *View) Get(row, col int) storage.Value {
	if v.Delta == nil {
		return v.Base.Column(col).Get(row)
	}
	pos, isInsert := v.Delta.Resolve(row)
	if isInsert {
		return v.Delta.inserts[col].Get(pos)
	}
	if m := v.Delta.modifies[col]; m != nil {
		if val, ok := m[pos]; ok {
			return val
		}
	}
	return v.Base.Column(col).Get(pos)
}

// MaterializeInt64 returns the merged int64 column at schema position col.
// The fast path (empty or nil delta) aliases base storage.
func (v *View) MaterializeInt64(col int) []int64 {
	base := v.Base.Column(col).Int64s()
	if v.Delta == nil || v.Delta.Empty() {
		return base
	}
	d := v.Delta
	out := make([]int64, 0, d.NumRows())
	mods := d.modifies[col]
	di := 0
	for p := 0; p < d.baseRows; p++ {
		if di < len(d.deletes) && d.deletes[di] == p {
			di++
			continue
		}
		if mods != nil {
			if val, ok := mods[p]; ok {
				out = append(out, val.I)
				continue
			}
		}
		out = append(out, base[p])
	}
	out = append(out, d.inserts[col].Int64s()...)
	return out
}

// MaterializeString returns the merged string column at schema position
// col.
func (v *View) MaterializeString(col int) []string {
	base := v.Base.Column(col).Strings()
	if v.Delta == nil || v.Delta.Empty() {
		return base
	}
	d := v.Delta
	out := make([]string, 0, d.NumRows())
	mods := d.modifies[col]
	di := 0
	for p := 0; p < d.baseRows; p++ {
		if di < len(d.deletes) && d.deletes[di] == p {
			di++
			continue
		}
		if mods != nil {
			if val, ok := mods[p]; ok {
				out = append(out, val.S)
				continue
			}
		}
		out = append(out, base[p])
	}
	out = append(out, d.inserts[col].Strings()...)
	return out
}

// MaterializeFloat64 returns the merged float64 column at schema position
// col.
func (v *View) MaterializeFloat64(col int) []float64 {
	base := v.Base.Column(col).Float64s()
	if v.Delta == nil || v.Delta.Empty() {
		return base
	}
	d := v.Delta
	out := make([]float64, 0, d.NumRows())
	mods := d.modifies[col]
	di := 0
	for p := 0; p < d.baseRows; p++ {
		if di < len(d.deletes) && d.deletes[di] == p {
			di++
			continue
		}
		if mods != nil {
			if val, ok := mods[p]; ok {
				out = append(out, val.F)
				continue
			}
		}
		out = append(out, base[p])
	}
	out = append(out, d.inserts[col].Float64s()...)
	return out
}
