// Package matview implements the materialized-view comparator of the
// paper's evaluation (Section 6): the distinct query over a column is
// pre-computed and stored; queries scan the stored result instead of
// aggregating. The major drawback is update support — the view must be
// recomputed whenever the base table changes, which Fig. 9 quantifies.
// The benchmarks of internal/experiments run it.
package matview

import (
	"patchindex/internal/engine"
	"patchindex/internal/exec"
	"patchindex/internal/pdt"
	"patchindex/internal/storage"
)

// View is a materialized DISTINCT over one column.
type View struct {
	schema storage.Schema
	vals   exec.Vec
	// Refreshes counts recomputations, for the update experiments.
	Refreshes int
}

// Create materializes DISTINCT(col) over the partition views. The view
// drains its inputs eagerly, so a capture that feeds it, such as an
// engine TableSnapshot's Views, can be closed as soon as Create returns.
func Create(inputs []*pdt.View, col int) (*View, error) {
	v := &View{}
	if err := v.refresh(inputs, col); err != nil {
		return nil, err
	}
	v.Refreshes = 0
	return v, nil
}

func (v *View) refresh(inputs []*pdt.View, col int) error {
	parts := make([]exec.Operator, len(inputs))
	for i, in := range inputs {
		parts[i] = exec.NewScan(in, []int{col})
	}
	distinct := exec.NewDistinct(exec.NewUnion(parts...), []int{0})
	batches, err := exec.Drain(distinct)
	if err != nil {
		return err
	}
	v.schema = distinct.Schema()
	v.vals = exec.NewVec(v.schema[0].Kind, 0)
	for _, b := range batches {
		switch v.vals.Kind {
		case storage.KindInt64:
			v.vals.I64 = append(v.vals.I64, b.Cols[0].I64...)
		case storage.KindFloat64:
			v.vals.F64 = append(v.vals.F64, b.Cols[0].F64...)
		default:
			v.vals.Str = append(v.vals.Str, b.Cols[0].Str...)
		}
	}
	v.Refreshes++
	return nil
}

// Refresh recomputes the view — the per-update maintenance cost of the
// materialization approach.
func (v *View) Refresh(inputs []*pdt.View, col int) error {
	return v.refresh(inputs, col)
}

// CreateFromTable materializes DISTINCT(col) over an engine table
// through a snapshot, closed as soon as the eager drain finishes.
func CreateFromTable(t *engine.Table, col int) (*View, error) {
	snap := t.Snapshot()
	defer snap.Close()
	return Create(snap.Views(), col)
}

// RefreshFromTable recomputes the view from a snapshot of the engine
// table (see CreateFromTable).
func (v *View) RefreshFromTable(t *engine.Table, col int) error {
	snap := t.Snapshot()
	defer snap.Close()
	return v.Refresh(snap.Views(), col)
}

// Scan returns an operator replaying the materialized result — what a
// rewritten user query executes instead of the aggregation.
func (v *View) Scan() exec.Operator {
	return exec.NewVecSource(v.schema, []exec.Vec{v.vals}, nil)
}

// MemoryBytes estimates the view's storage footprint (Table 3: every
// distinct value is materialized).
func (v *View) MemoryBytes() uint64 {
	switch v.vals.Kind {
	case storage.KindInt64:
		return uint64(len(v.vals.I64)) * 8
	case storage.KindFloat64:
		return uint64(len(v.vals.F64)) * 8
	default:
		var sz uint64
		for _, s := range v.vals.Str {
			sz += uint64(len(s)) + 16
		}
		return sz
	}
}
