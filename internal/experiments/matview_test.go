package experiments

import (
	"testing"

	"patchindex/internal/engine"
	"patchindex/internal/exec"
	"patchindex/internal/pdt"
	"patchindex/internal/storage"
)

// matView is the materialized-view comparator of the paper's evaluation
// (Section 6), the NUC "materialization" series of Figs. 7-9 and
// Table 3: the distinct query over a column is pre-computed and stored;
// queries scan the stored result instead of aggregating. The major
// drawback is update support — the view must be recomputed whenever the
// base table changes, which Fig. 9 quantifies.
type matView struct {
	schema storage.Schema
	vals   exec.Vec
	// refreshes counts recomputations, for the update experiments.
	refreshes int
}

// newMatView materializes DISTINCT(col) over the partition views. The
// view drains its inputs eagerly, so a capture that feeds it, such as an
// engine TableSnapshot's Views, can be closed as soon as it returns.
func newMatView(inputs []*pdt.View, col int) (*matView, error) {
	v := &matView{}
	if err := v.refresh(inputs, col); err != nil {
		return nil, err
	}
	v.refreshes = 0
	return v, nil
}

// refresh recomputes the view — the per-update maintenance cost of the
// materialization approach.
func (v *matView) refresh(inputs []*pdt.View, col int) error {
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
	v.refreshes++
	return nil
}

// matViewFromTable materializes DISTINCT(col) over an engine table
// through a snapshot, closed as soon as the eager drain finishes.
func matViewFromTable(t *engine.Table, col int) (*matView, error) {
	snap := t.Snapshot()
	defer snap.Close()
	return newMatView(snap.Views(), col)
}

// refreshFromTable recomputes the view from a snapshot of the engine
// table (see matViewFromTable).
func (v *matView) refreshFromTable(t *engine.Table, col int) error {
	snap := t.Snapshot()
	defer snap.Close()
	return v.refresh(snap.Views(), col)
}

// scan returns an operator replaying the materialized result — what a
// rewritten user query executes instead of the aggregation.
func (v *matView) scan() exec.Operator {
	return exec.NewVecSource(v.schema, []exec.Vec{v.vals}, nil)
}

// memoryBytes estimates the view's storage footprint (Table 3: every
// distinct value is materialized).
func (v *matView) memoryBytes() uint64 {
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

// matViewInputs loads vals round-robin into nparts partitions of a
// one-column storage table and returns their views.
func matViewInputs(vals []int64, nparts int) []*pdt.View {
	schema := storage.Schema{{Name: "v", Kind: storage.KindInt64}}
	table := storage.NewTable("t", schema, nparts)
	rows := make([]storage.Row, len(vals))
	for i, v := range vals {
		rows[i] = storage.Row{storage.I64(v)}
	}
	table.LoadRows(rows)
	out := make([]*pdt.View, nparts)
	for p := range out {
		out[p] = pdt.NewView(table.Partition(p), nil)
	}
	return out
}

func TestMatViewCreateAndScan(t *testing.T) {
	v, err := newMatView(matViewInputs([]int64{5, 1, 5, 2, 1}, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.vals.Len() != 3 {
		t.Fatalf("Rows = %d, want 3", v.vals.Len())
	}
	n, err := exec.Count(v.scan())
	if err != nil || n != 3 {
		t.Fatalf("scan count = %d err=%v", n, err)
	}
	// Scans are replayable.
	n, _ = exec.Count(v.scan())
	if n != 3 {
		t.Fatal("second scan broken")
	}
}

func TestMatViewRefreshCountsAndUpdates(t *testing.T) {
	in := matViewInputs([]int64{1, 2, 3}, 1)
	v, _ := newMatView(in, 0)
	if v.refreshes != 0 {
		t.Fatalf("fresh view refreshes = %d", v.refreshes)
	}
	// Simulate a base update through a delta.
	d := pdt.NewDelta(in[0].Base.Schema(), in[0].Base.NumRows())
	d.Insert(storage.Row{storage.I64(9)})
	in2 := []*pdt.View{pdt.NewView(in[0].Base, d)}
	if err := v.refresh(in2, 0); err != nil {
		t.Fatal(err)
	}
	if v.refreshes != 1 || v.vals.Len() != 4 {
		t.Fatalf("after refresh: refreshes=%d Rows=%d", v.refreshes, v.vals.Len())
	}
}

func TestMatViewMemoryBytes(t *testing.T) {
	v, _ := newMatView(matViewInputs([]int64{1, 2, 3, 3}, 1), 0)
	if got := v.memoryBytes(); got != 24 {
		t.Fatalf("memoryBytes = %d, want 24", got)
	}
}

func TestMatViewStringView(t *testing.T) {
	schema := storage.Schema{{Name: "s", Kind: storage.KindString}}
	table := storage.NewTable("t", schema, 1)
	for _, s := range []string{"a", "b", "a"} {
		table.Partition(0).AppendRow(storage.Row{storage.Str(s)})
	}
	v, err := newMatView([]*pdt.View{pdt.NewView(table.Partition(0), nil)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.vals.Len() != 2 {
		t.Fatalf("string view Rows = %d", v.vals.Len())
	}
	if v.memoryBytes() == 0 {
		t.Fatal("string view memory = 0")
	}
}
