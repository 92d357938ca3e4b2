package exec

import (
	"errors"
	"testing"

	"patchindex/internal/storage"
)

// failingOp yields a few batches and then errors — failure injection for
// error propagation through operator trees.
type failingOp struct {
	schema  storage.Schema
	batches int
	emitted int
	closed  bool
}

var errInjected = errors.New("injected failure")

func newFailingOp(batches int) *failingOp {
	return &failingOp{
		schema:  storage.Schema{{Name: "v", Kind: storage.KindInt64}},
		batches: batches,
	}
}

func (f *failingOp) Schema() storage.Schema { return f.schema }

func (f *failingOp) Next() (*Batch, error) {
	if f.emitted >= f.batches {
		return nil, errInjected
	}
	f.emitted++
	b := NewBatch(f.schema)
	for i := 0; i < 10; i++ {
		b.Cols[0].I64 = append(b.Cols[0].I64, int64(i))
		b.RowIDs = append(b.RowIDs, uint64(f.emitted*10+i))
	}
	return b, nil
}

func (f *failingOp) Close() { f.closed = true }

func TestErrorPropagation(t *testing.T) {
	build := func(name string, mk func(child Operator) Operator) {
		t.Run(name, func(t *testing.T) {
			child := newFailingOp(2)
			op := mk(child)
			_, err := Drain(op)
			if !errors.Is(err, errInjected) {
				t.Fatalf("error not propagated: %v", err)
			}
			if !child.closed {
				t.Fatal("child not closed after Drain")
			}
		})
	}
	build("Filter", func(c Operator) Operator { return NewFilter(c, int64Greater(0, -1)) })
	build("PatchFilter", func(c Operator) Operator { return NewPatchFilter(c, patchSet{}, ExcludePatches) })
	build("Project", func(c Operator) Operator { return NewProject(c, []int{0}) })
	build("Distinct", func(c Operator) Operator { return NewDistinct(c, []int{0}) })
	build("Sort", func(c Operator) Operator { return NewSort(c, SortKey{Col: 0}) })
	build("Limit", func(c Operator) Operator { return NewLimit(c, 1000) })
	build("Union", func(c Operator) Operator { return NewUnion(c) })
	build("Merge", func(c Operator) Operator { return NewMerge(0, false, c) })
	build("HashJoinProbe", func(c Operator) Operator {
		return NewHashJoin(c, NewInt64Source("b", []int64{1}, nil), 0, 0)
	})
	build("HashJoinBuild", func(c Operator) Operator {
		return NewHashJoin(NewInt64Source("p", []int64{1}, nil), c, 0, 0)
	})
	build("MergeJoinLeft", func(c Operator) Operator {
		return NewMergeJoin(c, NewInt64Source("r", []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 100}, nil), 0, 0)
	})
	build("MergeJoinRight", func(c Operator) Operator {
		return NewMergeJoin(NewInt64Source("l", []int64{1}, nil), c, 0, 0)
	})
	build("Compute", func(c Operator) Operator {
		return NewComputeInt64(c, "x", func(b *Batch, i int) int64 { return 0 })
	})
	build("WithRowIDColumn", func(c Operator) Operator { return NewWithRowIDColumn(c, "rid") })
	build("ReuseLoad", func(c Operator) Operator { return NewReuseCache(c).Load() })
}

func TestReuseCacheErrorSticky(t *testing.T) {
	cache := NewReuseCache(newFailingOp(1))
	if err := cache.MaterializeNow(); !errors.Is(err, errInjected) {
		t.Fatalf("MaterializeNow: %v", err)
	}
	if _, err := cache.Load().Next(); err == nil {
		// The cache retries the failed child; either a sticky error or a
		// second failure is acceptable, silence is not.
		t.Fatal("a load succeeded after failed materialization")
	}
}
