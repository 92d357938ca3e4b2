package exec

import "patchindex/internal/storage"

// PatchTester answers patch membership by rowID. Implemented by the
// PatchIndex designs (bitmap and identifier based).
type PatchTester interface {
	IsPatch(rowID uint64) bool
}

// RangeTester is an optional PatchTester extension: AppendSel answers
// patch membership for a whole contiguous rowID range at once (offsets
// relative to lo). The sharded bitmap implements it word-at-a-time,
// which is how the selection modes keep their per-tuple overhead low
// (Section 3.5).
type RangeTester interface {
	PatchTester
	AppendSel(lo, hi uint64, invert bool, sel []int32) []int32
}

// PatchMode selects the behaviour of the PatchIndex selection operator
// (Section 3.3).
type PatchMode int

const (
	// ExcludePatches keeps only tuples that satisfy the constraint.
	ExcludePatches PatchMode = iota
	// UsePatches keeps only the exception tuples.
	UsePatches
)

// String renders the selection mode as in the paper.
func (m PatchMode) String() string {
	if m == ExcludePatches {
		return "exclude_patches"
	}
	return "use_patches"
}

// PatchFilter is the additional selection operator placed on top of a
// scan: it merges the PatchIndex information on-the-fly with the
// dataflow, splitting it into constraint-satisfying tuples and
// exceptions. The decision is based purely on a tuple's rowID, so the
// operator's per-tuple overhead is fixed and independent of data types
// (Section 3.5).
type PatchFilter struct {
	child  Operator
	tester PatchTester
	mode   PatchMode
	out    *Batch
	sel    []int32
}

// NewPatchFilter wraps child with the given selection mode.
func NewPatchFilter(child Operator, tester PatchTester, mode PatchMode) *PatchFilter {
	return &PatchFilter{child: child, tester: tester, mode: mode}
}

// Schema implements Operator.
func (f *PatchFilter) Schema() storage.Schema { return f.child.Schema() }

// Next implements Operator.
func (f *PatchFilter) Next() (*Batch, error) {
	if f.out == nil {
		f.out = NewBatch(f.child.Schema())
	}
	for {
		in, err := f.child.Next()
		if err != nil || in == nil {
			return nil, err
		}
		if in.RowIDs == nil {
			panic("exec: PatchFilter requires rowIDs from its child")
		}
		f.sel = f.sel[:0]
		keepPatches := f.mode == UsePatches
		n := in.Len()
		if rt, ok := f.tester.(RangeTester); ok && n > 0 && in.RowIDs[n-1]-in.RowIDs[0] == uint64(n-1) {
			// Contiguous rowID range (the common case: scan batches are
			// slices of the table): one vectorized membership query.
			f.sel = rt.AppendSel(in.RowIDs[0], in.RowIDs[n-1]+1, !keepPatches, f.sel)
		} else {
			for i, rid := range in.RowIDs {
				if f.tester.IsPatch(rid) == keepPatches {
					f.sel = append(f.sel, int32(i))
				}
			}
		}
		if len(f.sel) == in.Len() {
			return in, nil // everything passes: forward the view
		}
		if len(f.sel) > 0 {
			f.out.Reset()
			f.out.Gather(in, f.sel)
			return f.out, nil
		}
	}
}

// Close implements Operator.
func (f *PatchFilter) Close() {
	f.child.Close()
	f.out = nil
}

// Pred is a row predicate evaluated against a batch.
type Pred func(b *Batch, i int) bool

// And combines predicates conjunctively.
func And(preds ...Pred) Pred {
	return func(b *Batch, i int) bool {
		for _, p := range preds {
			if !p(b, i) {
				return false
			}
		}
		return true
	}
}

// Filter applies a row predicate to its child's output.
type Filter struct {
	child Operator
	pred  Pred
	out   *Batch
	sel   []int32
}

// NewFilter wraps child with the predicate.
func NewFilter(child Operator, pred Pred) *Filter {
	return &Filter{child: child, pred: pred}
}

// Schema implements Operator.
func (f *Filter) Schema() storage.Schema { return f.child.Schema() }

// Next implements Operator.
func (f *Filter) Next() (*Batch, error) {
	if f.out == nil {
		f.out = NewBatch(f.child.Schema())
	}
	for {
		in, err := f.child.Next()
		if err != nil || in == nil {
			return nil, err
		}
		f.sel = f.sel[:0]
		n := in.Len()
		for i := 0; i < n; i++ {
			if f.pred(in, i) {
				f.sel = append(f.sel, int32(i))
			}
		}
		if len(f.sel) == n {
			return in, nil
		}
		if len(f.sel) > 0 {
			f.out.Reset()
			f.out.Gather(in, f.sel)
			return f.out, nil
		}
	}
}

// Close implements Operator.
func (f *Filter) Close() {
	f.child.Close()
	f.out = nil
}
