package engine

import (
	"slices"

	"patchindex/internal/core"
	"patchindex/internal/pdt"
	"patchindex/internal/storage"
)

// Partition-local value scans. When an update duplicates a value that
// the collision directory (core.NUCState) shows live in partition q,
// q's existing occurrences must join the patch set too. Their rowIDs are
// not tracked anywhere, so one scan of q's column finds them — the only
// table access NUC maintenance performs, and it runs only for
// partitions with a real directory hit. Every insert chunk and every
// NUC-column Modify resolves its collisions through it.

// valueHits maps a partition to the column values whose occurrences
// there must become patches. Repeated values are fine.
type valueHits[T int64 | string] map[int][]T

// add records v for partition q, allocating the map on first use.
func (h *valueHits[T]) add(q int, v T) {
	if *h == nil {
		*h = make(valueHits[T])
	}
	(*h)[q] = append((*h)[q], v)
}

// matchingRowIDs returns the ascending positions of column whose value
// is one of hits (sorted and deduplicated in place). Collisions are rare
// on a nearly unique column, so nearly every row is rejected by the
// [min, max] bounds of the hit values before the sorted slice is
// searched.
func matchingRowIDs[T int64 | string](column, hits []T) []uint64 {
	if len(hits) == 0 {
		return nil
	}
	slices.Sort(hits)
	hits = slices.Compact(hits)
	lo, hi := hits[0], hits[len(hits)-1]
	var rids []uint64
	for r, v := range column {
		if v < lo || v > hi {
			continue
		}
		if _, ok := slices.BinarySearch(hits, v); ok {
			rids = append(rids, uint64(r))
		}
	}
	return rids
}

// patchValueHits marks every row holding one of hits[q] a patch of
// idx[q]; column materializes partition q's current values. The caller
// owns every partition named in hits.
func patchValueHits[T int64 | string](idx []*core.Index, hits valueHits[T], column func(q int) []T) {
	for q, vals := range hits {
		idx[q].AddPatches(matchingRowIDs(column(q), vals))
	}
}

// cells returns n cell values as T: their int64 or their string.
func cells[T int64 | string](n int, cell func(i int) storage.Value) []T {
	out := make([]T, n)
	switch o := any(out).(type) {
	case []int64:
		for i := range o {
			o[i] = cell(i).I
		}
	case []string:
		for i := range o {
			o[i] = cell(i).S
		}
	}
	return out
}

// rowValues returns the values of column col at rowIDs of view.
func rowValues[T int64 | string](view *pdt.View, col int, rowIDs []uint64) []T {
	return cells[T](len(rowIDs), func(i int) storage.Value { return view.Get(int(rowIDs[i]), col) })
}

// materialize returns view's column col (pending delta included) as T.
// The result may alias live storage: read it only under the lock.
func materialize[T int64 | string](view *pdt.View, col int) []T {
	var out any
	switch any(*new(T)).(type) {
	case int64:
		out = view.MaterializeInt64(col)
	default:
		out = view.MaterializeString(col)
	}
	return out.([]T)
}
