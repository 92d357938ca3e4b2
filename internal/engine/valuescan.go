package engine

import (
	"slices"

	"patchindex/internal/core"
)

// Partition-local value scans. When an update duplicates a value that
// the sharded collision state (core.NUCState) shows live in partition q,
// q's existing occurrences must join the patch set too. Their rowIDs are
// not tracked anywhere, so one scan of q's column finds them — the only
// table access NUC maintenance performs, and it runs only for
// partitions with a real count-map hit. Insert and the exact InsertRows
// retry, the insert chunks' local collisions and NUC-column Modify all
// resolve their collisions through it.

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
