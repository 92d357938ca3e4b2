package plan

// Cost model (Section 3.5). Cardinalities and operator output estimates
// are known at optimization time, and the PatchIndex optimizations use
// ordinary query operators plus the fixed-overhead selection modes, so
// plan costs can be estimated with per-tuple weights. The constants are
// relative weights, not wall-clock units; only comparisons matter.

// Per-tuple cost weights of the executor's operators. Hash operations
// dominate scans by roughly an order of magnitude; the patch selection
// mode is a cheap rowID test ("typically below 1% of query runtime").
const (
	costScanTuple   = 1.0
	costSelectTuple = 0.3  // exclude_patches / use_patches rowID test
	costHashTuple   = 10.0 // hash table build or probe + group update
	costSortLogBase = 2.0  // comparison sort: n log2(n) * this
	costMergeTuple  = 1.5  // merge step per tuple
	costCloneFixed  = 2000 // fixed overhead of cloning a query subtree
)

// CostDistinctReference estimates DISTINCT over rows tuples.
func CostDistinctReference(rows uint64) float64 {
	return float64(rows)*(costScanTuple+costHashTuple) + 0
}

// CostDistinctPatch estimates the PatchIndex distinct plan: two scans
// with selection, aggregation only over the patches, and the cloning
// overhead.
func CostDistinctPatch(rows, patches uint64) float64 {
	return float64(rows)*(costScanTuple+2*costSelectTuple) +
		float64(patches)*costHashTuple + costCloneFixed
}

// log2 without math import (rows are large; crude integer log suffices
// for a relative cost model).
func log2(n uint64) float64 {
	var l float64
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// CostSortReference estimates a full sort of rows tuples.
func CostSortReference(rows uint64) float64 {
	return float64(rows)*costScanTuple + float64(rows)*log2(rows)*costSortLogBase
}

// CostSortPatch estimates the PatchIndex sort plan: sort only the
// patches, then merge.
func CostSortPatch(rows, patches uint64) float64 {
	return float64(rows)*(costScanTuple+2*costSelectTuple) +
		float64(patches)*log2(patches+1)*costSortLogBase +
		float64(rows)*costMergeTuple + costCloneFixed
}

// CostJoinReference estimates HashJoin(fact, dim).
func CostJoinReference(factRows, dimRows uint64) float64 {
	return float64(factRows)*(costScanTuple+costHashTuple) + float64(dimRows)*costHashTuple
}

// CostJoinPatch estimates the PatchIndex join plan: MergeJoin for the
// patch-free stream, HashJoin for the patches, dimension buffered.
func CostJoinPatch(factRows, patches, dimRows uint64) float64 {
	return float64(factRows)*(costScanTuple+2*costSelectTuple) +
		float64(factRows-patches)*costMergeTuple + // merge join stream
		float64(dimRows)*costMergeTuple + // dim side of merge join
		float64(patches)*costHashTuple + // hash join probe of patches
		float64(dimRows)*costHashTuple + // hash build (dim side)
		costCloneFixed
}

// UsePatchIndexForDistinct decides whether the optimizer should pick the
// PatchIndex plan for a distinct query (Section 3.5: apply when the
// estimated cost is smaller).
func UsePatchIndexForDistinct(rows, patches uint64) bool {
	return CostDistinctPatch(rows, patches) < CostDistinctReference(rows)
}

// UsePatchIndexForSort is the sort-query decision.
func UsePatchIndexForSort(rows, patches uint64) bool {
	return CostSortPatch(rows, patches) < CostSortReference(rows)
}
