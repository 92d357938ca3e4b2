package core

import "patchindex/internal/lis"

// Update handling per Table 1 of the paper. Delete handling for both
// constraints is Index.HandleDelete. The paper's NUC insert and modify
// handling runs the join query of Fig. 5; the engine finds the same
// rowIDs from the exact collision directory (NUCState) instead and
// feeds them into Extend / AddPatches (see engine.(*Database).Insert),
// keeping the join, built from executor operators, as its test oracle.
// The NSC handlers below are local computations on the inserted/modified
// values and live here.

// HandleInsertNSC processes an insert of the given values (appended at
// the logical end of the indexed column, in order) for a nearly sorted
// column: it determines a new sorted subsequence extending the existing
// one (Section 5.1). Values that extend the subsequence — computed as a
// longest sorted subsequence of the inserted values restricted to values
// beyond the tracked tail — remain constraint-satisfying; all other
// inserted tuples become patches. The index grows by len(values).
//
// As the paper notes, this may lose optimality (the extension is locally,
// not globally, longest), which the recompute monitor covers.
func (x *Index) HandleInsertNSC(values []int64) (newPatches int) {
	if x.constraint != NearlySorted {
		panic("core: HandleInsertNSC on a non-NSC index")
	}
	base := x.rows
	x.Extend(uint64(len(values)))
	if len(values) == 0 {
		return 0
	}

	// Candidates: inserted values that can extend the existing sorted
	// subsequence, i.e. are beyond its last value.
	candIdx := make([]int, 0, len(values))
	for i, v := range values {
		if !x.hasLastValue || beyond(v, x.lastValue, x.opts.Descending) {
			candIdx = append(candIdx, i)
		}
	}
	extension := map[int]bool{}
	if len(candIdx) > 0 {
		candVals := make([]int64, len(candIdx))
		for i, ci := range candIdx {
			candVals[i] = values[ci]
		}
		sub := lis.Longest(candVals, x.opts.Descending)
		for _, s := range sub {
			extension[candIdx[s]] = true
		}
		x.lastValue = candVals[sub[len(sub)-1]]
		x.hasLastValue = true
	}

	patches := make([]uint64, 0, len(values)-len(extension))
	for i := range values {
		if !extension[i] {
			patches = append(patches, base+uint64(i))
		}
	}
	x.AddPatches(patches)
	return len(patches)
}

// beyond reports whether v can follow tail in the maintained sort order.
// Equal values keep a non-decreasing (non-increasing) run sorted.
func beyond(v, tail int64, desc bool) bool {
	if desc {
		return v <= tail
	}
	return v >= tail
}

// HandleModifyNSC processes a modify of the tuples at the given rowIDs
// for a nearly sorted column: all modified tuples join the patch set,
// as new values may destroy the sorted subsequence (Section 5.2). No
// query is needed; the handling is free of table access.
func (x *Index) HandleModifyNSC(rowIDs []uint64) {
	if x.constraint != NearlySorted {
		panic("core: HandleModifyNSC on a non-NSC index")
	}
	x.AddPatches(sortedU64(rowIDs))
}

// NUCJoinResult carries the rowIDs the insert-handling join (Fig. 5)
// projects: pairs of (inserted-tuple rowID, matching-table-tuple rowID)
// for every value collision. Both sides become patches.
type NUCJoinResult struct {
	InsertedSide []uint64
	TableSide    []uint64
}

// HandleInsertNUC merges the result of the NUC insert handling query
// into the patch set after the index has been extended by the inserted
// tuples. The engine's test oracle computes it by the Fig. 5 query
// itself (inserted tuples joined against the table with dynamic range
// propagation, both sides' rowIDs projected via intermediate result
// caching); production inserts Extend the index and AddPatches the rows
// the collision directory and partition-local value scans find.
func (x *Index) HandleInsertNUC(inserted int, join NUCJoinResult) {
	if x.constraint != NearlyUnique {
		panic("core: HandleInsertNUC on a non-NUC index")
	}
	x.Extend(uint64(inserted))
	x.AddPatches(sortedU64(join.InsertedSide))
	x.AddPatches(sortedU64(join.TableSide))
}

// HandleModifyNUC merges the join result of the NUC modify handling
// query (same shape as insert handling, without the extend — the table
// cardinality does not change, Section 5.2). The engine's Modify
// classifies from NUCState and never runs that query; the handler
// serves the join-based oracle its tests compare Modify against.
func (x *Index) HandleModifyNUC(join NUCJoinResult) {
	if x.constraint != NearlyUnique {
		panic("core: HandleModifyNUC on a non-NUC index")
	}
	x.AddPatches(sortedU64(join.InsertedSide))
	x.AddPatches(sortedU64(join.TableSide))
}
