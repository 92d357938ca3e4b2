// Package plan builds the physical operator trees of the paper's query
// optimizations (Section 3.3): the PatchIndex scan splits the dataflow
// into a constraint-satisfying stream (exclude_patches) and an exception
// stream (use_patches); both subtrees are optimized separately and
// recombined (Union for distinct/join, Merge for sort). It also provides
// the reference plans, a simple cost model (Section 3.5), and
// zero-branch pruning (Section 6.3).
package plan

import (
	"patchindex/internal/core"
	"patchindex/internal/exec"
	"patchindex/internal/pdt"
	"patchindex/internal/storage"
)

// Options tune plan construction.
type Options struct {
	// ZeroBranchPruning removes the patch subtree when the patch
	// cardinality is provably zero at optimization time, dropping all
	// cloning overhead (Section 6.3).
	ZeroBranchPruning bool
}

// PartitionInput pairs one partition's read view with its PatchIndex.
type PartitionInput struct {
	View  *pdt.View
	Index *core.Index // may be nil (no constraint defined)

	// PruneCol/Ranges optionally enable minmax block pruning on every
	// scan this partition contributes to a plan: storage blocks of view
	// column PruneCol (a position in the view's schema, int64 only)
	// whose [min,max] cannot intersect any of Ranges are skipped. Nil
	// Ranges disables pruning. Pruning is only sound when the plan
	// re-applies the originating predicate downstream (exec.Scan falls
	// back to a full scan when the partition's delta makes block
	// metadata unusable), so callers must keep the filter in the tree.
	PruneCol int
	Ranges   []storage.Range
}

// scan builds the partition scan, applying minmax pruning when set.
func (in PartitionInput) scan(cols []int) *exec.Scan {
	s := exec.NewScan(in.View, cols)
	if in.Ranges != nil {
		s.SetPruneColumn(in.PruneCol)
		s.SetRanges(in.Ranges)
	}
	return s
}

// combine unions per-partition subtrees.
func combine(parts []exec.Operator) exec.Operator {
	if len(parts) == 1 {
		return parts[0]
	}
	return exec.NewUnion(parts...)
}

// DistinctReference builds the unoptimized distinct plan: scan each
// partition and aggregate all partitions' values in one hash aggregation.
func DistinctReference(inputs []PartitionInput, col int, opts Options) exec.Operator {
	parts := make([]exec.Operator, len(inputs))
	for i, in := range inputs {
		parts[i] = in.scan([]int{col})
	}
	return exec.NewDistinct(combine(parts), []int{0})
}

// Distinct builds the PatchIndex distinct plan (Fig. 2 left): per
// partition, the exclude_patches stream needs no aggregation (tuples are
// unique by the NUC invariant), the use_patches stream is deduplicated,
// and both are unioned. Because the NUC patch set holds all occurrences
// of duplicated values, the two streams' value sets are disjoint.
func Distinct(inputs []PartitionInput, col int, opts Options) exec.Operator {
	// The exclude_patches streams need no aggregation at all — their
	// values are globally unique. The use_patches streams feed ONE
	// distinct aggregation across all partitions: duplicated values may
	// span partitions, so the patch-side dedup must be global.
	excludes := make([]exec.Operator, len(inputs))
	uses := make([]exec.Operator, 0, len(inputs))
	var totalPatches uint64
	for i, in := range inputs {
		scanEx := in.scan([]int{col})
		if opts.ZeroBranchPruning && in.Index.NumPatches() == 0 {
			// This partition's patch subtree is provably empty; prune
			// it, and the exclude filter with it (every tuple passes).
			excludes[i] = scanEx
			continue
		}
		excludes[i] = exec.NewPatchFilter(scanEx, in.Index, exec.ExcludePatches)
		scanUse := in.scan([]int{col})
		uses = append(uses, exec.NewPatchFilter(scanUse, in.Index, exec.UsePatches))
		totalPatches += in.Index.NumPatches()
	}
	excludeAll := combine(excludes)
	if len(uses) == 0 || (opts.ZeroBranchPruning && totalPatches == 0) {
		return excludeAll
	}
	useAll := exec.NewDistinct(combine(uses), []int{0})
	return exec.NewUnion(excludeAll, useAll)
}

// SortReference builds the unoptimized sort plan: scan partitions, sort
// everything.
func SortReference(inputs []PartitionInput, col int, desc bool, opts Options) exec.Operator {
	parts := make([]exec.Operator, len(inputs))
	for i, in := range inputs {
		parts[i] = in.scan([]int{col})
	}
	key := exec.SortKey{Col: 0, Desc: desc}
	return exec.NewSort(combine(parts), key)
}

// Sort builds the PatchIndex sort plan (Fig. 2 left with the aggregation
// exchanged for the sort operator): per partition, the exclude_patches
// stream is known to be sorted and skips the sort operator entirely;
// only the patches are sorted; a Merge preserves the order when
// combining (Section 3.3). One Merge takes all 2P sorted streams, in the
// order [exclude₀, sortedPatches₀, exclude₁, …]; its ties go to the
// lower stream, so the result equals a merge per partition followed by
// a merge across partitions. A partition whose patch subtree is pruned
// contributes its scan alone.
func Sort(inputs []PartitionInput, col int, desc bool, opts Options) exec.Operator {
	key := exec.SortKey{Col: 0, Desc: desc}
	streams := make([]exec.Operator, 0, 2*len(inputs))
	for _, in := range inputs {
		scanEx := in.scan([]int{col})
		if opts.ZeroBranchPruning && in.Index.NumPatches() == 0 {
			streams = append(streams, scanEx)
			continue
		}
		scanUse := in.scan([]int{col})
		streams = append(streams,
			exec.NewPatchFilter(scanEx, in.Index, exec.ExcludePatches),
			exec.NewSort(exec.NewPatchFilter(scanUse, in.Index, exec.UsePatches), key))
	}
	if len(streams) == 1 {
		return streams[0]
	}
	return exec.NewMerge(0, desc, streams...)
}

// JoinInput describes one side of a fact ⋈ dimension join: the fact
// table partitions (with a NSC PatchIndex on the join key) and a
// dimension source sorted on its join key.
type JoinInput struct {
	Fact     []PartitionInput
	FactCols []int // columns to scan from the fact table; FactKey indexes them
	FactKey  int   // position of the join key within FactCols
	// Dim is the dimension subtree "X", sorted on DimKey. The builders
	// wrap it in one exec.Cached that every partition subtree loads, so
	// X is computed once per query, as the cost model charges it.
	Dim    exec.Operator
	DimKey int
	// FactTransform optionally wraps the fact-side stream (after the
	// patch selection) with additional order-preserving operators —
	// selections or probe-side HashJoins, the operators the paper allows
	// inside the order-sensitive subtrees (Section 3.3). The join key
	// must stay at position FactKey.
	FactTransform func(exec.Operator) exec.Operator
}

func (in JoinInput) transform(op exec.Operator) exec.Operator {
	if in.FactTransform == nil {
		return op
	}
	return in.FactTransform(op)
}

// JoinReference builds the unoptimized join: HashJoin per partition with
// the dimension as build side, computed once and shared by all
// partitions.
func JoinReference(in JoinInput, opts Options) exec.Operator {
	dim := exec.NewReuseCache(in.Dim)
	parts := make([]exec.Operator, len(in.Fact))
	for i, f := range in.Fact {
		scan := in.transform(f.scan(in.FactCols))
		parts[i] = exec.NewHashJoin(scan, dim.Load(), in.FactKey, in.DimKey)
	}
	return combine(parts)
}

// Join builds the PatchIndex join plan (Fig. 2 right): per partition the
// patch-free stream — sorted on the join key by the NSC invariant — uses
// the faster MergeJoin against the sorted dimension subtree "X", while
// the patches use a HashJoin. The dimension result is buffered in one
// Reuse cache that both subtrees of every partition share, so X is
// computed once per query, and the HashJoin builds on the patches,
// typically the side with the lowest cardinality (Section 3.3). Union
// recombines both streams.
func Join(in JoinInput, opts Options) exec.Operator {
	cache := exec.NewReuseCache(in.Dim)
	parts := make([]exec.Operator, len(in.Fact))
	for i, f := range in.Fact {
		scanEx := f.scan(in.FactCols)
		exclude := exec.Operator(exec.NewPatchFilter(scanEx, f.Index, exec.ExcludePatches))
		if opts.ZeroBranchPruning && f.Index.NumPatches() == 0 {
			// Patch subtree pruned: a single MergeJoin remains.
			parts[i] = exec.NewMergeJoin(in.transform(scanEx), cache.Load(), in.FactKey, in.DimKey)
			continue
		}
		mj := exec.NewMergeJoin(in.transform(exclude), cache.Load(), in.FactKey, in.DimKey)

		scanUse := f.scan(in.FactCols)
		use := in.transform(exec.NewPatchFilter(scanUse, f.Index, exec.UsePatches))
		// Build side = patches, the side with the lowest cardinality:
		// "building the hash table on the patches is often the best
		// decision as the number of patches is typically small"
		// (Section 3.3). The HashJoin then emits dim ++ fact; a
		// projection restores the fact ++ dim column order so Union can
		// combine it with the MergeJoin stream.
		hj := exec.NewHashJoin(cache.Load(), use, in.DimKey, in.FactKey)
		dimWidth := len(hj.Schema()) - len(use.Schema())
		perm := make([]int, 0, len(hj.Schema()))
		for c := dimWidth; c < len(hj.Schema()); c++ {
			perm = append(perm, c)
		}
		for c := 0; c < dimWidth; c++ {
			perm = append(perm, c)
		}
		parts[i] = exec.NewUnion(mj, exec.NewProject(hj, perm))
	}
	return combine(parts)
}
