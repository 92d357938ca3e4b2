package core

import (
	"sort"

	"patchindex/internal/lis"
)

// Constraint discovery (recapped from the authors' ICDEW'20 paper; the
// evaluated system discovers patch sets at index creation). Discovery
// returns the sorted rowID patch set for a column.

// DiscoverNUCInt64 returns the patch set for a nearly unique int64
// column: the rowIDs of ALL occurrences of values that appear more than
// once (see the NearlyUnique doc for why all occurrences are kept).
func DiscoverNUCInt64(vals []int64) []uint64 {
	counts := make(map[int64]uint32, len(vals))
	for _, v := range vals {
		counts[v]++
	}
	var out []uint64
	for i, v := range vals {
		if counts[v] > 1 {
			out = append(out, uint64(i))
		}
	}
	return out
}

// DiscoverNUCString returns the patch set for a nearly unique string
// column.
func DiscoverNUCString(vals []string) []uint64 {
	counts := make(map[string]uint32, len(vals))
	for _, v := range vals {
		counts[v]++
	}
	var out []uint64
	for i, v := range vals {
		if counts[v] > 1 {
			out = append(out, uint64(i))
		}
	}
	return out
}

// Global NUC discovery is split into three partition-shardable pieces —
// per-partition value counting, a merge of the counts into the set of
// globally duplicated values, and per-partition patch extraction against
// that set — so each piece can run per partition, in parallel.

// CountNUCValues returns one partition's value → occurrence count map,
// the partition-local piece of global NUC discovery. Counting is
// independent per partition, so callers may run it in parallel and merge
// the results with MergeNUCDuplicates.
func CountNUCValues[T int64 | string](vals []T) map[T]uint32 {
	counts := make(map[T]uint32, len(vals))
	for _, v := range vals {
		counts[v]++
	}
	return counts
}

// MergeNUCDuplicates merges per-partition value counts into the set of
// globally duplicated values: a value held by tuples in two different
// partitions violates uniqueness even though each partition is locally
// unique ("relies on a global view of the table", Section 5.1).
func MergeNUCDuplicates[T int64 | string](counts []map[T]uint32) map[T]struct{} {
	total := make(map[T]uint32)
	for _, c := range counts {
		for v, n := range c {
			total[v] += n
		}
	}
	dup := make(map[T]struct{})
	for v, n := range total {
		if n > 1 {
			dup[v] = struct{}{}
		}
	}
	return dup
}

// NUCPatchSet extracts one partition's sorted patch set given the
// globally duplicated values: the rowIDs of ALL occurrences of values in
// dup (see the NearlyUnique doc for why all occurrences are kept).
// Extraction is partition-local and parallelizable.
func NUCPatchSet[T int64 | string](vals []T, dup map[T]struct{}) []uint64 {
	var out []uint64
	for i, v := range vals {
		if _, ok := dup[v]; ok {
			out = append(out, uint64(i))
		}
	}
	return out
}

// GlobalNUCPatches computes per-partition NUC patch sets with GLOBAL
// duplicate detection, composing the three shardable pieces: count per
// partition, merge into the duplicate set, extract per partition. Only
// the patch storage is partition-local.
func GlobalNUCPatches[T int64 | string](parts [][]T) [][]uint64 {
	counts := make([]map[T]uint32, len(parts))
	for p, vals := range parts {
		counts[p] = CountNUCValues(vals)
	}
	dup := MergeNUCDuplicates(counts)
	out := make([][]uint64, len(parts))
	for p, vals := range parts {
		out[p] = NUCPatchSet(vals, dup)
	}
	return out
}

// DiscoverNSC returns the minimal patch set for a nearly sorted int64
// column — the complement of a longest sorted subsequence — together
// with the last value of that subsequence (the tail insert handling
// extends).
func DiscoverNSC(vals []int64, desc bool) (patches []uint64, last int64, hasLast bool) {
	sub := lis.Longest(vals, desc)
	comp := lis.Complement(len(vals), sub)
	patches = make([]uint64, len(comp))
	for i, c := range comp {
		patches[i] = uint64(c)
	}
	if len(sub) > 0 {
		last = vals[sub[len(sub)-1]]
		hasLast = true
	}
	return patches, last, hasLast
}

// BuildNUCInt64 discovers and constructs a NUC PatchIndex over vals.
func BuildNUCInt64(vals []int64, opts Options) *Index {
	patches := DiscoverNUCInt64(vals)
	return New(NearlyUnique, uint64(len(vals)), patches, opts)
}

// BuildNUCString discovers and constructs a NUC PatchIndex over vals.
func BuildNUCString(vals []string, opts Options) *Index {
	patches := DiscoverNUCString(vals)
	return New(NearlyUnique, uint64(len(vals)), patches, opts)
}

// BuildNSC discovers and constructs a NSC PatchIndex over vals.
func BuildNSC(vals []int64, opts Options) *Index {
	patches, last, hasLast := DiscoverNSC(vals, opts.Descending)
	x := New(NearlySorted, uint64(len(vals)), patches, opts)
	if hasLast {
		x.SetLastSortedValue(last)
	}
	return x
}

// MatchRateNUC returns the fraction of tuples satisfying the uniqueness
// constraint — the per-column statistic behind the paper's Fig. 1
// histogram.
func MatchRateNUC(vals []int64) float64 {
	if len(vals) == 0 {
		return 1
	}
	return 1 - float64(len(DiscoverNUCInt64(vals)))/float64(len(vals))
}

// MatchRateNUCString is MatchRateNUC for string columns.
func MatchRateNUCString(vals []string) float64 {
	if len(vals) == 0 {
		return 1
	}
	return 1 - float64(len(DiscoverNUCString(vals)))/float64(len(vals))
}

// MatchRateNSC returns the fraction of tuples inside a longest sorted
// subsequence.
func MatchRateNSC(vals []int64) float64 {
	if len(vals) == 0 {
		return 1
	}
	return float64(lis.LongestLen(vals, false)) / float64(len(vals))
}

// Recompute rebuilds the patch set from the current column values,
// preserving design and options — the paper's global recomputation
// fallback once monitoring trips. It returns the rebuilt index.
func Recompute(x *Index, vals []int64) *Index {
	switch x.constraint {
	case NearlyUnique:
		return BuildNUCInt64(vals, x.opts)
	default:
		return BuildNSC(vals, x.opts)
	}
}

// sortedU64 is a small helper asserting/establishing sorted order for
// externally supplied rowID sets.
func sortedU64(ids []uint64) []uint64 {
	if sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
		return ids
	}
	out := append([]uint64(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
