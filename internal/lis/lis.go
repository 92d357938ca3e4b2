// Package lis implements the longest sorted subsequence algorithm
// (Fredman 1975) used by nearly-sorted-column discovery and by the
// PatchIndex insert handling for the sorting constraint (Section 5.1):
// tuples outside a longest sorted subsequence are the minimal patch set
// for the sorting constraint.
package lis

import "sort"

// orderKey maps v to a key whose ascending order is the sort order:
// v's own, or its reverse when desc. ^v reverses it for every int64;
// -v would overflow at MinInt64 and rank it first.
func orderKey(v int64, desc bool) int64 {
	if desc {
		return ^v
	}
	return v
}

// Longest returns the indexes of one longest non-decreasing subsequence
// of vals (non-increasing when desc is true), in ascending index order.
// It runs in O(n log n) using patience sorting with parent pointers.
func Longest(vals []int64, desc bool) []int {
	if len(vals) == 0 {
		return nil
	}
	// tails[k] = index of the smallest possible tail value of a
	// non-decreasing subsequence of length k+1.
	tails := make([]int, 0, len(vals))
	parent := make([]int, len(vals))
	for i := range vals {
		v := orderKey(vals[i], desc)
		// Find the first tail whose value is strictly greater than v
		// (upper bound, keeping the subsequence non-decreasing).
		pos := sort.Search(len(tails), func(j int) bool {
			return orderKey(vals[tails[j]], desc) > v
		})
		if pos > 0 {
			parent[i] = tails[pos-1]
		} else {
			parent[i] = -1
		}
		if pos == len(tails) {
			tails = append(tails, i)
		} else {
			tails[pos] = i
		}
	}
	// Reconstruct by walking parent pointers from the last tail.
	out := make([]int, len(tails))
	idx := tails[len(tails)-1]
	for k := len(tails) - 1; k >= 0; k-- {
		out[k] = idx
		idx = parent[idx]
	}
	return out
}

// LongestLen returns only the length of a longest sorted subsequence.
func LongestLen(vals []int64, desc bool) int {
	if len(vals) == 0 {
		return 0
	}
	tails := make([]int64, 0, len(vals))
	for _, raw := range vals {
		v := orderKey(raw, desc)
		pos := sort.Search(len(tails), func(j int) bool { return tails[j] > v })
		if pos == len(tails) {
			tails = append(tails, v)
		} else {
			tails[pos] = v
		}
	}
	return len(tails)
}

// Complement returns the indexes of vals NOT contained in the given
// ascending index subsequence — the patch set for the sorting constraint.
func Complement(n int, subsequence []int) []int {
	out := make([]int, 0, n-len(subsequence))
	si := 0
	for i := 0; i < n; i++ {
		if si < len(subsequence) && subsequence[si] == i {
			si++
			continue
		}
		out = append(out, i)
	}
	return out
}
