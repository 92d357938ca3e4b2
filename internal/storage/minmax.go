package storage

// Small materialized aggregates (Moerkotte 1998), called Minmax indexes
// in the paper (Section 5): per-block minimum and maximum values of a
// column, used to prune scan ranges by predicate evaluation and to
// implement static and dynamic range propagation across joins.

// BlockRows is the number of rows summarized by one minmax bucket.
const BlockRows = 1024

// MinMax summarizes one column of one partition at block granularity.
// It currently supports int64 columns, which covers all join/sort keys
// used by the paper's experiments. A summary is immutable once built:
// partitions share one between live and frozen views, and an append
// derives a longer copy (extend) instead of growing it in place.
type MinMax struct {
	mins []int64
	maxs []int64
	n    int // number of rows summarized
}

// BuildMinMax computes the minmax summary for an int64 column.
func BuildMinMax(data []int64) *MinMax {
	m := newMinMax(len(data))
	m.fill(data, 0)
	return m
}

// newMinMax returns a summary of n rows with its block slices allocated.
func newMinMax(n int) *MinMax {
	blocks := (n + BlockRows - 1) / BlockRows
	buf := make([]int64, 2*blocks)
	return &MinMax{mins: buf[:blocks:blocks], maxs: buf[blocks:], n: n}
}

// fill computes the bounds of every block from block first on.
func (m *MinMax) fill(data []int64, first int) {
	for b := first; b < len(m.mins); b++ {
		m.mins[b], m.maxs[b] = bounds(data[b*BlockRows : min((b+1)*BlockRows, len(data))])
	}
}

// bounds returns the minimum and maximum of a non-empty slice.
func bounds(vs []int64) (lo, hi int64) {
	lo, hi = vs[0], vs[0]
	for _, v := range vs[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// extend returns a summary of data, whose first m.Rows() values m
// already summarizes, leaving m untouched: it copies m's blocks, folds
// the rows that complete m's partial last block into that block's
// bounds, and summarizes only the blocks after it — O(blocks + appended
// rows), however long the prefix.
func (m *MinMax) extend(data []int64) *MinMax {
	e := newMinMax(len(data))
	copy(e.mins, m.mins)
	copy(e.maxs, m.maxs)
	next := (m.n + BlockRows - 1) / BlockRows
	if m.n%BlockRows != 0 && len(data) > m.n {
		b := next - 1
		lo, hi := bounds(data[m.n:min(next*BlockRows, len(data))])
		e.mins[b], e.maxs[b] = min(e.mins[b], lo), max(e.maxs[b], hi)
	}
	e.fill(data, next)
	return e
}

// Blocks returns the number of summarized blocks.
func (m *MinMax) Blocks() int { return len(m.mins) }

// Rows returns the number of summarized rows.
func (m *MinMax) Rows() int { return m.n }

// BlockRange returns the [min,max] of block b.
func (m *MinMax) BlockRange(b int) (int64, int64) { return m.mins[b], m.maxs[b] }

// Range is a closed value interval used for scan pruning and range
// propagation.
type Range struct {
	Min, Max int64
}

// Intersects reports whether [lo,hi] overlaps the range.
func (r Range) Intersects(lo, hi int64) bool { return lo <= r.Max && hi >= r.Min }

// PruneBlocks returns the block indexes whose [min,max] intersects any of
// the given ranges. An empty ranges slice selects nothing; a nil slice is
// treated as "no pruning information" and selects all blocks.
func (m *MinMax) PruneBlocks(ranges []Range) []int {
	out := make([]int, 0, m.Blocks())
	for b := 0; b < m.Blocks(); b++ {
		if ranges == nil {
			out = append(out, b)
			continue
		}
		lo, hi := m.mins[b], m.maxs[b]
		for _, r := range ranges {
			if r.Intersects(lo, hi) {
				out = append(out, b)
				break
			}
		}
	}
	return out
}

// SelectedRows converts selected block indexes into row index intervals
// [start,end) clipped to the summarized row count.
func (m *MinMax) SelectedRows(blocks []int) [][2]int {
	out := make([][2]int, 0, len(blocks))
	for _, b := range blocks {
		start := b * BlockRows
		end := start + BlockRows
		if end > m.n {
			end = m.n
		}
		if start < end {
			out = append(out, [2]int{start, end})
		}
	}
	return out
}

// RangesFromValues builds compact value ranges from a set of probe values
// (dynamic range propagation: after the build phase of a join, the build
// keys are summarized into ranges that prune the probe scan). Values
// within gap of each other are coalesced into one range to keep the
// range list small.
func RangesFromValues(values []int64, gap int64) []Range {
	if len(values) == 0 {
		return []Range{}
	}
	sorted := append([]int64(nil), values...)
	insertionOrQuick(sorted)
	out := []Range{{Min: sorted[0], Max: sorted[0]}}
	for _, v := range sorted[1:] {
		last := &out[len(out)-1]
		if v <= last.Max+gap {
			if v > last.Max {
				last.Max = v
			}
			continue
		}
		out = append(out, Range{Min: v, Max: v})
	}
	return out
}

func insertionOrQuick(a []int64) {
	// Simple quicksort over int64; kept local to avoid sort.Slice
	// interface overhead on the hot range-propagation path.
	if len(a) < 16 {
		for i := 1; i < len(a); i++ {
			for j := i; j > 0 && a[j] < a[j-1]; j-- {
				a[j], a[j-1] = a[j-1], a[j]
			}
		}
		return
	}
	p := a[len(a)/2]
	lo, hi := 0, len(a)-1
	for lo <= hi {
		for a[lo] < p {
			lo++
		}
		for a[hi] > p {
			hi--
		}
		if lo <= hi {
			a[lo], a[hi] = a[hi], a[lo]
			lo++
			hi--
		}
	}
	insertionOrQuick(a[:hi+1])
	insertionOrQuick(a[lo:])
}
