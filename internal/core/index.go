// Package core implements the PatchIndex, the paper's primary
// contribution: an updatable materialization of approximate constraints.
// A PatchIndex stores the set of patches — rowIDs of tuples violating a
// constraint — in one of two designs (Section 3.2): the dense
// bitmap-based design backed by the update-conscious sharded bitmap, or
// the sparse identifier-based design holding a sorted list of 64-bit
// rowIDs. Update handling follows Table 1 of the paper and avoids both
// index recomputation and full table scans.
package core

import (
	"fmt"
	"sort"

	"patchindex/internal/bitmap"
)

// Design selects the physical patch representation (Section 3.2).
type Design int

const (
	// DesignBitmap stores one bit per tuple in a sharded bitmap. Memory
	// is constant in the exception rate; the design of choice in the
	// paper's evaluation.
	DesignBitmap Design = iota
	// DesignIdentifier stores the 64-bit rowIDs of patches in a sorted
	// list. Memory grows linearly with the exception rate; cheaper only
	// for e < 1/64.
	DesignIdentifier
)

// String names the design as in the paper's plots.
func (d Design) String() string {
	if d == DesignBitmap {
		return "PI_bitmap"
	}
	return "PI_identifier"
}

// Constraint identifies the approximate constraint a PatchIndex
// maintains.
type Constraint int

const (
	// NearlyUnique is the "nearly unique column" (NUC) constraint: all
	// tuples except the patches hold distinct values. This implementation
	// keeps ALL occurrences of duplicated values in the patch set, which
	// is what the insert handling of Section 5.1 maintains ("we need to
	// keep track of all occurrences of non-unique values") and what makes
	// the Fig. 2 distinct plan correct without a cross-subtree dedup.
	NearlyUnique Constraint = iota
	// NearlySorted is the "nearly sorted column" (NSC) constraint: the
	// tuples excluding the patches form a sorted sequence.
	NearlySorted
)

// String names the constraint as in the paper.
func (c Constraint) String() string {
	if c == NearlyUnique {
		return "NUC"
	}
	return "NSC"
}

// Options configure a PatchIndex; checkpoints persist every field. A
// bitmap's automatic condense on delete is not an option: it fires below
// condenseThreshold. Neither is recomputation once updates erode the
// exception rate: the engine's maintenance daemon repairs a slot above
// its MaxExceptionRate (Sections 5.1, 5.3).
type Options struct {
	// Design selects the patch representation. Default DesignBitmap.
	Design Design
	// ShardBits is the sharded bitmap shard size. Default
	// bitmap.DefaultShardBits (2^14, the paper's optimum).
	ShardBits uint64
	// Descending marks a NSC as sorted in descending order.
	Descending bool
}

// condenseThreshold is the bitmap utilization below which HandleDelete
// condenses: a condense then reclaims at least half the physical slots,
// which pays for its rebuild, and a bitmap stays bounded under a
// delete/insert stream with no maintenance daemon running.
const condenseThreshold = 0.5

// Index is a PatchIndex over one column of one partition. It is not safe
// for concurrent mutation; the engine serializes updates per partition.
type Index struct {
	constraint Constraint
	opts       Options

	rows uint64 // number of tuples covered

	bm        *bitmap.Sharded // DesignBitmap
	ids       []uint64        // DesignIdentifier, sorted ascending
	idsShared bool            // ids is shared with a Freeze partner
	np        uint64          // number of patches

	// NSC bookkeeping: the last value of the materialized sorted
	// subsequence (largest for ascending order), used by insert handling
	// to extend the subsequence without recomputation (Section 5.1).
	lastValue    int64
	hasLastValue bool
}

// New returns a PatchIndex over rows tuples whose initial patch set is
// the given sorted rowIDs (as produced by discovery).
func New(constraint Constraint, rows uint64, patches []uint64, opts Options) *Index {
	if opts.ShardBits == 0 {
		opts.ShardBits = bitmap.DefaultShardBits
	}
	x := &Index{constraint: constraint, opts: opts, rows: rows}
	switch opts.Design {
	case DesignBitmap:
		x.bm = bitmap.NewSharded(rows, opts.ShardBits)
		for _, p := range patches {
			x.bm.Set(p)
		}
		x.np = uint64(len(patches))
	case DesignIdentifier:
		x.ids = append([]uint64(nil), patches...)
		if !sort.SliceIsSorted(x.ids, func(i, j int) bool { return x.ids[i] < x.ids[j] }) {
			sort.Slice(x.ids, func(i, j int) bool { return x.ids[i] < x.ids[j] })
		}
		x.np = uint64(len(x.ids))
	default:
		panic(fmt.Sprintf("core: unknown design %d", opts.Design))
	}
	return x
}

// ConstraintKind returns the maintained constraint.
func (x *Index) ConstraintKind() Constraint { return x.constraint }

// AdoptState replaces the index's mutable state — covered-row count,
// patch storage, NSC sorted-run bookkeeping — with fresh's, leaving the
// constraint kind and construction options untouched. This is how a
// maintenance rebuild installs a rediscovered slot: the engine hands out
// the same per-partition *Index pointers for the life of the index, and
// concurrent readers in other lock domains consult a representative
// slot's immutable fields (constraint kind, options) without holding
// that slot's partition lock — so a rebuild must mutate the existing
// object under the partition lock, never swap the pointer. Frozen
// copies sharing the previous patch storage keep it; fresh's storage is
// adopted wholesale.
func (x *Index) AdoptState(fresh *Index) {
	if fresh.constraint != x.constraint || fresh.opts.Design != x.opts.Design {
		panic("core: AdoptState across constraint kinds or designs")
	}
	x.rows = fresh.rows
	x.bm = fresh.bm
	x.ids = fresh.ids
	x.idsShared = fresh.idsShared
	x.np = fresh.np
	x.lastValue = fresh.lastValue
	x.hasLastValue = fresh.hasLastValue
}

// DesignKind returns the patch representation in use.
func (x *Index) DesignKind() Design { return x.opts.Design }

// Rows returns the number of tuples the index covers.
func (x *Index) Rows() uint64 { return x.rows }

// NumPatches returns the number of exceptions.
func (x *Index) NumPatches() uint64 { return x.np }

// ExceptionRate returns the ratio of exceptions to covered tuples
// (the paper's e).
func (x *Index) ExceptionRate() float64 {
	if x.rows == 0 {
		return 0
	}
	return float64(x.np) / float64(x.rows)
}

// Options returns the construction options, so maintenance can rebuild
// an index slot with the same design, shard layout and order.
func (x *Index) Options() Options { return x.opts }

// IsPatch reports whether rowID is an exception. It implements the
// executor's PatchTester, driving the exclude_patches / use_patches
// selection modes.
func (x *Index) IsPatch(rowID uint64) bool {
	if x.opts.Design == DesignBitmap {
		return x.bm.Get(rowID)
	}
	i := sort.Search(len(x.ids), func(i int) bool { return x.ids[i] >= rowID })
	return i < len(x.ids) && x.ids[i] == rowID
}

// AppendSel appends to sel the offsets relative to lo of the rowIDs in
// [lo, hi) that are patches (invert=false) or constraint-satisfying
// tuples (invert=true). It is the vectorized form of IsPatch used by the
// executor's selection modes on contiguous rowID ranges.
func (x *Index) AppendSel(lo, hi uint64, invert bool, sel []int32) []int32 {
	if x.opts.Design == DesignBitmap {
		return x.bm.AppendSel(lo, hi, invert, sel)
	}
	i := sort.Search(len(x.ids), func(i int) bool { return x.ids[i] >= lo })
	if !invert {
		for ; i < len(x.ids) && x.ids[i] < hi; i++ {
			sel = append(sel, int32(x.ids[i]-lo))
		}
		return sel
	}
	next := hi
	if i < len(x.ids) {
		next = x.ids[i]
	}
	for r := lo; r < hi; r++ {
		if r == next {
			i++
			next = hi
			if i < len(x.ids) && x.ids[i] < hi {
				next = x.ids[i]
			}
			continue
		}
		sel = append(sel, int32(r-lo))
	}
	return sel
}

// Patches returns all patch rowIDs in ascending order.
func (x *Index) Patches() []uint64 {
	if x.opts.Design == DesignBitmap {
		return x.bm.SetBits()
	}
	return append([]uint64(nil), x.ids...)
}

// LastSortedValue returns the tracked last value of the NSC sorted
// subsequence, if any.
func (x *Index) LastSortedValue() (int64, bool) { return x.lastValue, x.hasLastValue }

// SetLastSortedValue installs the NSC subsequence tail (used by
// discovery and recovery).
func (x *Index) SetLastSortedValue(v int64) {
	x.lastValue = v
	x.hasLastValue = true
}

// Descending reports whether a NSC index maintains descending order.
func (x *Index) Descending() bool { return x.opts.Descending }

// AddPatches marks the given sorted rowIDs as exceptions. It is the
// "merge the results with the existing patches" step of insert and
// modify handling. RowIDs already marked are ignored, and duplicates
// within rowIDs are set once — the collision join legitimately emits a
// rowID once per match pair (one inserted value colliding with several
// table rows, or vice versa).
func (x *Index) AddPatches(rowIDs []uint64) {
	if len(rowIDs) == 0 {
		return
	}
	if x.opts.Design == DesignBitmap {
		x.np += x.bm.SetSorted(rowIDs)
		return
	}
	merged := make([]uint64, 0, len(x.ids)+len(rowIDs))
	i, j := 0, 0
	for i < len(x.ids) || j < len(rowIDs) {
		switch {
		case j >= len(rowIDs) || (i < len(x.ids) && x.ids[i] < rowIDs[j]):
			merged = append(merged, x.ids[i])
			i++
		case i >= len(x.ids) || x.ids[i] > rowIDs[j]:
			if n := len(merged); n == 0 || merged[n-1] != rowIDs[j] {
				merged = append(merged, rowIDs[j])
			}
			j++
		default: // equal: keep once
			merged = append(merged, x.ids[i])
			i++
			j++
		}
	}
	x.ids = merged
	x.idsShared = false
	x.np = uint64(len(merged))
}

// Extend grows the index by added tuples (inserted at the logical end of
// the table), initially all satisfying the constraint. For the bitmap
// design this is the reallocate/resize path of Section 4.
func (x *Index) Extend(added uint64) {
	if x.opts.Design == DesignBitmap {
		x.bm.Grow(added)
	}
	x.rows += added
}

// HandleDelete implements delete handling (Section 5.3, Table 1):
// tracking information about the deleted tuples is dropped and rowIDs of
// subsequent tuples shift down. rowIDs must be sorted ascending and
// distinct. Deleting values never violates either constraint; optimality
// may be lost, which the monitoring threshold covers.
func (x *Index) HandleDelete(rowIDs []uint64) {
	if len(rowIDs) == 0 {
		return
	}
	if x.opts.Design == DesignBitmap {
		// Count patches among the deleted before they vanish.
		for _, r := range rowIDs {
			if x.bm.Get(r) {
				x.np--
			}
		}
		x.bm.BulkDelete(rowIDs)
		if x.bm.Utilization() < condenseThreshold {
			x.bm.Condense()
		}
	} else {
		// Walk the identifier list once: drop deleted ids, decrement
		// survivors by the number of deleted tuples below them. The
		// compaction reuses the backing array, so un-share it first.
		ids := x.mutableIDs()
		out := ids[:0]
		di := 0
		for _, id := range ids {
			for di < len(rowIDs) && rowIDs[di] < id {
				di++
			}
			if di < len(rowIDs) && rowIDs[di] == id {
				continue // patch deleted with its tuple
			}
			out = append(out, id-uint64(di))
		}
		x.ids = out
		x.np = uint64(len(out))
	}
	x.rows -= uint64(len(rowIDs))
}

// MemoryBytes returns the index memory consumption (Table 3): the bitmap
// design costs rows/8 bytes plus the 0.39% sharding overhead; the
// identifier design costs 8 bytes per patch.
func (x *Index) MemoryBytes() uint64 {
	if x.opts.Design == DesignBitmap {
		return x.bm.SizeBytes()
	}
	return uint64(len(x.ids)) * 8
}

// Utilization exposes the sharded bitmap utilization (1.0 for the
// identifier design).
func (x *Index) Utilization() float64 {
	if x.opts.Design == DesignBitmap {
		return x.bm.Utilization()
	}
	return 1
}

// Condense reclaims dead slots in the bitmap design (no-op for the
// identifier design).
func (x *Index) Condense() {
	if x.opts.Design == DesignBitmap {
		x.bm.Condense()
	}
}

// Freeze returns an immutable-by-convention copy of the index whose
// patch storage is shared copy-on-write with the receiver. For the
// bitmap design the sharing is shard-granular (bitmap.Sharded.Freeze):
// capturing the snapshot copies no bit data, and a subsequent update
// copies only the shards it touches instead of the whole bitmap. For the
// identifier design the sorted rowID list is shared until the next
// in-place mutation copies it.
//
// The engine's snapshot layer hands Freeze copies to queries, so a
// snapshot keeps reading a frozen patch view while update handling
// proceeds on the live index (the MVCC-lite analogue of the host
// system's snapshot isolation, Section 5.4). Reading the frozen copy is
// safe concurrently with mutations of the live one.
func (x *Index) Freeze() *Index {
	n := *x
	if x.bm != nil {
		n.bm = x.bm.Freeze()
	}
	if x.opts.Design == DesignIdentifier {
		x.idsShared = true
		n.idsShared = true
	}
	return &n
}

// mutableIDs returns the identifier list for in-place mutation, copying
// it first when a Freeze partner still references it.
func (x *Index) mutableIDs() []uint64 {
	if x.idsShared {
		x.ids = append([]uint64(nil), x.ids...)
		x.idsShared = false
	}
	return x.ids
}

// Validate checks internal invariants; it is used by tests and returns a
// descriptive error on corruption.
func (x *Index) Validate() error {
	if x.opts.Design == DesignBitmap {
		if x.bm.Len() != x.rows {
			return fmt.Errorf("core: bitmap length %d != rows %d", x.bm.Len(), x.rows)
		}
		if got := x.bm.Count(); got != x.np {
			return fmt.Errorf("core: bitmap count %d != np %d", got, x.np)
		}
		return nil
	}
	if uint64(len(x.ids)) != x.np {
		return fmt.Errorf("core: id count %d != np %d", len(x.ids), x.np)
	}
	for i, id := range x.ids {
		if id >= x.rows {
			return fmt.Errorf("core: id %d out of range %d", id, x.rows)
		}
		if i > 0 && x.ids[i-1] >= id {
			return fmt.Errorf("core: ids not strictly ascending at %d", i)
		}
	}
	return nil
}
