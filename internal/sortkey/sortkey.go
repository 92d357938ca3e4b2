// Package sortkey implements the SortKey comparator of the paper's
// evaluation (Section 6): data is physically reordered on the key
// column, so sort queries degenerate to scans (plus a partition merge).
// Physically reordering is expensive to create and to maintain under
// updates, and only one SortKey can exist per table — the drawbacks the
// PatchIndex avoids by leaving the physical order untouched.
//
// The physical reorder rewrites the shared column arrays in place, which
// would silently corrupt any live engine snapshot referencing them.
// CreateEngine and RebuildChecked therefore go through the engine's
// reorder guard (engine.Table.ReorderStorage) and refuse to run while
// snapshot refs — explicitly captured or query-internal ephemeral — are
// live. The engine guard also checkpoints pending deltas first (their
// positions refer to pre-reorder rows) and re-anchors minmax summaries
// and any PatchIndex slots to the new physical order afterwards, so a
// SortKey may coexist with PatchIndexes on the same engine table. The
// raw Create entry point remains for storage-level experiment code that
// owns its table outright, but it no longer bypasses the registry: the
// reorder runs inside storage.Table.Exclusive — refusing (with a panic)
// while any snapshot ref is live, and blocking new refs for its
// duration — rather than reorder a table some snapshot still
// references.
//
// Re-sorts can also be confined to one partition:
// RebuildPartitionChecked goes through the partition-granular guard
// (engine.Table.ReorderPartition / storage.Table.ExclusivePartition),
// which refuses only while a snapshot ref holds the *target*
// partition's current generation — a rebuild of partition 3 proceeds
// while a query drains a partition-scoped capture of partition 0, and
// partition-local sortedness is exactly what SortedScan's partition
// merge relies on. This is the entry point the engine's maintenance
// daemon drives when a partition's physical sortedness decays.
package sortkey

import (
	"fmt"
	"sort"
	"sync"

	"patchindex/internal/engine"
	"patchindex/internal/exec"
	"patchindex/internal/pdt"
	"patchindex/internal/storage"
)

// SortKey physically orders a table's partitions by one int64 column.
type SortKey struct {
	table *storage.Table
	col   int
	desc  bool
	// Rebuilds counts physical re-sorts, for the update experiments.
	// Partition-scoped rebuilds of disjoint partitions may run
	// concurrently (the engine guard serializes per partition, not per
	// table), so increments go through countMu; read Rebuilds only
	// after the rebuilds quiesce.
	Rebuilds int
	countMu  sync.Mutex // lock-rank: none leaf guard for the Rebuilds counter only
	// guard wraps the whole-table physical reorder for engine-owned
	// tables (engine.Table.ReorderStorage); nil for raw storage-level
	// SortKeys. pguard is its partition-granular sibling
	// (engine.Table.ReorderPartition).
	guard  func(func(*storage.Table) error) error
	pguard func(int, func(*storage.Table) error) error
}

// Create physically sorts every partition of table by col. The caller
// must own the table exclusively; as a backstop, Create runs the
// reorder inside the table's registry-exclusive section
// (storage.Table.Exclusive) and panics when any snapshot ref is live —
// an engine snapshot or an in-flight query would be silently corrupted
// by the in-place reorder, and no new ref can be retained while the
// reorder runs. For tables managed by the engine, use CreateEngine,
// which refuses with an error instead.
func Create(table *storage.Table, col int, desc bool) *SortKey {
	s := &SortKey{table: table, col: col, desc: desc}
	if err := s.rebuildExclusive(); err != nil {
		panic(err)
	}
	s.Rebuilds = 0
	return s
}

// rebuildExclusive enforces the snapshot registry on the raw
// storage-level path: the liveness check and the reorder run atomically
// under the registry lock, so a query capturing concurrently either
// blocks until the reorder finishes or makes the reorder refuse.
// (Guarded SortKeys go through engine.Table.ReorderStorage or
// ReorderPartition instead, which perform the check under the engine's
// locks — the locks every engine capture takes.)
func (s *SortKey) rebuildExclusive() error {
	return s.table.Exclusive(func() error {
		s.rebuild()
		return nil
	})
}

// CreateEngine physically sorts an engine table's partitions by the
// named column through the engine's snapshot guard: it refuses (with an
// error, sorting nothing) while explicitly captured snapshots of the
// table are open, because the in-place reorder would corrupt their
// frozen views. Subsequent re-sorts of the returned SortKey go through
// the same guard.
func CreateEngine(t *engine.Table, column string, desc bool) (*SortKey, error) {
	col := t.Schema().ColumnIndex(column)
	if col < 0 {
		return nil, fmt.Errorf("sortkey: unknown column %q on table %q", column, t.Name())
	}
	s := &SortKey{col: col, desc: desc, guard: t.ReorderStorage, pguard: t.ReorderPartition}
	err := s.guard(func(st *storage.Table) error {
		s.table = st
		s.rebuild()
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.Rebuilds = 0
	return s, nil
}

func (s *SortKey) rebuild() {
	for p := 0; p < s.table.NumPartitions(); p++ {
		sortPartition(s.table.Partition(p), s.col, s.desc)
	}
	s.countRebuild()
}

func (s *SortKey) countRebuild() {
	s.countMu.Lock()
	s.Rebuilds++
	s.countMu.Unlock()
}

// Rebuild re-sorts the table — the per-update maintenance cost of the
// SortKey approach. It panics when the rebuild is refused because
// snapshot refs are live; use RebuildChecked to handle the refusal
// gracefully.
func (s *SortKey) Rebuild() {
	if err := s.RebuildChecked(); err != nil {
		panic(err)
	}
}

// RebuildChecked re-sorts the table through the snapshot guard when one
// is attached — and through the storage-level registry check when not —
// returning the refusal instead of reordering storage out from under
// live snapshots or in-flight queries.
func (s *SortKey) RebuildChecked() error {
	if s.guard == nil {
		return s.rebuildExclusive()
	}
	return s.guard(func(*storage.Table) error {
		s.rebuild()
		return nil
	})
}

// RebuildPartitionChecked re-sorts just partition p through the
// partition-granular snapshot guard: it refuses only while a snapshot
// ref holds p's current generation, so maintenance of one partition
// proceeds while queries drain partition-scoped captures of its
// siblings (and while refs linger on retired generations a checkpoint
// already swapped out). Counts as one rebuild toward Rebuilds.
func (s *SortKey) RebuildPartitionChecked(p int) error {
	reorder := func(st *storage.Table) error {
		sortPartition(st.Partition(p), s.col, s.desc)
		s.countRebuild()
		return nil
	}
	if s.pguard != nil {
		return s.pguard(p, reorder)
	}
	if p < 0 || p >= s.table.NumPartitions() {
		return fmt.Errorf("sortkey: table %q has no partition %d", s.table.Name, p)
	}
	return s.table.ExclusivePartition(p, func() error {
		return reorder(s.table)
	})
}

// sortPartition reorders all columns of p by the key column and drops
// p's cached minmax summaries, which describe the old row order.
func sortPartition(p *storage.Partition, col int, desc bool) {
	n := p.NumRows()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	keys := p.Column(col).Int64s()
	sort.SliceStable(perm, func(a, b int) bool {
		if desc {
			return keys[perm[a]] > keys[perm[b]]
		}
		return keys[perm[a]] < keys[perm[b]]
	})
	// Apply the permutation to every column.
	for c := 0; c < len(p.Schema()); c++ {
		column := p.Column(c)
		switch p.Schema()[c].Kind {
		case storage.KindInt64:
			src := column.Int64s()
			dst := make([]int64, n)
			for i, pi := range perm {
				dst[i] = src[pi]
			}
			copy(src, dst)
		case storage.KindFloat64:
			src := column.Float64s()
			dst := make([]float64, n)
			for i, pi := range perm {
				dst[i] = src[pi]
			}
			copy(src, dst)
		default:
			src := column.Strings()
			dst := make([]string, n)
			for i, pi := range perm {
				dst[i] = src[pi]
			}
			copy(src, dst)
		}
	}
	p.InvalidateMinMax()
}

// SortedScan returns the sort-query plan under a SortKey: per-partition
// scans (already sorted) combined by a Merge to preserve the global
// order — the partitioned table still needs the merge step (Section 6.2).
func (s *SortKey) SortedScan() exec.Operator {
	parts := make([]exec.Operator, s.table.NumPartitions())
	for p := 0; p < s.table.NumPartitions(); p++ {
		view := pdt.NewView(s.table.Partition(p), nil)
		parts[p] = exec.NewScan(view, []int{s.col})
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return exec.NewMerge(0, s.desc, parts...)
}

// MemoryBytes is the extra storage of the SortKey: none — the data
// itself is reordered (Fig. 11's "M" advantage).
func (s *SortKey) MemoryBytes() uint64 { return 0 }
