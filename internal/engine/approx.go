package engine

import (
	"fmt"

	"patchindex/internal/core"
	"patchindex/internal/lis"
)

// Per-partition index health: the exception rates, patch-storage
// utilization and physical sortedness the maintenance daemon samples to
// decide which partitions to repair (maintainer.go).

// PartitionStats is one partition's index health snapshot, the unit the
// maintenance daemon samples to decide where repair work pays off.
type PartitionStats struct {
	Partition     int
	Rows          uint64
	Patches       uint64
	ExceptionRate float64 // Patches / Rows (0 when empty)
	MemoryBytes   uint64
	Utilization   float64 // live fraction of patch storage (1 when empty)
}

// PartitionIndexStats returns each partition's health statistics for the
// PatchIndexes on column, or nil if the column has none. Partitions are
// sampled one at a time under their own partition lock, so the slice is
// not one consistent cut of the table — by design: the maintenance
// daemon must never gate concurrent writers on all partitions at once
// just to read counters, and per-partition repair decisions only need
// per-partition consistency.
func (t *Table) PartitionIndexStats(column string) []PartitionStats {
	t.mu.RLock()
	idx := t.indexes[column]
	t.mu.RUnlock()
	if idx == nil {
		return nil
	}
	out := make([]PartitionStats, len(idx))
	for p, x := range idx {
		t.lockPartition(p)
		rows, patches := x.Rows(), x.NumPatches()
		out[p] = PartitionStats{
			Partition:   p,
			Rows:        rows,
			Patches:     patches,
			MemoryBytes: x.MemoryBytes(),
			Utilization: x.Utilization(),
		}
		if rows > 0 {
			out[p].ExceptionRate = float64(patches) / float64(rows)
		}
		t.unlockPartition(p)
	}
	return out
}

// PartitionSortedness returns the exact sortedness of partition p of a
// NSC-indexed column: the length of the longest (ascending or
// descending, per the index) subsequence divided by the row count.
// Unlike the index's exception rate, which reads the maintained
// sorted-run length, this measures the physically stored values — after
// enough churn the two diverge, and a partition whose physical
// sortedness collapsed is exactly one the maintenance daemon should
// hand to the sort-key reorderer. The column copy is taken under the
// partition lock; the O(n log n) LIS runs outside it.
func (t *Table) PartitionSortedness(column string, p int) (float64, error) {
	if p < 0 || p >= len(t.pmu) {
		return 0, fmt.Errorf("engine: table %q has no partition %d", t.name, p)
	}
	t.mu.RLock()
	idx := t.indexes[column]
	t.mu.RUnlock()
	if idx == nil || idx[0].ConstraintKind() != core.NearlySorted {
		return 0, fmt.Errorf("engine: PartitionSortedness requires a NSC index on %s.%s", t.name, column)
	}
	col := t.store.Schema().MustColumnIndex(column)
	t.lockPartition(p)
	vals := append([]int64(nil), t.viewLocked(p).MaterializeInt64(col)...)
	desc := idx[p].Descending()
	t.unlockPartition(p)
	if len(vals) == 0 {
		return 1, nil
	}
	return float64(lis.LongestLen(vals, desc)) / float64(len(vals)), nil
}
