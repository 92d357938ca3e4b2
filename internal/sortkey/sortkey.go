// Package sortkey implements the SortKey comparator of the paper's
// evaluation (Section 6): data is physically reordered on the key
// column, so sort queries degenerate to scans (plus a partition merge).
// Physically reordering is expensive to create and to maintain under
// updates, and only one SortKey can exist per table — the drawbacks the
// PatchIndex avoids by leaving the physical order untouched.
//
// A SortKey lives on an engine table (CreateEngine) and publishes every
// re-sort through the engine (engine.Table.ReorderStorage,
// ReorderPartition). A re-sort never writes a partition in place: it
// computes the sorting permutation (order), the engine gathers every
// column into a new partition, checkpoints pending deltas first, logs
// the new image before publishing it and re-derives any PatchIndex
// slots, leaving the old partition to any snapshot that captured it. So
// no re-sort refuses or waits for a snapshot, and a SortKey may coexist
// with PatchIndexes on the same engine table.
//
// Re-sorts can also be confined to one partition
// (RebuildPartitionChecked): partition-local sortedness is exactly
// what SortedScan's partition merge relies on, and it is the entry
// point the engine's maintenance daemon drives when a partition's
// physical sortedness decays.
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
	engine *engine.Table
	col    int
	desc   bool
	// Rebuilds counts physical re-sorts, for the update experiments.
	// Partition-scoped rebuilds of disjoint partitions may run
	// concurrently (the engine serializes per partition, not per
	// table), so increments go through countMu; read Rebuilds only
	// after the rebuilds quiesce.
	Rebuilds int
	countMu  sync.Mutex // lock-rank: none leaf guard for the Rebuilds counter only
}

// CreateEngine physically sorts an engine table's partitions by the
// named column through the engine (engine.Table.ReorderStorage), as do
// the returned SortKey's later re-sorts.
func CreateEngine(t *engine.Table, column string, desc bool) (*SortKey, error) {
	col := t.Schema().ColumnIndex(column)
	if col < 0 {
		return nil, fmt.Errorf("sortkey: unknown column %q on table %q", column, t.Name())
	}
	s := &SortKey{engine: t, col: col, desc: desc}
	if err := s.RebuildChecked(); err != nil {
		return nil, err
	}
	s.Rebuilds = 0
	return s, nil
}

func (s *SortKey) countRebuild() {
	s.countMu.Lock()
	s.Rebuilds++
	s.countMu.Unlock()
}

// RebuildChecked re-sorts every partition — the per-update maintenance
// cost of the SortKey approach — returning the first error (a failed
// WAL append).
func (s *SortKey) RebuildChecked() error {
	err := s.engine.ReorderStorage(s.order)
	if err == nil {
		s.countRebuild()
	}
	return err
}

// RebuildPartitionChecked re-sorts just partition p. Counts as one
// rebuild toward Rebuilds.
func (s *SortKey) RebuildPartitionChecked(p int) error {
	err := s.engine.ReorderPartition(p, s.order)
	if err == nil {
		s.countRebuild()
	}
	return err
}

// order returns the stable permutation that sorts p by the key column.
func (s *SortKey) order(p *storage.Partition) []int {
	keys := p.Column(s.col).Int64s()
	perm := make([]int, len(keys))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		if s.desc {
			return keys[perm[a]] > keys[perm[b]]
		}
		return keys[perm[a]] < keys[perm[b]]
	})
	return perm
}

// SortedScan returns the sort-query plan under a SortKey: per-partition
// scans (already sorted) combined by a Merge to preserve the global
// order — the partitioned table still needs the merge step (Section 6.2).
func (s *SortKey) SortedScan() exec.Operator {
	table := s.engine.Store()
	parts := make([]exec.Operator, table.NumPartitions())
	for p := range parts {
		view := pdt.NewView(table.Partition(p), nil)
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
