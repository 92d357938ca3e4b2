// Package sortkey implements the SortKey comparator of the paper's
// evaluation (Section 6): data is physically reordered on the key
// column, so sort queries degenerate to scans (plus a partition merge).
// Physically reordering is expensive to create and to maintain under
// updates, and only one SortKey can exist per table — the drawbacks the
// PatchIndex avoids by leaving the physical order untouched.
//
// A re-sort never writes a partition in place: it computes the sorting
// permutation (order, one routine for both modes), gathers every column
// into a new partition (storage.Partition.Permute) and publishes that,
// leaving the old partition to any snapshot that captured it — so no
// re-sort refuses or waits for one. CreateEngine's SortKeys publish
// through the engine (engine.Table.ReorderStorage, ReorderPartition),
// which checkpoints pending deltas first, logs the new image before
// publishing it and re-derives any PatchIndex slots, so a SortKey may
// coexist with PatchIndexes on the same engine table. Create's SortKeys
// publish straight through storage.Table.SetPartition, for experiment
// code that owns its table outright.
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
	table *storage.Table
	// engine is the engine table the SortKey publishes through; nil
	// for raw storage-level SortKeys.
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

// Create physically sorts every partition of table by col. The caller
// must own the table exclusively: nothing orders the re-sort against
// its other writers. For tables managed by the engine, use
// CreateEngine.
func Create(table *storage.Table, col int, desc bool) *SortKey {
	s := &SortKey{table: table, col: col, desc: desc}
	s.Rebuild()
	s.Rebuilds = 0
	return s
}

// CreateEngine physically sorts an engine table's partitions by the
// named column through the engine (engine.Table.ReorderStorage), as do
// the returned SortKey's later re-sorts.
func CreateEngine(t *engine.Table, column string, desc bool) (*SortKey, error) {
	col := t.Schema().ColumnIndex(column)
	if col < 0 {
		return nil, fmt.Errorf("sortkey: unknown column %q on table %q", column, t.Name())
	}
	s := &SortKey{table: t.Store(), engine: t, col: col, desc: desc}
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

// Rebuild re-sorts the table — the per-update maintenance cost of the
// SortKey approach. It panics on the errors RebuildChecked returns.
func (s *SortKey) Rebuild() {
	if err := s.RebuildChecked(); err != nil {
		panic(err)
	}
}

// RebuildChecked re-sorts every partition, returning the first error (a
// failed WAL append of an engine table).
func (s *SortKey) RebuildChecked() error {
	var err error
	if s.engine != nil {
		err = s.engine.ReorderStorage(s.order)
	} else {
		for p := 0; p < s.table.NumPartitions() && err == nil; p++ {
			err = s.publishRaw(p)
		}
	}
	if err == nil {
		s.countRebuild()
	}
	return err
}

// RebuildPartitionChecked re-sorts just partition p. Counts as one
// rebuild toward Rebuilds.
func (s *SortKey) RebuildPartitionChecked(p int) error {
	var err error
	switch {
	case s.engine != nil:
		err = s.engine.ReorderPartition(p, s.order)
	case p < 0 || p >= s.table.NumPartitions():
		err = fmt.Errorf("sortkey: table %q has no partition %d", s.table.Name, p)
	default:
		err = s.publishRaw(p)
	}
	if err == nil {
		s.countRebuild()
	}
	return err
}

// publishRaw re-sorts partition p of a raw SortKey's table into a new
// partition and publishes it.
func (s *SortKey) publishRaw(p int) error {
	next, err := s.table.Partition(p).Permute(s.order(s.table.Partition(p)))
	if err != nil {
		return err
	}
	s.table.SetPartition(p, next)
	return nil
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
