package engine

import (
	"fmt"

	"patchindex/internal/core"
	"patchindex/internal/pdt"
	"patchindex/internal/storage"
)

// Physical rewrites. A reorder (ReorderPartition, ReorderStorage) and a
// bulk load (Load) replace a partition's rows wholesale, and all three
// follow one protocol: build the new partition aside, log its rewrite
// image, and only then publish it (publishPartitionLocked), which
// replay's replayRewrite does too. The old partition object is never
// written again, so a snapshot that captured it keeps reading it: no
// rewrite refuses or waits for a snapshot. A failed append publishes
// nothing, so the live state is always what replay reproduces.
// Publication re-anchors the metadata a rewrite invalidates:
//
//   - the pending delta: its positions refer to the old rows, so the
//     rewrite checkpoints it first and publication starts an empty one;
//   - minmax summaries: the new partition starts without any;
//   - the index slots: patch rowIDs and the NSC sorted-run bookkeeping
//     describe physical positions, so every slot of the partition is
//     re-derived from the new rows.

// ReorderPartition permutes partition p. order receives the partition,
// its pending delta checkpointed, and returns the new row order: entry
// i is the old position of new row i, and anything that is not a
// permutation of [0, NumRows()) is rejected before it is logged. It
// holds one partition lock (shared structure lock + pmu[p]), so writers
// of every other partition proceed untouched — the property the
// maintenance daemon relies on.
func (t *Table) ReorderPartition(p int, order func(*storage.Partition) []int) error {
	if p < 0 || p >= len(t.pmu) {
		return fmt.Errorf("engine: table %q has no partition %d", t.name, p)
	}
	t.lockPartition(p)
	defer t.unlockPartition(p)
	//pilint:ignore lockblock the image must be logged under the partition lock that orders the reorder, before it is published (Durability, package docs)
	return t.reorderLocked(p, order, false)
}

// ReorderStorage is ReorderPartition for every partition in turn (the
// SortKey create/rebuild path), under the exclusive structure lock and
// logged on the table-level segment. It stops at the first error; the
// partitions before it stay reordered, as replay reproduces them.
func (t *Table) ReorderStorage(order func(*storage.Partition) []int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for p := 0; p < t.store.NumPartitions(); p++ {
		//pilint:ignore lockblock the images must be logged under the structure lock that orders the reorder, before they are published (Durability, package docs)
		if err := t.reorderLocked(p, order, true); err != nil {
			return err
		}
	}
	return nil
}

// reorderLocked checkpoints partition p, permutes it by order and
// rewrites it (rewritePartitionLocked). The caller owns partition p.
func (t *Table) reorderLocked(p int, order func(*storage.Partition) []int, excl bool) error {
	t.checkpointPartitionLocked(p)
	cur := t.store.Partition(p)
	next, err := cur.Permute(order(cur))
	if err != nil {
		return fmt.Errorf("engine: reordering partition %d of table %q: %w", p, t.name, err)
	}
	return t.rewritePartitionLocked(p, next, excl)
}

// rewritePartitionLocked logs part as partition p's rewrite image — on
// the table-level segment when excl, else on p's own — and then
// publishes it. The caller owns partition p (the exclusive structure
// lock when excl) and has checkpointed its delta.
func (t *Table) rewritePartitionLocked(p int, part *storage.Partition, excl bool) error {
	if t.wal != nil {
		seg := t.wal.segs[p]
		if excl {
			seg = t.wal.excl
		}
		if err := t.logWAL(seg, walOpRewrite, encodeRewrite(t.store.Schema(), p, pdt.NewView(part, nil))); err != nil {
			return err
		}
	}
	t.publishPartitionLocked(p, part)
	return nil
}

// publishPartitionLocked makes part partition p's new generation, starts
// an empty delta over it and re-derives every index slot p from its
// rows. The caller owns partition p and has checkpointed its delta.
func (t *Table) publishPartitionLocked(p int, part *storage.Partition) {
	t.store.SetPartition(p, part)
	t.delta[p] = pdt.NewDelta(t.store.Schema(), part.NumRows())
	t.deltaShared[p] = false
	t.recomputePartitionIndexesLocked(p)
}

// rederiveNUCLocked rebuilds every NUC column's collision directory from
// the table's rows and re-derives all of its slots: a rewrite that
// changed the value multiset (a load, or the replay of any rewrite image,
// which cannot tell) may seal values other partitions hold. The caller
// holds the table exclusively.
func (t *Table) rederiveNUCLocked() {
	for column := range t.nuc {
		t.rebuildNUCStateLocked(column)
		idx := t.indexes[column]
		for q := range idx {
			t.recomputeIndexSlotLocked(column, idx, q)
		}
	}
}

// recomputePartitionIndexesLocked rebuilds every PatchIndex's slot p
// from partition p's current contents. The caller owns partition p.
func (t *Table) recomputePartitionIndexesLocked(p int) {
	for column, idx := range t.indexes {
		t.recomputeIndexSlotLocked(column, idx, p)
	}
}

// recomputeIndexSlotLocked rebuilds one column's index slot p from the
// partition's current contents, preserving the slot's construction
// options. The caller owns partition p. The rebuilt state is adopted
// into the existing *Index IN PLACE (core.Index.AdoptState), never by
// swapping the slot pointer: readers in other lock domains — insert
// chunks under a sibling partition's lock, planners under the shared
// structure lock — consult a representative slot's immutable constraint
// kind without holding THIS partition's lock, which is only safe while
// slot pointers stay stable between DDL operations.
//
//   - NSC: full rediscovery — the fresh slot reflects the current
//     physical order, so a partition the sort-key reorderer just
//     re-sorted comes out patch-free.
//   - NUC: a row is a patch iff its value is in the sealed exception
//     set or duplicated inside the partition. Discovery seals every
//     global duplicate and all later write paths keep sealing, so this
//     is a superset of the true duplicates; it is conservative for
//     values whose duplicate partners were deleted (the sealed set is
//     monotone), matching the engine's standing "extra patches cost
//     plan optimality, never correctness" stance. The recompute's value
//     for NUC is therefore positional (after a reorder) and structural
//     (a compact bitmap replaces an eroded one), not patch-count
//     reduction.
func (t *Table) recomputeIndexSlotLocked(column string, idx []*core.Index, p int) {
	x := idx[p]
	col := t.store.Schema().MustColumnIndex(column)
	switch x.ConstraintKind() {
	case core.NearlySorted:
		x.AdoptState(core.BuildNSC(t.viewLocked(p).MaterializeInt64(col), x.Options()))
	case core.NearlyUnique:
		c := t.nuc[column]
		if c == nil {
			return // no collision directory to recompute from; keep the slot
		}
		rows, patches := c.patches(t.viewLocked(p), p)
		x.AdoptState(core.New(core.NearlyUnique, uint64(rows), patches, x.Options()))
	}
}

// RecomputePartitionIndex rebuilds the PatchIndex slot p of column from
// the partition's current contents — the partition-granular form of the
// global recomputation the paper suggests when update handling has
// eroded optimality (Sections 5.1, 5.3), and the maintenance daemon's
// answer to a slot whose exception rate crossed its threshold. Only
// partition p's writers are gated, and only for the O(partition rows)
// rebuild.
func (t *Table) RecomputePartitionIndex(column string, p int) error {
	if p < 0 || p >= len(t.pmu) {
		return fmt.Errorf("engine: table %q has no partition %d", t.name, p)
	}
	t.lockPartition(p)
	defer t.unlockPartition(p)
	idx := t.indexes[column]
	if idx == nil {
		return fmt.Errorf("engine: no PatchIndex on %s.%s", t.name, column)
	}
	t.recomputeIndexSlotLocked(column, idx, p)
	return nil
}

// CondensePartitionIndex rewrites the patch storage of column's index
// slot p into its most compact representation (bitmap designs only; a
// no-op for identifier lists). Cheap — O(live patch shards) — and gates
// only partition p's writers.
func (t *Table) CondensePartitionIndex(column string, p int) error {
	if p < 0 || p >= len(t.pmu) {
		return fmt.Errorf("engine: table %q has no partition %d", t.name, p)
	}
	t.lockPartition(p)
	defer t.unlockPartition(p)
	idx := t.indexes[column]
	if idx == nil {
		return fmt.Errorf("engine: no PatchIndex on %s.%s", t.name, column)
	}
	idx[p].Condense()
	return nil
}
