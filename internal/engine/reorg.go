package engine

import (
	"errors"
	"fmt"

	"patchindex/internal/core"
	"patchindex/internal/storage"
)

// ErrSnapshotCaptured is wrapped by every physical-reorganization
// refusal (ReorderPartition, ReorderStorage, ExclusivePartition,
// ExclusiveStorage): the target storage is still referenced by a live
// snapshot — explicitly captured or query-internal — and reordering it
// would corrupt the snapshot's frozen views. The condition is
// transient; errors.Is against this sentinel is how the maintenance
// daemon tells a refusal worth retrying with backoff apart from a real
// failure.
var ErrSnapshotCaptured = errors.New("captured by a live snapshot (explicit or in-flight query)")

// Physical reorganization with metadata re-anchoring. ExclusiveStorage
// and ExclusivePartition (engine.go) hand out raw storage access and
// leave every piece of engine metadata alone — correct for the
// comparator experiments that own index-less tables, but a reorder of a
// PatchIndex-carrying table invalidates three things the raw guards
// cannot see:
//
//   - pending deltas: delete/modify positions refer to pre-reorder rows,
//     and buffered inserts would dodge the permutation entirely;
//   - minmax summaries: snapshots share them and appends keep them, so
//     a permutation — which changes no row count — leaves a cached
//     summary describing the old row order until it is invalidated;
//   - the per-partition index slots: patch rowIDs and the NSC sorted-run
//     bookkeeping describe physical positions that just moved.
//
// ReorderStorage and ReorderPartition wrap the same guards with the
// checkpoint-first / invalidate / recompute protocol, and are what the
// SortKey comparator and the maintenance daemon go through.

// ReorderPartition runs fn with exclusive write access to partition p of
// the table's underlying storage — for physical reorganizations confined
// to that partition — and re-anchors the engine's metadata to the new
// physical order afterwards. The partition's pending delta is
// checkpointed FIRST (its positions refer to pre-reorder rows, and a
// non-insert-only checkpoint of a snapshot-shared generation publishes a
// fresh clone, which also clears refusals a stale ref would otherwise
// cause); the snapshot-retained check follows, refusing like
// ExclusivePartition while a live capture still holds p's current
// generation. After fn returns, p's minmax summaries are invalidated —
// which also stops views frozen before the reorder from publishing theirs
// back — and every PatchIndex slot p is recomputed from the new physical
// order. fn must either complete its permutation or leave the partition
// unchanged; a permutation must not change the row count or the value
// multiset.
//
// Holding one partition lock (shared structure lock + pmu[p]) for the
// whole protocol means writers of every other partition proceed
// untouched — the property the maintenance daemon relies on.
func (t *Table) ReorderPartition(p int, fn func(*storage.Table) error) error {
	if p < 0 || p >= len(t.pmu) {
		return fmt.Errorf("engine: table %q has no partition %d", t.name, p)
	}
	t.lockPartition(p)
	defer t.unlockPartition(p)
	t.checkpointPartitionLocked(p)
	if t.store.PartitionRetained(p) {
		return fmt.Errorf("engine: partition %d of table %q is %w; close/drain it before physically reordering the partition", p, t.name, ErrSnapshotCaptured)
	}
	if err := fn(t.store); err != nil {
		return err
	}
	t.store.Partition(p).InvalidateMinMax()
	t.recomputePartitionIndexesLocked(p)
	// A rewrite record carries the partition's POST-state image, so it is
	// logged after the permutation (the one logged op that cannot be
	// write-ahead). Losing it to a crash is still safe: this op held the
	// partition lock, so no later record of this partition exists, and
	// replay without it reproduces the legal pre-reorder state.
	if t.wal != nil {
		//pilint:ignore lockblock the rewrite image must be logged under the same partition lock that ordered the permutation (Durability, package docs)
		if err := t.logWAL(t.wal.segs[p], walOpRewrite, encodeRewrite(t.store.Schema(), p, t.viewLocked(p))); err != nil {
			return err
		}
	}
	return nil
}

// ReorderStorage is ReorderPartition for whole-table physical
// reorganizations (the SortKey create/rebuild path): every delta is
// checkpointed first, the reorder refuses while any snapshot ref is live
// (like ExclusiveStorage — table-level refs cannot be cleared by a
// checkpoint, so the check precedes it only in spirit; checkpointing a
// doomed reorder is harmless always-legal maintenance), and afterwards
// every partition's minmax summaries are invalidated and its index
// slots recomputed.
func (t *Table) ReorderStorage(fn func(*storage.Table) error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := t.store.LiveSnapshotRefs(); n > 0 {
		return fmt.Errorf("engine: table %q (%d live ref(s)) is %w; close/drain them before physically reordering storage", t.name, n, ErrSnapshotCaptured)
	}
	t.checkpointLocked()
	if err := fn(t.store); err != nil {
		return err
	}
	for p := 0; p < t.store.NumPartitions(); p++ {
		t.store.Partition(p).InvalidateMinMax()
		t.recomputePartitionIndexesLocked(p)
	}
	// Post-state rewrite images, one per partition, on the exclusive-op
	// segment (this op holds the structure lock exclusively). As in
	// ReorderPartition, a crash losing a suffix of these records is safe:
	// no later record of this table can exist, and the lost partitions
	// replay to their legal pre-reorder state.
	if t.wal != nil {
		for p := 0; p < t.store.NumPartitions(); p++ {
			//pilint:ignore lockblock the rewrite images must be logged under the same structure lock that ordered the reorganization (Durability, package docs)
			if err := t.logWAL(t.wal.excl, walOpRewrite, encodeRewrite(t.store.Schema(), p, t.viewLocked(p))); err != nil {
				return err
			}
		}
	}
	return nil
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
