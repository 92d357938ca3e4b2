package engine

import (
	"fmt"

	"patchindex/internal/core"
	"patchindex/internal/storage"
)

// Update queries (Section 5). Each entry point applies the table change
// through the positional delta, runs the PatchIndex update handlers of
// Table 1 for every index on the table, and finally checkpoints the
// delta when AutoCheckpoint is set. Handling happens immediately after
// the update, so the materialized constraint information never reaches
// an inconsistent state. Checkpoints consult the snapshot registry
// (see checkpointPartitionLocked): a delete/modify checkpoint clones a
// partition only while a live snapshot references its current
// generation, so the update path owes nothing to queries that already
// finished.
//
// Locking is partition-granular where maintenance allows it.
// DeleteRowIDs, and Modify of a column without a NUC index, touch only
// their target partition (delete handling and NSC modify handling are
// partition-local, Table 1), so they run under that partition's lock
// alone and disjoint-partition updates proceed in parallel. Uniqueness
// is a global property (Section 5.1), so NUC-column Modify takes the
// exclusive structure lock. Where the paper joins the changed tuples
// against every partition (Fig. 5), every insert (insert.go) and
// NUC-column Modify looks the new values up in the column's exact
// collision directory and scans only the partitions that hold a
// colliding value (modifyNUCLocked) — none at all when the new values
// are fresh; the join survives as the test oracle (insertViaJoin,
// modifyViaJoin). An auto-checkpoint inside a partition-scoped update
// propagates only that partition's delta; other partitions' deltas
// (pending from AutoCheckpoint-off phases) are left for their own
// updates or an explicit Checkpoint.
//
// Every path that changes a NUC column's values also maintains that
// column's collision directory (core.NUCState): inserts raise the
// partition's counts (and seal newly duplicated values), deletes lower
// them, NUC-column modifies do both. Partition p's counts change only
// while p is owned, like its index slot.

// DeleteRowIDs removes the tuples at the given strictly ascending
// partition-local rowIDs and maintains all PatchIndexes by dropping
// their tracking information (Section 5.3) — bulk delete for the bitmap
// design, decrement compaction for the identifier design. Delete
// handling is partition-local for every index kind, so only the target
// partition's lock is taken: deletes against disjoint partitions run in
// parallel.
func (db *Database) DeleteRowIDs(table string, partition int, rowIDs []uint64) error {
	t, err := db.LookupTable(table)
	if err != nil {
		return err
	}
	if partition < 0 || partition >= t.NumPartitions() {
		return fmt.Errorf("engine: table %q has no partition %d", table, partition)
	}
	t.lockPartition(partition)
	defer t.unlockPartition(partition)
	//pilint:ignore lockblock bitmap.BulkDelete's work channel is buffered and prefilled and its workers are CPU-bound shard shifts; delete maintenance owns the partition by design
	return t.deleteRowIDsLocked(db, partition, rowIDs)
}

// deleteRowIDsLocked applies one partition's delete. The caller holds
// the partition (partition lock or exclusive structure lock).
func (t *Table) deleteRowIDsLocked(db *Database, partition int, rowIDs []uint64) error {
	if len(rowIDs) == 0 {
		return nil
	}
	for i := 1; i < len(rowIDs); i++ {
		if rowIDs[i] <= rowIDs[i-1] {
			return fmt.Errorf("engine: delete rowIDs must be strictly ascending")
		}
	}
	// Bounds-check before ANY mutation: the collision-state decrements
	// below must not run for a batch that is about to be rejected — a
	// decremented count with the row still live would later classify a
	// re-insert of its value as fresh and miss the violation. Ascending
	// order makes checking the last rowID sufficient.
	if n := t.viewLocked(partition).NumRows(); int(rowIDs[len(rowIDs)-1]) >= n {
		return fmt.Errorf("engine: delete rowID %d out of range [0,%d) in partition %d",
			rowIDs[len(rowIDs)-1], n, partition)
	}
	// Write-ahead: the record lands after validation, before any
	// mutation, under the lock that owns this partition's segment.
	if t.wal != nil {
		if err := t.logWAL(t.wal.segs[partition], walOpDelete, encodeDelete(partition, rowIDs)); err != nil {
			return err
		}
	}
	// Fold the deleted occurrences out of the collision directory before
	// the delta forgets their values. A sealed duplicated value stays
	// sealed even when deletes erode it back to uniqueness (or to zero
	// occurrences): surviving occurrences keep their patch marks, and
	// every insert and modify force-patches a FRESH occurrence of a
	// sealed value, so "every live occurrence of a sealed value is a
	// patch" keeps holding — the invariant the lookups' sealed shortcut
	// relies on.
	for _, c := range t.nuc {
		c.remove(t.viewLocked(partition), partition, rowIDs)
	}
	logical := make([]int, len(rowIDs))
	for i, r := range rowIDs {
		logical[i] = int(r)
	}
	t.mutableDeltaLocked(partition).DeleteRows(logical)
	for column := range t.indexes {
		t.mutableIndexesLocked(column)[partition].HandleDelete(rowIDs)
	}
	if db.AutoCheckpoint {
		t.checkpointPartitionLocked(partition)
	}
	return nil
}

// DeleteWhereInt64 deletes all tuples whose value in column satisfies
// pred, across all partitions, and returns the number of deleted tuples.
// The scan-and-delete must observe and mutate one consistent table
// state, so it holds every partition lock for its duration. An unknown
// or non-BIGINT column is an error, reported before any lock is taken.
func (db *Database) DeleteWhereInt64(table, column string, pred func(int64) bool) (int, error) {
	t, err := db.LookupTable(table)
	if err != nil {
		return 0, err
	}
	col := t.store.Schema().ColumnIndex(column)
	if col < 0 {
		return 0, fmt.Errorf("engine: table %q has no column %q", table, column)
	}
	if kind := t.store.Schema()[col].Kind; kind != storage.KindInt64 {
		return 0, fmt.Errorf("engine: DeleteWhereInt64 on %s.%s: column is %v, not BIGINT", table, column, kind)
	}
	t.lockAllPartitions()
	defer t.unlockAllPartitions()
	var total int
	for p := 0; p < t.store.NumPartitions(); p++ {
		vals := t.viewLocked(p).MaterializeInt64(col)
		var rowIDs []uint64
		for i, v := range vals {
			if pred(v) {
				rowIDs = append(rowIDs, uint64(i))
			}
		}
		if len(rowIDs) == 0 {
			continue
		}
		total += len(rowIDs)
		//pilint:ignore lockblock bitmap.BulkDelete's work channel is buffered and prefilled and its workers are CPU-bound shard shifts; delete maintenance owns the partition by design
		if err := t.deleteRowIDsLocked(db, p, rowIDs); err != nil {
			return total, err
		}
	}
	return total, nil
}

// Modify overwrites column values at the given ascending partition-local
// rowIDs and maintains all PatchIndexes (Section 5.2):
//
//   - NSC on the modified column: all modified tuples become patches.
//   - NUC on the modified column: the new values are classified exactly
//     from the collision directory (modifyNUCLocked) — the
//     paper's modify handling query, the collision join of Fig. 5 over
//     the new values, is not run; the bitmap is not reallocated either
//     (the cardinality is unchanged).
//   - Indexes on other columns are untouched (their values didn't
//     change).
//
// A rowID beyond the partition, an unknown column or a value of another
// kind than the column's is an error, reported before anything is logged
// or changed.
func (db *Database) Modify(table string, partition int, rowIDs []uint64, column string, values []storage.Value) error {
	t, err := db.LookupTable(table)
	if err != nil {
		return err
	}
	if len(rowIDs) != len(values) {
		return fmt.Errorf("engine: Modify rowIDs/values length mismatch")
	}
	// Enforce the strictly-ascending (hence distinct) contract like
	// DeleteRowIDs does: a duplicated rowID would fold the same physical
	// row into the NUC collision counts twice — phantom counts that
	// wrongly seal its new value and permanently diverge from the table.
	for i := 1; i < len(rowIDs); i++ {
		if rowIDs[i] <= rowIDs[i-1] {
			return fmt.Errorf("engine: modify rowIDs must be strictly ascending")
		}
	}
	if partition < 0 || partition >= t.NumPartitions() {
		return fmt.Errorf("engine: table %q has no partition %d", table, partition)
	}
	col := t.store.Schema().ColumnIndex(column)
	if col < 0 {
		return fmt.Errorf("engine: table %q has no column %q", table, column)
	}
	for _, v := range values {
		if want := t.store.Schema()[col].Kind; v.Kind != want {
			return fmt.Errorf("engine: modify of %s.%s: value of kind %v, column is %v", table, column, v.Kind, want)
		}
	}

	if scoped, err := t.modifyPartitionScoped(db, partition, rowIDs, column, values); scoped {
		return err
	}

	// NUC maintenance reads the count maps of every partition and patches
	// whichever of them hold a colliding value: exclusive structure lock.
	// modifyLocked re-reads the index map under it, so a DropPatchIndex
	// racing the dispatch gap simply downgrades this to the (correct,
	// coarser-locked) NSC path.
	t.mu.Lock()
	defer t.mu.Unlock()
	//pilint:ignore lockblock write-ahead: the WAL append inside must be ordered by the same lock that orders the mutation it logs (Durability, package docs)
	return t.modifyLocked(db, partition, rowIDs, column, values)
}

// modifyPartitionScoped runs the partition-scoped fast path: when the
// modified column carries no NUC index, all maintenance is local to the
// target partition (NSC modify handling, the delta, the checkpoint), so
// only that partition's lock is needed and modifies of disjoint
// partitions run in parallel. The dispatch check stays valid for the
// duration: index DDL needs the exclusive structure lock, which the
// held read lock excludes. scoped=false means the column is
// NUC-indexed and the caller must take the exclusive path.
func (t *Table) modifyPartitionScoped(db *Database, partition int, rowIDs []uint64, column string, values []storage.Value) (scoped bool, err error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if idx := t.indexes[column]; len(idx) != 0 && idx[0].ConstraintKind() == core.NearlyUnique {
		return false, nil
	}
	t.pmu[partition].Lock()
	defer t.pmu[partition].Unlock()
	//pilint:ignore lockblock write-ahead: the WAL append inside must be ordered by the same lock that orders the mutation it logs (Durability, package docs)
	return true, t.modifyLocked(db, partition, rowIDs, column, values)
}

// modifyLocked applies one partition's modify and its index
// maintenance. The caller holds partition `partition` — via its
// partition lock when the modified column has no NUC index, via the
// exclusive structure lock (NUC maintenance reads and patches foreign
// partitions) otherwise — and has checked column and value kinds.
func (t *Table) modifyLocked(db *Database, partition int, rowIDs []uint64, column string, values []storage.Value) error {
	if len(rowIDs) == 0 {
		return nil
	}
	// Bounds-check before the record is logged: an out-of-range rowID
	// panics in the delta, and once logged it would do so again on every
	// replay — an unrecoverable directory. Ascending order makes checking
	// the last rowID sufficient.
	if n := t.viewLocked(partition).NumRows(); int(rowIDs[len(rowIDs)-1]) >= n {
		return fmt.Errorf("engine: modify rowID %d out of range [0,%d) in partition %d",
			rowIDs[len(rowIDs)-1], n, partition)
	}
	col := t.store.Schema().MustColumnIndex(column)
	idx := t.mutableIndexesLocked(column)
	isNUC := len(idx) > 0 && idx[0].ConstraintKind() == core.NearlyUnique
	// Write-ahead, after validation and before any mutation. The segment
	// mirrors the lock mode the dispatch chose (re-checked here, exactly
	// like the maintenance dispatch below): NUC-column modifies run under
	// the exclusive structure lock and log to the exclusive-op segment,
	// partition-scoped modifies own their partition and log to its
	// segment.
	if t.wal != nil {
		seg := t.wal.segs[partition]
		if isNUC {
			seg = t.wal.excl
		}
		if err := t.logWAL(seg, walOpModify, encodeModify(t.store.Schema(), partition, column, rowIDs, values)); err != nil {
			return err
		}
	}
	if isNUC {
		t.nuc[column].modify(t, partition, rowIDs, values)
	} else {
		t.modifyDeltaLocked(partition, rowIDs, col, values)
		if len(idx) > 0 {
			idx[partition].HandleModifyNSC(rowIDs)
		}
	}
	if db.AutoCheckpoint {
		t.checkpointPartitionLocked(partition)
	}
	return nil
}

// modifyDeltaLocked overwrites the cells in the partition's delta.
func (t *Table) modifyDeltaLocked(partition int, rowIDs []uint64, col int, values []storage.Value) {
	d := t.mutableDeltaLocked(partition)
	for i, r := range rowIDs {
		d.Modify(int(r), col, values[i])
	}
}

// modifyNUCLocked is NUC modify handling on column c of partition p.
// Where the paper joins the new values against a scan of the whole
// table (Section 5.2, the Fig. 5 query), this resolves them the way
// every insert does, from the collision directory, every partition of
// which the exclusive structure lock the caller holds owns:
//
//  1. fold the outgoing values out of the partition's counts, so a row
//     never collides with the value it is losing (new == old, or two
//     rows of the batch swapping values);
//  2. look every new value up and reserve it (classifyNUC);
//  3. apply the delta;
//  4. patch the modified rows that collide and, for each partition with
//     a directory hit, the occurrences a partition-local value scan
//     finds there (valuescan.go) — no hit, the common case of fresh
//     values, means no table access at all — then seal the values the
//     modify duplicated.
//
// Nothing here can fail, so a logged modify always applies whole.
func modifyNUCLocked[T int64 | string](t *Table, c *nucColumn, st *core.NUCState[T], p int, rowIDs []uint64, values []storage.Value) {
	st.Remove(p, rowValues[T](t.viewLocked(p), c.col, rowIDs))
	news := cells[T](len(values), func(i int) storage.Value { return values[i] })
	inBatch := make(map[T]int, len(news))
	for _, v := range news {
		inBatch[v]++
	}
	ch, _ := classifyNUC(st, p, news, inBatch, t.allPartitions())
	t.modifyDeltaLocked(p, rowIDs, c.col, values)
	ch.commit(t, c, st, p, func(i int) uint64 { return rowIDs[i] })
}
