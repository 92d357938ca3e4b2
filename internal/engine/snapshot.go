package engine

import (
	"fmt"
	"sort"

	"patchindex/internal/core"
	"patchindex/internal/exec"
	"patchindex/internal/pdt"
	"patchindex/internal/plan"
	"patchindex/internal/storage"
)

// TableSnapshot is an immutable, point-in-time view of one table: frozen
// per-partition storage views (base columns capped at the captured row
// count, merged with the sealed positional delta) plus Freeze copies of
// the per-partition PatchIndexes, whose patch bitmaps are shared with
// the live indexes copy-on-write at shard granularity.
//
// This is the MVCC-lite layer standing in for the snapshot isolation the
// paper's host system provides (Section 5.4): a query plans and executes
// entirely against the snapshot, without holding any table lock, while
// update queries proceed on copy-on-write structures. A snapshot stays
// valid until it is Closed, and holding one costs the update path a
// copy of each bitmap shard, delta generation, and base-partition
// generation it actually touches — and nothing once it stops touching
// them.
//
// The capture registers one refcount on every partition's current base
// generation in the store's snapshot registry (storage.Table.Retain).
// Close releases the refcounts exactly once (Close is idempotent, and
// query-internal ephemeral snapshots close themselves when their root
// operator is drained or closed). While the ref is live, a
// delete/modify checkpoint of a referenced partition generation clones
// it and publishes the clone as a new generation instead of compacting
// the shared arrays. Physical reorganization (ReorderStorage,
// ReorderPartition) never writes in place, so it owes the ref nothing.
// Close is a promise to stop reading: afterwards the update path owes
// the snapshot nothing — the next checkpoint of each partition may
// compact the shared arrays in place, so the snapshot's views must not
// be read after Close.
type TableSnapshot struct {
	name    string
	schema  storage.Schema
	views   []*pdt.View
	indexes map[string][]*core.Index

	// ref is this snapshot's hold on the store's snapshot registry:
	// one refcount per captured partition generation, released exactly
	// once by Close.
	ref *storage.TableRef
}

// Snapshot captures an immutable view of the table's current state. The
// partition locks are held, all together in index order, only for the
// capture itself — O(partitions + index shards) bookkeeping, no data
// copying — so the capture is atomic with respect to partition-scoped
// updates on every partition at once. Close the snapshot when done:
// until then the update path clones any partition it would mutate in
// place.
func (t *Table) Snapshot() *TableSnapshot {
	t.lockAllPartitions()
	defer t.unlockAllPartitions()
	return t.snapshotLocked()
}

// SnapshotTable captures a snapshot of the named table; it returns an
// error when the table does not exist.
func (db *Database) SnapshotTable(name string) (*TableSnapshot, error) {
	t := db.Table(name)
	if t == nil {
		return nil, fmt.Errorf("engine: unknown table %q", name)
	}
	return t.Snapshot(), nil
}

// freezeIndexes returns Freeze copies of one index generation, or nil.
func freezeIndexes(idx []*core.Index) []*core.Index {
	if idx == nil {
		return nil
	}
	out := make([]*core.Index, len(idx))
	for i, x := range idx {
		out[i] = x.Freeze()
	}
	return out
}

func (t *Table) snapshotLocked() *TableSnapshot {
	nparts := t.store.NumPartitions()
	s := &TableSnapshot{
		name:    t.name,
		schema:  t.store.Schema(),
		views:   make([]*pdt.View, nparts),
		indexes: make(map[string][]*core.Index, len(t.indexes)),
	}
	for p := range s.views {
		s.views[p] = t.snapshotViewLocked(p)
	}
	for column, idx := range t.indexes {
		s.indexes[column] = freezeIndexes(idx)
	}
	s.ref = t.store.Retain()
	return s
}

// Close releases the snapshot's generation refcounts, letting
// subsequent checkpoints of the captured partitions mutate in place
// again. Close is idempotent: the refcounts are released exactly once
// no matter how often it is called. Closing ends the snapshot's read
// validity: a later in-place checkpoint may rewrite the arrays its
// frozen views share, so finish reading before Close.
func (s *TableSnapshot) Close() { s.ref.Release() }

// DatabaseSnapshot is an immutable view of several tables captured at
// one instant: the per-table locks are acquired together (in
// deterministic name order, so concurrent captures cannot deadlock),
// every TableSnapshot is built while all locks are held, and only then
// are the locks released. A multi-table query planned against a
// DatabaseSnapshot therefore observes a state that lies exactly between
// two update queries of every captured table — a join can never see
// table A before an update and table B after it, which per-table
// snapshots captured at their own instants cannot guarantee.
type DatabaseSnapshot struct {
	tables map[string]*TableSnapshot
}

// Snapshot atomically captures the named tables (each name once; order
// irrelevant). It returns an error when a name is unknown.
func (db *Database) Snapshot(names ...string) (*DatabaseSnapshot, error) {
	uniq := append([]string(nil), names...)
	sort.Strings(uniq)
	tabs, err := db.resolveTables(uniq)
	if err != nil {
		return nil, err
	}
	return snapshotTables(tabs), nil
}

// resolveTables maps sorted names (duplicates allowed, skipped) to
// their tables under the map lock, which is released before any table
// lock is taken.
func (db *Database) resolveTables(uniq []string) ([]*Table, error) {
	db.tablesMu.RLock()
	defer db.tablesMu.RUnlock()
	tabs := make([]*Table, 0, len(uniq))
	for i, name := range uniq {
		if i > 0 && uniq[i-1] == name {
			continue
		}
		t := db.tables[name]
		if t == nil {
			return nil, fmt.Errorf("engine: unknown table %q in database snapshot", name)
		}
		tabs = append(tabs, t)
	}
	return tabs, nil
}

// MustSnapshot is Snapshot, panicking on unknown table names.
func (db *Database) MustSnapshot(names ...string) *DatabaseSnapshot {
	s, err := db.Snapshot(names...)
	if err != nil {
		panic(err)
	}
	return s
}

// snapshotTables locks the tables (already sorted by name — the global
// lock order: tables by name, then each table's partition locks in
// index order), captures each snapshot while all locks are held, then
// releases. Holding all locks for the O(partitions + shards) captures is
// what makes the multi-table state atomic.
func snapshotTables(tabs []*Table) *DatabaseSnapshot {
	for _, t := range tabs {
		t.lockAllPartitions()
	}
	snap := &DatabaseSnapshot{tables: make(map[string]*TableSnapshot, len(tabs))}
	for _, t := range tabs {
		snap.tables[t.name] = t.snapshotLocked()
	}
	for i := len(tabs) - 1; i >= 0; i-- {
		tabs[i].unlockAllPartitions()
	}
	return snap
}

// Table returns the snapshot of the named table, or nil when the table
// was not part of the capture.
func (s *DatabaseSnapshot) Table(name string) *TableSnapshot { return s.tables[name] }

// MustTable returns the snapshot of the named table or panics.
func (s *DatabaseSnapshot) MustTable(name string) *TableSnapshot {
	t := s.tables[name]
	if t == nil {
		panic(fmt.Sprintf("engine: table %q not captured in database snapshot", name))
	}
	return t
}

// Close closes every captured table snapshot (see TableSnapshot.Close).
func (s *DatabaseSnapshot) Close() {
	for _, t := range s.tables {
		t.Close()
	}
}

// String summarizes the database snapshot for debugging.
func (s *DatabaseSnapshot) String() string {
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprintf("dbsnapshot%v", names)
}

// Name returns the snapshotted table's name.
func (s *TableSnapshot) Name() string { return s.name }

// Schema returns the snapshotted table's schema.
func (s *TableSnapshot) Schema() storage.Schema { return s.schema }

// NumPartitions returns the partition count.
func (s *TableSnapshot) NumPartitions() int { return len(s.views) }

// NumRows returns the logical row count at capture time.
func (s *TableSnapshot) NumRows() int {
	var n int
	for _, v := range s.views {
		n += v.NumRows()
	}
	return n
}

// View returns the frozen read view of partition p.
func (s *TableSnapshot) View(p int) *pdt.View { return s.views[p] }

// Views returns the frozen read views of all partitions.
func (s *TableSnapshot) Views() []*pdt.View { return s.views }

// PatchIndexes returns the frozen per-partition indexes on column, or
// nil when no PatchIndex existed at capture time.
func (s *TableSnapshot) PatchIndexes(column string) []*core.Index {
	return s.indexes[column]
}

// Inputs pairs each partition's frozen view with its frozen PatchIndex
// on column for the planner.
func (s *TableSnapshot) Inputs(column string) []plan.PartitionInput {
	idx := s.indexes[column]
	out := make([]plan.PartitionInput, len(s.views))
	for p := range out {
		out[p].View = s.views[p]
		if idx != nil {
			out[p].Index = idx[p]
		}
	}
	return out
}

// ScanAll returns an operator scanning the given columns of every
// partition of the snapshot (unioned).
func (s *TableSnapshot) ScanAll(columns ...string) exec.Operator {
	cols := make([]int, len(columns))
	for i, c := range columns {
		cols[i] = s.schema.MustColumnIndex(c)
	}
	parts := make([]exec.Operator, len(s.views))
	for p := range parts {
		parts[p] = exec.NewScan(s.views[p], cols)
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return exec.NewUnion(parts...)
}

// ScanPartition returns an operator scanning the given columns of just
// partition p, against an ephemeral partition-scoped snapshot: only
// partition p's lock is taken for the capture, and only p's current
// generation is retained in the snapshot registry. While the scan
// drains, delete/modify checkpoints of partition p clone-and-swap, but
// sibling partitions owe the scan nothing: their checkpoints mutate in
// place. The ref is released when the
// operator is drained or closed, as query.Run's snapshot is. Unknown
// columns and out-of-range partitions return an error — before the
// capture, so the aborted call retains no generation refs.
func (t *Table) ScanPartition(p int, columns ...string) (exec.Operator, error) {
	cols := make([]int, len(columns))
	for i, c := range columns {
		ci := t.Schema().ColumnIndex(c)
		if ci < 0 {
			return nil, fmt.Errorf("engine: unknown column %q", c)
		}
		cols[i] = ci
	}
	if p < 0 || p >= len(t.pmu) {
		return nil, fmt.Errorf("engine: table %q has no partition %d", t.name, p)
	}
	t.lockPartition(p)
	view := t.snapshotViewLocked(p)
	ref := t.store.RetainPartitions(p)
	t.unlockPartition(p)
	return exec.OnClose(exec.NewScan(view, cols), ref.Release), nil
}

// String summarizes the snapshot for debugging.
func (s *TableSnapshot) String() string {
	return fmt.Sprintf("snapshot(%s, %d partitions, %d rows)", s.name, len(s.views), s.NumRows())
}
