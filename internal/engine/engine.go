// Package engine ties the substrates together into a small analytical
// database: partitioned columnar tables with positional-delta updates,
// PatchIndex DDL, update queries that drive the index maintenance of
// Section 5, and the snapshots queries read. The engine runs no queries
// itself: internal/query (query.Run, query.CompileSnapshot) captures a
// DatabaseSnapshot here and lowers logical plans — the PatchIndex
// rewrites under the cost model included — onto its frozen views and
// indexes. ScanPartition is the one operator the engine hands out
// directly, for partition-scoped captures.
//
// # Snapshots
//
// Reads are isolated from updates by immutable snapshots. A
// TableSnapshot captures one table's state with all of the table's
// partition locks briefly held; a DatabaseSnapshot (Database.Snapshot)
// captures several tables in one atomic multi-table capture by
// acquiring the per-table partition locks in deterministic name order,
// so a join never observes table A before an update query and table B
// after it. Capturing copies no data:
// partition views are frozen (storage.Partition.Freeze), positional
// deltas are sealed, and every PatchIndex is frozen via core.Index.Freeze.
//
// # Shard-granularity copy-on-write
//
// A frozen PatchIndex shares its patch bitmap with the live index at
// shard granularity (bitmap.Sharded.Freeze): each shard carries a shared
// flag, and the first update that writes a shared shard copies just that
// shard. Holding a snapshot therefore costs an update stream O(shards
// touched), not O(bitmap size) — the invariant BenchmarkUpdateUnderSnapshot
// locks down. The sharing is safe without further locking because shared
// shard words and start values are never written in place (writers copy
// first), and all live-side bookkeeping happens under the table's
// write locks.
//
// # Generation refcounts for base storage
//
// Base partitions enjoy the same bound through the snapshot registry in
// internal/storage: every partition slot carries a generation number
// (bumped when a checkpoint publishes a replacement partition), and each
// snapshot — explicit or query-internal — refcounts exactly the
// generations it captured, releasing them on Close (query-internal
// snapshots close themselves when their root operator is drained or
// closed). A delete/modify checkpoint clones a partition only while a
// live snapshot references its current generation; once the snapshots
// close, checkpoints go back to mutating in place. Physical rewrites —
// whole-table and partition-granular reorders (Table.ReorderStorage,
// Table.ReorderPartition) and bulk loads (Table.Load) — never mutate a
// partition in place: they build the new partition aside, log it, and
// publish it as a new generation (reorg.go), so a snapshot holding the
// old generation keeps reading the old object and no rewrite refuses
// or waits. Publication re-anchors the metadata: pending deltas are
// checkpointed FIRST (their positions refer to the old rows), the new
// partition starts without minmax summaries, and every index slot is
// recomputed from the new physical order — in place via
// core.Index.AdoptState, never by swapping the slot pointer, because
// readers in other lock domains consult a representative slot's
// immutable constraint kind without holding that slot's partition lock.
//
// # Per-partition write locking
//
// A table is guarded by a structure lock (an RWMutex) plus one mutex
// per partition slot. Writers pick one of three modes:
//
//   - structure write lock alone: table-wide operations that mutate
//     shared table state — DDL (CreatePatchIndex, Load)
//     — and the two updates that stay all-or-nothing: Insert and
//     NUC-column Modify. Both look the changed values up in the exact
//     collision directory, where every partition is theirs, and patch
//     the partitions that really collide.
//   - structure read lock + one partition lock: partition-scoped
//     updates — DeleteRowIDs, Modify of columns without a NUC index,
//     and each partition chunk of a batched insert (InsertRows,
//     InsertRowsPartition) — including their per-partition checkpoint.
//     Updates to disjoint partitions run concurrently. A chunk whose NUC
//     value lives in another partition q widens to its partition locks
//     plus q's, released and re-taken in ascending order.
//   - structure read lock + ALL partition locks in index order:
//     multi-partition reads that must observe one consistent table
//     state — snapshot capture, Checkpoint, NumRows, PatchIndexes.
//     Taking the partition locks in index order (the same way
//     DatabaseSnapshot takes table locks in name order) keeps
//     all-partition holders deadlock-free against each other.
//
// The global lock order is: database map lock → table structure lock →
// partition locks in ascending index order → a NUC column's collision
// directory mutex → the storage registry mutex. Holding the structure
// write lock implies exclusive access to every partition (it excludes
// all read-lock holders), so write-locked paths never touch the
// partition mutexes.
//
// # Partition-parallel inserts and the NUC collision directory
//
// Insert handling of a NUC-indexed column is the one update whose
// maintenance is inherently global — uniqueness has per-partition
// exceptions but table-wide meaning, so the paper's Fig. 5 collision
// join probes every partition. No production path runs that join (it
// is the test oracle insertViaJoin). Each NUC column instead carries an
// exact collision directory (core.NUCState): value → live count per
// partition under one mutex (rank 35), plus an immutable sealed set of
// known-duplicated values read lock-free. Partition q's counts change
// only under q's lock, so a writer that holds q and finds a value
// counted there sees committed rows. An InsertRows chunk bound for p
// looks its values up holding p; a value counted in a partition q it
// does not hold makes it release, re-lock p and q in ascending order and
// look again, and once every hit is held the same critical section
// reserves the chunk's values, so of two chunks racing one value into
// different partitions the second sees the first. Insert holds the
// exclusive structure lock, so its lookups never miss. A concurrent
// snapshot observes a prefix of a multi-partition batch's chunks (each
// chunk atomically); Insert and single-partition batches remain
// all-or-nothing. See insert.go for the full protocol.
//
// # The maintenance daemon
//
// Database.StartMaintainer installs the self-managing maintenance
// daemon (maintainer.go): a single background goroutine that samples
// per-partition index health (PartitionIndexStats,
// PartitionSortedness) and repairs decayed slots — re-sorting via a
// registered sort-key reorderer, recomputing or condensing index
// slots. Its lock discipline is deliberately boring: the daemon is an
// ordinary engine client. It calls only exported entry points, holds
// no lock of its own across any engine call (its registry mutex is
// leaf-level and never held across repairs), and never holds anything
// while sleeping. No repair waits for a snapshot — a reorder publishes
// a new partition generation — so each runs once per sweep, and a
// failed one is counted and left to the next sweep; the daemon never
// blocks writers or queries, and nothing ever waits for the daemon.
// Shutdown contract: Database.Close (or Maintainer.Stop, both
// idempotent) signals the goroutine and joins it; after Close returns,
// no daemon-initiated repair is running or will start, so quiescent
// checks can read table state without further synchronization.
//
// # Statistics feeding the optimizer
//
// The same per-partition health numbers the daemon repairs from also
// drive the query layer's access-path choices (internal/query over the
// internal/plan cost model): a captured TableSnapshot exposes row and
// patch counts per partition (its Inputs carry them to plan
// construction), PartitionIndexStats surfaces the identical live
// counters outside a snapshot, and storage block minmax summaries
// enable scan pruning under pushed-down predicates. A summary outlives
// the snapshot: capture hands the partition's summaries to the frozen
// view, a view that builds or extends one publishes it back, appends
// keep it (the next read extends it), only deletes and modifies drop
// it, and a rewrite's new partition starts without one, so a query pays
// for the blocks it reads, not for the partition. Keeping exception
// rates low is therefore not just an index-quality concern — it is what
// keeps the optimizer choosing the cheap patch plans.
//
// # Durability
//
// The paper's recovery story (Section 3.4) persists PatchIndexes "as a
// checkpoint in combination with logging of subsequent update
// operations"; EnableWAL turns that logging on (durability.go plus
// internal/wal). What is logged: every update entry point — Insert,
// each partition chunk of InsertRows/InsertRowsPartition, DeleteRowIDs,
// Modify, and the partition rewrites of ReorderPartition /
// ReorderStorage / Load — appends one logical record to a write-ahead
// segment BEFORE mutating anything, under the same lock that orders the
// mutation; a rewrite logs the image of the partition it built aside,
// then publishes it. Each table owns one segment per partition
// (appended to by holders of that partition's lock) plus one
// table-level segment for exclusive-lock operations, so the WAL
// introduces no cross-partition ordering; the segment mutexes rank 60,
// above every engine lock, because they only order appends against
// checkpoint truncation. LSNs
// come from a per-table counter read inside the critical section, so
// replaying the union of a table's segments in LSN order reproduces a
// legal serialization of the original updates.
//
// Fsync: with wal.SyncNone (the default) appends are plain writes —
// every update that returned survives a process kill (kill -9
// included), which is the failure model this engine targets; power-loss
// durability needs wal.SyncEach, which fsyncs each append.
// CheckpointToDisk always fsyncs its files before the atomic renames.
//
// What a replayed prefix guarantees: records carry a CRC32, and
// recovery stops a segment's replay at the first torn or corrupt
// record. Because records are written before their operation publishes,
// a lost suffix corresponds to operations that never returned to their
// caller, and because one InsertRows chunk maps to one record, the
// recovered database is exactly a legal chunk-prefix state of the
// original history — the same states a concurrent snapshot could have
// observed live. DDL is not logged: CreateTable/CreatePatchIndex become
// durable at the next CheckpointToDisk (the maintainer can run one
// periodically; see MaintainerConfig.CheckpointEvery).
//
// Checkpoints and recovery: a checkpoint stores each partition column
// after column, then every PatchIndex. Recover decodes each column block
// straight into a typed column, once the remaining bytes are known to
// hold the declared rows, and hands the columns to
// storage.NewPartitionFromColumns, which takes ownership: no cell is
// boxed into a storage.Value. Rewrite images keep their row-major WAL
// layout and are encoded from and replayed into typed columns the same
// way. Checkpoint truncation leaves alone a segment it would not change.
//
// Cost: one logical record per chunk, encoded into a pooled buffer and
// written with a single write syscall under the already-held lock.
// BenchmarkInsertWALOverhead and `pibench -exp recover` both measure
// the insert path with logging on and off; on the reference box the
// overhead is ~8-15% of insert wall time with wal.SyncNone, against
// the <= 25% budget this subsystem was accepted under.
//
// # Mechanically enforced invariants
//
// The invariants above are checked by cmd/pilint (`go run ./cmd/pilint
// ./...`), so violations fail CI instead of waiting for a race or
// deadlock to reproduce. Four analyzers report seven kinds: lockorder
// the first three below, handles the next two, atomicmix and
// deferunlock their own. The lock checks are interprocedural: every
// package's per-function lock behavior is summarized into facts
// (internal/analysis/locksum) computed bottom-up over the dependency
// graph, so a lock acquired three calls deep in another package counts
// exactly like a direct acquisition at the call site.
//
//   - lockorder: the global lock order. Every mutex participating in it
//     carries a `// lock-rank: N` marker on its declaration — the
//     database map lock (rank 10), the table structure lock (20), the
//     partition locks (30, a slice rank that additionally enforces
//     ascending index order), a NUC column's collision directory mutex
//     (35), and the storage registry mutex (40, with the partition
//     minmax lock at 50, which orders summary-cache writes only; capture
//     reads the cache with atomic loads, no lock, and a frozen view never
//     holds its own lock while publishing to its source's). Acquiring a
//     lower rank while holding a higher one, or partition locks out of
//     index order, is reported — through arbitrary call chains
//     (lockPartition, lockAllPartitions, engine→storage→bitmap, ...),
//     with the chain's defining function and position named in the
//     message.
//   - lockblock: no rank-marked lock is held across a potentially
//     blocking operation — channel send/receive, select without a
//     default, time.Sleep, WaitGroup/Cond waits, or os/net/io calls
//     that reach the kernel — directly or through a callee's summary.
//   - rankdecl: every sync.Mutex/RWMutex declaration carries either a
//     numeric `// lock-rank: N` marker or an explicit
//     `// lock-rank: none <reason>` opting out; an unmarked mutex is
//     invisible to the order checks and therefore a defect.
//   - snapclose: every snapshot or query-internal capture
//     (Snapshot, SnapshotTable, ScanPartition, query.Run, Retain, ...)
//     must reach Close/Release on all paths, so generation refs cannot
//     be wedged open.
//   - closeowner: once a handle's release is handed to a new owner
//     (exec.OnClose(op, s.Close), Queries' internal snapshots), the
//     original holder must neither close it again nor keep using it.
//   - atomicmix: state accessed via sync/atomic (the NUC sealed-set
//     pointer, the insert counters) is never also accessed with a plain
//     read or write.
//   - deferunlock: lock regions with return paths or panic-capable
//     calls inside use defer for the release.
//
// On top of the per-package analyzers, the whole-program lockgraph
// check rebuilds the "acquired B while holding A" graph from the same
// facts and reports any cycle — ranked or not — as a potential
// deadlock. `go run ./cmd/pilint -lockgraph ./...` renders the graph
// as DOT; the committed picture lives at docs/lockgraph.dot and CI
// asserts it stays acyclic and keeps its nodes and edges.
//
// Deliberate exceptions carry a `//pilint:ignore <kind> <reason>`
// comment; the reason is mandatory, a typoed ignore is itself a
// diagnostic, and an ignore that no longer suppresses anything is
// reported as stale. Update the marker comments and re-run pilint in
// the same PR as any locking change.
package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"patchindex/internal/core"
	"patchindex/internal/pdt"
	"patchindex/internal/storage"
	"patchindex/internal/wal"
)

// Database is a named collection of tables. All DDL/DML entry points
// are safe for concurrent use. Updates lock at partition granularity:
// partition-scoped updates (DeleteRowIDs, Modify of a column without a
// NUC index, and each partition chunk of an InsertRows /
// InsertRowsPartition batch) take only their target partition's lock,
// so updates to disjoint partitions of the same table run in parallel —
// including inserts into NUC-indexed tables, whose collision handling
// looks values up in an exact directory instead of joining globally and
// also locks just the partitions that hold a colliding value.
// Table-wide updates (Insert and Modify of a NUC-indexed column) and
// DDL serialize on the table's structure lock.
//
// Queries are snapshot-isolated from updates (the MVCC-lite analogue of
// the host system's snapshot isolation the paper assumes, Section 5.4):
// query.Run captures an immutable TableSnapshot per table with all
// partition locks briefly held — frozen partition views, the sealed
// positional delta, and the per-partition PatchIndexes — then releases
// the locks and executes the whole vectorized plan against the
// snapshot. Updates racing the query mutate fresh copy-on-write
// generations of whatever the snapshot references (delta, patch
// bitmaps, and — for delete/modify checkpoints — base partitions), so
// every query observes exactly the table state at capture time: either
// entirely before or entirely after any concurrent update query, with
// one documented refinement — a multi-partition InsertRows batch
// commits per-partition chunks in ascending order, and a snapshot may
// capture a prefix of them (each chunk atomically; see insert.go). Only
// the evaluation comparators (SortKey's physical reorder) bypass the
// engine and still need external synchronization.
type Database struct {
	// tablesMu guards the tables map; it is the first lock in the
	// documented order and is never held across table-level work.
	tablesMu sync.RWMutex // lock-rank: 10
	tables   map[string]*Table

	// maint is the database's maintenance daemon, installed once by
	// StartMaintainer and stopped by Close (see maintainer.go).
	maint atomic.Pointer[Maintainer]

	// walDir and walSync carry the durability configuration installed by
	// EnableWAL (or Recover): the directory checkpoints and WAL segments
	// live under ("" = logging disabled) and the segment sync policy for
	// tables created later. Guarded by tablesMu like the map they
	// parallel.
	walDir  string
	walSync wal.SyncPolicy

	// cpMu serializes CheckpointToDisk calls (manual, maintainer-driven,
	// and EnableWAL's baseline) so two checkpoints cannot interleave
	// their file renames and segment truncations. It is held across file
	// I/O on purpose and ordered before every engine lock, hence
	// unranked.
	cpMu sync.Mutex // lock-rank: none — serializes whole checkpoints, held across file writes, taken before any engine lock

	// AutoCheckpoint propagates positional deltas into base storage at
	// the end of every update query (default true). Disabling it keeps
	// updates purely in-memory, as the PDT-based system does between
	// checkpoints. With live snapshots, an insert-only checkpoint
	// appends in place (frozen views cap their own column headers);
	// delete/modify checkpoints publish a cloned partition generation
	// atomically instead of compacting shared arrays.
	AutoCheckpoint bool
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{tables: make(map[string]*Table), AutoCheckpoint: true}
}

// Table is a partitioned table plus its pending deltas and PatchIndexes.
//
// Locking: mu is the structure lock; pmu holds one mutex per partition
// slot. Writers hold either mu exclusively (table-wide operations) or
// mu shared plus pmu[p] (partition-scoped operations on partition p);
// multi-partition captures hold mu shared plus every pmu in index
// order. Per-partition state (delta[p], deltaShared[p], the store's
// partition p, and each column's index[p]) is owned by whoever holds
// partition p under this protocol; the indexes map itself changes only
// under the exclusive structure lock. See the package comment for the
// full lock order.
//
// Snapshot generation tracking: capturing a snapshot (Table.Snapshot,
// or Database.Snapshot as query.Run does) retains one refcount on every
// partition's current generation in the store's snapshot registry
// (storage.Table.Retain) and hands out Freeze copies of the
// PatchIndexes; closing the snapshot releases the refcounts exactly
// once. A delete/modify checkpoint consults the registry and clones a
// partition only while a live snapshot references its current
// generation; the clone is published as a new generation, which starts
// unreferenced, so the next checkpoint mutates in place again — base
// storage pays O(partitions touched by live snapshots), never a sticky
// per-partition clone tax. deltaShared seals the positional deltas with
// a per-partition flag — a sealed delta generation is copied before the
// next mutation. Frozen PatchIndexes need no generation swap at all:
// their shard-granular copy-on-write lets update handling mutate the
// live index directly, copying only the shards it touches. Appends are
// exempt everywhere: frozen partition views carry their own
// length-capped column headers, so an insert-only checkpoint may append
// to the live arrays in place
// without disturbing any snapshot.
type Table struct {
	mu    sync.RWMutex // lock-rank: 20 (table structure lock)
	pmu   []sync.Mutex // lock-rank: 30 — one per partition slot; acquire in index order
	name  string
	store *storage.Table
	delta []*pdt.Delta

	// deltaShared[p]: delta[p] is sealed into a live snapshot; the next
	// mutation copies it first.
	deltaShared []bool

	// indexes[column] holds one PatchIndex per partition.
	indexes map[string][]*core.Index

	// nuc[column] is the collision directory of a NUC-indexed column
	// (nucColumn over core.NUCState), created and dropped together with
	// the index. Partition p's counts change only while p is owned, like
	// index slot p; lookups across partitions take the directory's own
	// mutex (insert.go). The map itself changes only under the exclusive
	// structure lock.
	nuc map[string]*nucColumn

	// fastInserts / fallbackInserts count InsertRows batches whose
	// chunks each ran under their own partition lock vs that widened
	// some chunk's lock set to a partition holding a colliding value
	// (see InsertStats).
	fastInserts     atomic.Uint64
	fallbackInserts atomic.Uint64

	// collisionJoins counts executions of the global collision handling
	// (the paper's Fig. 5 join and its string-column equivalent). No
	// production path runs it — inserts and NUC-column modifies patch
	// colliding partitions from the collision directory — so only the test
	// oracles (insertViaJoin, modifyViaJoin) ever raise it; the field
	// stays for the benchmark probe reading CollisionJoins.
	collisionJoins atomic.Uint64

	// wal is the table's write-ahead state when logging is enabled
	// (durability.go), nil otherwise. The pointer is installed under the
	// exclusive structure lock and read under mu (shared or exclusive);
	// segs[p] is appended to only by holders of partition p, excl only
	// under the exclusive structure lock.
	wal *tableWAL
}

// CreateTable creates a table with the given schema and partition count.
func (db *Database) CreateTable(name string, schema storage.Schema, partitions int) (*Table, error) {
	db.tablesMu.Lock()
	defer db.tablesMu.Unlock()
	if _, ok := db.tables[name]; ok {
		return nil, fmt.Errorf("engine: table %q already exists", name)
	}
	st := storage.NewTable(name, schema, partitions)
	partitions = st.NumPartitions() // NewTable clamps to >= 1
	t := &Table{
		name:        name,
		pmu:         make([]sync.Mutex, partitions),
		store:       st,
		indexes:     make(map[string][]*core.Index),
		nuc:         make(map[string]*nucColumn),
		deltaShared: make([]bool, partitions),
	}
	t.delta = make([]*pdt.Delta, partitions)
	for p := range t.delta {
		t.delta[p] = pdt.NewDelta(schema, 0)
	}
	if db.walDir != "" {
		// One-time DDL file setup: the table is not yet published, so the
		// segments attach before any update can race them. The table is
		// durable once the next CheckpointToDisk records it in the
		// manifest (see EnableWAL's doc).
		//pilint:ignore lockblock opening this table's WAL segment files is one-time DDL setup under the map lock, before the table is published
		w, err := openTableWAL(db.walDir, name, partitions, db.walSync, 0)
		if err != nil {
			return nil, err
		}
		t.wal = w
	}
	db.tables[name] = t
	return t, nil
}

// Table returns the named table, or nil.
func (db *Database) Table(name string) *Table {
	db.tablesMu.RLock()
	defer db.tablesMu.RUnlock()
	return db.tables[name]
}

// LookupTable returns the named table, or an error when it does not
// exist — the error-returning convention the snapshot API established
// (SnapshotTable). The DML entry points resolve names through it, so an
// update against an unknown table reports an error instead of
// panicking.
func (db *Database) LookupTable(name string) (*Table, error) {
	t := db.Table(name)
	if t == nil {
		return nil, fmt.Errorf("engine: unknown table %q", name)
	}
	return t, nil
}

// MustTable returns the named table or panics — a thin wrapper over
// LookupTable for tests and experiment drivers that own their schema.
func (db *Database) MustTable(name string) *Table {
	t, err := db.LookupTable(name)
	if err != nil {
		panic(err)
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() storage.Schema { return t.store.Schema() }

// Store exposes the underlying storage table (comparators like SortKey
// and JoinIndex operate on it directly).
func (t *Table) Store() *storage.Table { return t.store }

// NumPartitions returns the partition count.
func (t *Table) NumPartitions() int { return t.store.NumPartitions() }

// lockPartition acquires the partition-scoped write mode for partition
// p: the structure lock shared plus p's partition lock. The holder owns
// delta[p], deltaShared[p], the store's partition p, and every column
// index's slot p.
func (t *Table) lockPartition(p int) {
	t.mu.RLock()
	t.pmu[p].Lock()
}

func (t *Table) unlockPartition(p int) {
	t.pmu[p].Unlock()
	t.mu.RUnlock()
}

// lockAllPartitions acquires the multi-partition capture mode: the
// structure lock shared plus every partition lock, taken in index order
// so concurrent all-partition holders cannot deadlock. Held briefly —
// snapshot captures and whole-table checkpoints do O(partitions +
// index shards) bookkeeping under it, never bulk data work.
func (t *Table) lockAllPartitions() {
	t.mu.RLock()
	for p := range t.pmu {
		t.pmu[p].Lock()
	}
}

func (t *Table) unlockAllPartitions() {
	for p := len(t.pmu) - 1; p >= 0; p-- {
		t.pmu[p].Unlock()
	}
	t.mu.RUnlock()
}

// NumRows returns the logical row count including pending deltas.
func (t *Table) NumRows() int {
	t.lockAllPartitions()
	defer t.unlockAllPartitions()
	var n int
	for p := range t.delta {
		n += t.viewLocked(p).NumRows()
	}
	return n
}

// viewLocked returns a live read view for use strictly while holding
// partition p (update handling, index discovery). It does not mark
// generations shared, so it must never escape the lock — handed-out
// views go through snapshotViewLocked instead.
func (t *Table) viewLocked(p int) *pdt.View {
	return pdt.NewView(t.store.Partition(p), t.delta[p])
}

// snapshotViewLocked returns a frozen read view of partition p and
// seals the partition's delta generation, forcing copy-on-write on the
// next delta mutation. Base-generation accounting is the caller's job:
// snapshot captures Retain the whole table, ScanPartition retains the
// one partition.
func (t *Table) snapshotViewLocked(p int) *pdt.View {
	t.deltaShared[p] = true
	return pdt.NewView(t.store.Partition(p).Freeze(), t.delta[p])
}

// ReadInt64Column returns a copy of one partition's int64 column
// (including pending deltas) without retaining any generation.
// Read-modify-write drivers (like the TPC-H refresh stream) use it to
// pick rows they are about to update: a snapshot still open at the
// delete would force that checkpoint to clone the whole partition. An
// out-of-range partition panics before any lock is taken.
func (t *Table) ReadInt64Column(partition int, column string) []int64 {
	if partition < 0 || partition >= len(t.pmu) {
		panic(fmt.Sprintf("engine: table %q has no partition %d", t.name, partition))
	}
	t.lockPartition(partition)
	defer t.unlockPartition(partition)
	col := t.store.Schema().MustColumnIndex(column)
	// MaterializeInt64 may alias live base storage when the delta is
	// empty; copy so the result stays valid outside the lock.
	return append([]int64(nil), t.viewLocked(partition).MaterializeInt64(col)...)
}

// mutableDeltaLocked returns delta[p], copying it first when the current
// generation is sealed into a live snapshot.
func (t *Table) mutableDeltaLocked(p int) *pdt.Delta {
	if t.deltaShared[p] {
		t.delta[p] = t.delta[p].Clone()
		t.deltaShared[p] = false
	}
	return t.delta[p]
}

// mutableIndexesLocked returns the per-partition indexes on column for
// mutation. Returns nil when no index exists. No generation swap is
// needed: snapshots hold Freeze copies whose patch storage is shared
// copy-on-write at shard granularity, so update handling mutates the
// live indexes directly and pays only for the shards it touches.
func (t *Table) mutableIndexesLocked(column string) []*core.Index {
	return t.indexes[column]
}

// Load bulk-loads rows into base storage in contiguous partition chunks
// (initial load path, not an update query). Pending inserts, deletes and
// modifies are checkpointed into base storage first, as Checkpoint does
// (cloning partitions live snapshots hold), so no update is lost. Each
// partition's post-load image — its rows plus its chunk — is then built
// aside, logged and published (rewritePartitionLocked), which re-derives
// its index slots; the NUC columns are re-derived at the end. Load stops
// at the first failed append, leaving the later partitions as they
// were, and returns that error (always nil with WAL off).
func (t *Table) Load(rows []storage.Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.checkpointLocked()
	defer t.rederiveNUCLocked()
	for p := 0; p < t.store.NumPartitions(); p++ {
		next := t.store.Partition(p).Extend(t.store.LoadChunk(rows, p))
		//pilint:ignore lockblock the images must be logged under the structure lock that orders the load, before they are published (Durability, package docs)
		if err := t.rewritePartitionLocked(p, next, true); err != nil {
			return err
		}
	}
	return nil
}

// LoadColumnInt64 bulk-loads a single-column table from a slice,
// partitioned contiguously — the microbenchmark loader.
func LoadColumnInt64(t *Table, vals []int64) {
	rows := make([]storage.Row, len(vals))
	for i, v := range vals {
		rows[i] = storage.Row{storage.I64(v)}
	}
	t.Load(rows)
}

// CreatePatchIndex discovers and materializes a PatchIndex on the named
// column, one index per partition (partition-local and parallel, Section
// 3.2). For NearlySorted the column must be BIGINT.
func (t *Table) CreatePatchIndex(column string, constraint core.Constraint, opts core.Options) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	col := t.store.Schema().ColumnIndex(column)
	if col < 0 {
		return fmt.Errorf("engine: unknown column %q", column)
	}
	kind := t.store.Schema()[col].Kind
	if constraint == core.NearlySorted && kind != storage.KindInt64 {
		return fmt.Errorf("engine: NSC requires a BIGINT column, %q is %v", column, kind)
	}
	if kind == storage.KindFloat64 {
		return fmt.Errorf("engine: PatchIndex on DOUBLE column %q is not supported", column)
	}
	nparts := t.store.NumPartitions()
	indexes := make([]*core.Index, nparts)
	if constraint == core.NearlyUnique {
		// Uniqueness relies on a global view of the table (Section 5.1):
		// duplicates across partitions are patches too. Discovery counts
		// values per partition into the column's collision directory,
		// which seals every value counted more than once overall, and
		// each partition's patch set is then read off the directory.
		c := t.newNUCColumnLocked(column)
		for p := range indexes {
			rows, patches := c.patches(t.viewLocked(p), p)
			indexes[p] = core.New(core.NearlyUnique, uint64(rows), patches, opts)
		}
		t.nuc[column] = c
		t.indexes[column] = indexes
		return nil
	}
	// NSC discovery is partition-local and parallel (Section 3.2): the
	// sort plan merges per-partition sorted streams, so partition-local
	// sortedness is exactly the maintained invariant.
	var wg sync.WaitGroup
	for p := 0; p < nparts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			indexes[p] = core.BuildNSC(t.viewLocked(p).MaterializeInt64(col), opts)
		}(p)
	}
	//pilint:ignore lockblock NSC build workers are CPU-bound partition scans; index creation holds the structure lock exclusively by design
	wg.Wait()
	t.indexes[column] = indexes
	return nil
}

// RestorePatchIndexes installs per-partition indexes restored from
// checkpoints (Section 3.4: after a restart, PatchIndexes are either
// recreated or read back from a persisted checkpoint). The slice must
// hold one index per partition.
func (t *Table) RestorePatchIndexes(column string, indexes []*core.Index) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(indexes) != t.store.NumPartitions() {
		panic(fmt.Sprintf("engine: RestorePatchIndexes got %d indexes for %d partitions",
			len(indexes), t.store.NumPartitions()))
	}
	t.indexes[column] = indexes
	// A restored NUC index needs its collision directory recomputed from the
	// restored data (checkpoints persist only the patch sets).
	if indexes[0] != nil && indexes[0].ConstraintKind() == core.NearlyUnique {
		t.rebuildNUCStateLocked(column)
	} else {
		delete(t.nuc, column)
	}
}

// rebuildNUCStateLocked recomputes column's collision directory from
// the current table contents. The caller holds the table exclusively.
func (t *Table) rebuildNUCStateLocked(column string) {
	t.nuc[column] = t.newNUCColumnLocked(column)
}

// PatchIndexes returns frozen copies of the per-partition indexes on
// column, or nil. Like every other read surface, the caller may keep
// reading them while updates proceed on the live indexes: the frozen
// copies share patch storage copy-on-write at shard granularity.
func (t *Table) PatchIndexes(column string) []*core.Index {
	t.lockAllPartitions()
	defer t.unlockAllPartitions()
	return freezeIndexes(t.indexes[column])
}

// ExceptionRate returns the aggregate exception rate of the PatchIndexes
// on column.
func (t *Table) ExceptionRate(column string) float64 {
	t.lockAllPartitions()
	defer t.unlockAllPartitions()
	idx := t.indexes[column]
	if idx == nil {
		return 0
	}
	var rows, patches uint64
	for _, x := range idx {
		rows += x.Rows()
		patches += x.NumPatches()
	}
	if rows == 0 {
		return 0
	}
	return float64(patches) / float64(rows)
}

// IndexMemoryBytes sums the memory of the PatchIndexes on column.
func (t *Table) IndexMemoryBytes(column string) uint64 {
	t.lockAllPartitions()
	defer t.unlockAllPartitions()
	var n uint64
	for _, x := range t.indexes[column] {
		n += x.MemoryBytes()
	}
	return n
}

// Checkpoint propagates all pending deltas into base storage.
func (t *Table) Checkpoint() {
	t.lockAllPartitions()
	defer t.unlockAllPartitions()
	t.checkpointLocked()
}

// checkpointLocked propagates every partition's pending delta into base
// storage. The caller holds the table exclusively (structure write
// lock, or all partition locks).
func (t *Table) checkpointLocked() {
	for p := range t.delta {
		t.checkpointPartitionLocked(p)
	}
}

// checkpointPartitionLocked propagates partition p's pending delta into
// base storage, honoring live snapshots. The caller holds partition p
// (see Table's locking comment):
//
//   - An insert-only delta appends to the live partition in place.
//     Frozen snapshot views cap their own column headers, so appends
//     beyond the frozen length are invisible to them.
//   - A delta with deletes or modifies would compact or overwrite shared
//     arrays; when the snapshot registry reports the partition's current
//     generation referenced by a live snapshot, the checkpoint
//     instead applies the delta to a clone and publishes it
//     atomically as the new partition generation (which starts
//     unreferenced — once the snapshots close, later checkpoints mutate
//     in place again).
//   - A delta sealed into a snapshot is not reset but replaced, leaving
//     the sealed generation frozen.
func (t *Table) checkpointPartitionLocked(p int) {
	d := t.delta[p]
	if d.Empty() {
		return
	}
	if t.store.PartitionRetained(p) && !d.InsertsOnly() {
		next := t.store.Partition(p).Clone()
		d.ApplyTo(next)
		t.store.SetPartition(p, next)
	} else {
		d.ApplyTo(t.store.Partition(p))
	}
	newRows := t.store.Partition(p).NumRows()
	if t.deltaShared[p] {
		t.delta[p] = pdt.NewDelta(t.store.Schema(), newRows)
		t.deltaShared[p] = false
	} else {
		d.Reset(newRows)
	}
}
