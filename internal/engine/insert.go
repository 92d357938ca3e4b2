package engine

import (
	"fmt"
	"runtime"

	"patchindex/internal/core"
	"patchindex/internal/pdt"
	"patchindex/internal/storage"
)

// Insert paths. Every entry point applies its batch chunk by chunk, one
// chunk per target partition, through the same body (insertChunkLocked),
// and classifies each NUC column's values against that column's exact
// collision directory (core.NUCState). The entry points differ in the
// lock they hold and in what a snapshot may see:
//
//   - Insert: the table-wide update query. It holds the exclusive
//     structure lock for the whole insert, so it owns every partition,
//     logs the batch as one WAL record and becomes visible atomically.
//   - InsertRows / InsertRowsPartition: the partition-parallel path.
//     Each chunk runs under the shared structure lock plus the partition
//     locks it needs (the writer mode DeleteRowIDs uses), so concurrent
//     batches — and concurrent deletes, modifies and snapshot queries —
//     interleave at partition granularity instead of serializing on the
//     table. No InsertRows path takes the exclusive structure lock.
//
// The paper's insert handling (Section 5.1, Fig. 5) joins the inserted
// tuples against every partition. No production path runs that join; it
// is the test oracle insertViaJoin, against which both entry points are
// compared step by step. A chunk bound for partition p instead looks its
// values up in the directory (core.NUCState.Reserve) while holding p:
//
//  1. a sealed value is a known duplicate whose every live occurrence is
//     already a patch, so only the new row is patched;
//  2. a value the batch carries more than once is patched and sealed;
//  3. a value the directory counts in a partition q the chunk holds (q ==
//     p included) collides with committed rows: the new row and q's
//     occurrences — found by one value scan of q (valuescan.go) — become
//     patches, and the value is sealed;
//  4. a value counted in a partition q the chunk does not hold may be
//     another chunk's reservation whose rows are not applied yet: the
//     chunk releases its partition locks, re-locks its lock set plus q
//     in ascending order — which waits that chunk out — and looks again.
//
// Once nothing is missing, the lookup's critical section also records
// the chunk's values in p's counts (its reservation), so of two chunks
// racing one value into different partitions the second sees the first
// and widens. The chunk then logs its WAL record (withdrawing the
// reservation if the append fails), applies, patches and seals. All of
// this rests on one invariant: partition q's counts change only under
// q's lock, so a hit in a held partition is a committed row.
//
// Visibility: a multi-partition InsertRows batch commits chunk by chunk
// in ascending partition order. A concurrent snapshot (which takes the
// partition locks in the same order) observes a PREFIX of the batch's
// chunks — each chunk atomically, never a torn chunk. Callers that need
// all-or-nothing visibility keep using Insert, or direct a batch at a
// single partition with InsertRowsPartition.

// InsertStats reports how many InsertRows/InsertRowsPartition batches
// ran every chunk under its own partition lock (fast) vs had to widen
// some chunk's lock set to a partition holding a colliding value
// (fallback) — the observability hook tests and benchmarks use to pin
// the partition-parallel path's coverage. Insert counts as neither.
func (t *Table) InsertStats() (fast, fallback uint64) {
	return t.fastInserts.Load(), t.fallbackInserts.Load()
}

// CollisionJoins reports how many global collision handling queries
// (the Fig. 5 join, or its string-column equivalent) the table has run.
// Only the test oracles (insertViaJoin, modifyViaJoin) run that join,
// so it reads 0 on every production table; it is kept for the benchmark
// probe that reports it.
func (t *Table) CollisionJoins() uint64 { return t.collisionJoins.Load() }

// roundRobin distributes rows over partitions the way Insert always
// has: row i goes to partition i mod nparts.
func roundRobin(rows []storage.Row, nparts int) [][]storage.Row {
	perPart := make([][]storage.Row, nparts)
	for i, r := range rows {
		p := i % nparts
		perPart[p] = append(perPart[p], r)
	}
	return perPart
}

func (t *Table) validateRowWidths(rows []storage.Row) error {
	want := len(t.store.Schema())
	for _, r := range rows {
		if len(r) != want {
			return fmt.Errorf("engine: row width %d != schema width %d of table %q", len(r), want, t.name)
		}
	}
	return nil
}

// Insert appends rows, distributing them over partitions round-robin,
// and maintains all PatchIndexes:
//
//   - NUC: uniqueness relies on a global view, so Insert holds the
//     exclusive structure lock throughout, where every lookup in the
//     collision directory hits a partition it owns; the inserted rows
//     and the occurrences found by value scans of just the colliding
//     partitions become patches — the result of the paper's Fig. 5
//     insert handling join, without the join. The whole batch becomes
//     visible atomically. InsertRows is the partition-parallel
//     alternative.
//   - NSC: extend the materialized sorted subsequence with a longest
//     sorted subsequence of the inserted values; the rest become patches
//     (partition-local).
func (db *Database) Insert(table string, rows []storage.Row) error {
	t, err := db.LookupTable(table)
	if err != nil {
		return err
	}
	// Validate widths before any delta mutation: a malformed row failing
	// partway through the partition chunks would leave earlier chunks
	// appended with no index maintenance run for them.
	if err := t.validateRowWidths(rows); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	//pilint:ignore lockblock write-ahead: the WAL append inside must be ordered by the same lock that orders the mutation it logs (Durability, package docs)
	return t.insertExclusiveLocked(db, roundRobin(rows, t.store.NumPartitions()))
}

// InsertRows appends a batch of rows through the partition-parallel
// insert path: the batch is pre-partitioned round-robin (the same
// distribution Insert uses) and each partition chunk is applied under
// the shared structure lock plus that partition's lock — widened, for a
// NUC column, by the partitions that hold a colliding value — so
// concurrent batches, partition-scoped updates, and snapshot queries
// proceed in parallel.
//
// Chunks commit in ascending partition order; a concurrent snapshot may
// observe a prefix of them (each chunk atomically). Use Insert or
// InsertRowsPartition when the whole batch must appear atomically.
func (db *Database) InsertRows(table string, rows []storage.Row) error {
	t, err := db.LookupTable(table)
	if err != nil {
		return err
	}
	if err := t.validateRowWidths(rows); err != nil {
		return err
	}
	return t.insertPartitioned(db, roundRobin(rows, t.store.NumPartitions()))
}

// InsertRowsPartition appends the whole batch to one partition through
// the partition-parallel insert path — the entry point for callers that
// shard rows themselves (one writer per partition). The batch is a
// single chunk, so it becomes visible atomically, like any other
// partition-scoped update.
func (db *Database) InsertRowsPartition(table string, partition int, rows []storage.Row) error {
	t, err := db.LookupTable(table)
	if err != nil {
		return err
	}
	if partition < 0 || partition >= t.NumPartitions() {
		return fmt.Errorf("engine: table %q has no partition %d", table, partition)
	}
	if err := t.validateRowWidths(rows); err != nil {
		return err
	}
	perPart := make([][]storage.Row, t.store.NumPartitions())
	perPart[partition] = rows
	return t.insertPartitioned(db, perPart)
}

// insertPartitioned drives one pre-partitioned batch under the shared
// structure lock, chunk by chunk in ascending partition order. A WAL
// append failure stops the batch: the chunks before the failing one
// committed (a legal prefix), the rest were skipped.
//
// The batch ends with a yield, after every lock is released: a writer
// issuing batches back to back re-takes its partition locks a few
// microseconds after releasing them, before a woken waiter — typically
// a snapshot capture queued on those locks — gets to run, so without
// the yield captures queue behind several batches in a row.
func (t *Table) insertPartitioned(db *Database, perPart [][]storage.Row) (err error) {
	defer runtime.Gosched()
	t.mu.RLock()
	defer t.mu.RUnlock()
	nucs := t.nucBatches(perPart)
	widened := false
	for p := range perPart {
		if len(perPart[p]) == 0 {
			continue
		}
		var w bool
		//pilint:ignore lockblock write-ahead: the WAL append inside must be ordered by the same lock that orders the mutation it logs (Durability, package docs)
		if w, err = t.insertChunk(db, p, perPart[p], nucs); w {
			widened = true
		}
		if err != nil {
			break
		}
	}
	if widened {
		t.fallbackInserts.Add(1)
	} else {
		t.fastInserts.Add(1)
	}
	return err
}

// insertChunk applies partition p's chunk of a partition-parallel batch.
// The caller holds the structure lock shared. widened reports whether
// the chunk had to take a partition lock besides p's.
func (t *Table) insertChunk(db *Database, p int, prows []storage.Row, nucs []nucBatch) (widened bool, err error) {
	held := t.lockChunk(p, nucs)
	defer t.unlockPartitions(held)
	if err := t.logInsertChunk(p, prows); err != nil {
		for _, b := range nucs {
			b.unreserve(p)
		}
		return len(held) > 1, err
	}
	t.insertChunkLocked(db, p, prows, nucs)
	return len(held) > 1, nil
}

// lockChunk takes partition p's lock plus the locks of every partition
// holding a value the chunk collides with, in ascending order, and
// returns them with the chunk's values reserved in every NUC column's
// directory. A lookup that hits a partition outside the lock set
// releases the set, adds the partition and looks again; the set only
// grows, so the loop ends.
func (t *Table) lockChunk(p int, nucs []nucBatch) (held []int) {
	in := make([]bool, len(t.pmu))
	in[p] = true
	for {
		held = held[:0]
		for q, ok := range in {
			if ok {
				held = append(held, q)
			}
		}
		t.lockPartitions(held)
		missing := reserveChunk(nucs, p, in)
		if missing == nil {
			return held
		}
		t.unlockPartitions(held)
		for _, q := range missing {
			in[q] = true
		}
	}
}

// lockPartitions takes the partition locks of ps, which ascend.
func (t *Table) lockPartitions(ps []int) {
	for _, q := range ps {
		t.pmu[q].Lock()
	}
}

func (t *Table) unlockPartitions(ps []int) {
	for i := len(ps) - 1; i >= 0; i-- {
		t.pmu[ps[i]].Unlock()
	}
}

// reserveChunk reserves chunk p's values in every NUC column's directory
// (core.NUCState.Reserve). If some column's values live in partitions
// outside held, it withdraws the reservations it made and returns those
// partitions.
func reserveChunk(nucs []nucBatch, p int, held []bool) []int {
	for k := range nucs {
		if missing := nucs[k].reserve(p, held); missing != nil {
			for _, b := range nucs[:k] {
				b.unreserve(p)
			}
			return missing
		}
	}
	return nil
}

// logInsertChunk appends the write-ahead record of one partition's
// chunk to that partition's segment (a no-op with logging off). The
// caller owns partition p and applies the chunk right after: the entry
// points validate row widths and partition indexes before any chunk
// runs, so the append is the only step of a chunk that can fail.
func (t *Table) logInsertChunk(p int, prows []storage.Row) error {
	if t.wal == nil {
		return nil
	}
	return t.logWAL(t.wal.segs[p], walOpInsertChunk, encodeInsertChunk(t.store.Schema(), p, prows))
}

// insertChunkLocked applies one partition's chunk, already reserved and
// logged by the caller: the delta append, NSC insert handling, each NUC
// column's patches and seals, and the partition's auto-checkpoint. It
// cannot fail. The caller owns partition p and every partition the
// reservations hit.
func (t *Table) insertChunkLocked(db *Database, p int, prows []storage.Row, nucs []nucBatch) {
	base := t.viewLocked(p).NumRows()
	t.mutableDeltaLocked(p).InsertRows(prows)
	for column, idx := range t.indexes {
		if idx[0].ConstraintKind() == core.NearlySorted {
			col := t.store.Schema().MustColumnIndex(column)
			idx[p].HandleInsertNSC(cells[int64](len(prows), func(i int) storage.Value { return prows[i][col] }))
		}
	}
	for _, b := range nucs {
		b.commit(t, p, base)
	}
	if db.AutoCheckpoint {
		t.checkpointPartitionLocked(p)
	}
}

// insertExclusiveLocked is the table-wide insert behind Insert and the
// replay of its WAL record. The caller holds the structure lock
// exclusively, so every partition is held and no reservation can miss;
// perPart fixes each row's target partition. The whole batch is logged
// as one record to the exclusive-op segment, before any mutation, so a
// logged batch either fully replays or (torn record) never started; an
// empty batch logs nothing.
func (t *Table) insertExclusiveLocked(db *Database, perPart [][]storage.Row) error {
	var n int
	for _, prows := range perPart {
		n += len(prows)
	}
	if n == 0 {
		return nil
	}
	if t.wal != nil {
		if err := t.logWAL(t.wal.excl, walOpInsertExcl, encodePerPart(t.store.Schema(), perPart)); err != nil {
			return err
		}
	}
	nucs := t.nucBatches(perPart)
	all := t.allPartitions()
	for p, prows := range perPart {
		if len(prows) == 0 {
			continue
		}
		reserveChunk(nucs, p, all)
		t.insertChunkLocked(db, p, prows, nucs)
	}
	return nil
}

// allPartitions is a held set naming every partition, for lookups under
// the exclusive structure lock.
func (t *Table) allPartitions() []bool {
	all := make([]bool, len(t.pmu))
	for p := range all {
		all[p] = true
	}
	return all
}

// nucColumn is the collision directory of one NUC-indexed column, typed
// by the column's kind: exactly one of ints and strs is set. The generic
// functions below are written once; nucColumn's methods and nucBatch's
// pick the instance, with static calls the lock analyzers follow.
type nucColumn struct {
	column string
	col    int
	ints   *core.NUCState[int64]
	strs   *core.NUCState[string]
}

// newNUCColumnLocked counts column col of every partition into a fresh
// directory. The caller holds the table exclusively.
func (t *Table) newNUCColumnLocked(column string) *nucColumn {
	c := &nucColumn{column: column, col: t.store.Schema().MustColumnIndex(column)}
	if t.store.Schema()[c.col].Kind == storage.KindString {
		c.strs = countPartitions[string](t, c.col)
	} else {
		c.ints = countPartitions[int64](t, c.col)
	}
	return c
}

func countPartitions[T int64 | string](t *Table, col int) *core.NUCState[T] {
	parts := make([][]T, t.store.NumPartitions())
	for p := range parts {
		parts[p] = materialize[T](t.viewLocked(p), col)
	}
	return core.NewNUCState(parts)
}

// patches returns partition p's row count and the rows the directory
// makes patches (core.NUCState.Patches). The caller owns partition p.
func (c *nucColumn) patches(view *pdt.View, p int) (int, []uint64) {
	if c.strs != nil {
		vals := materialize[string](view, c.col)
		return len(vals), c.strs.Patches(p, vals)
	}
	vals := materialize[int64](view, c.col)
	return len(vals), c.ints.Patches(p, vals)
}

// remove folds the values at rowIDs of partition p out of the
// directory. The caller owns partition p.
func (c *nucColumn) remove(view *pdt.View, p int, rowIDs []uint64) {
	if c.strs != nil {
		c.strs.Remove(p, rowValues[string](view, c.col, rowIDs))
	} else {
		c.ints.Remove(p, rowValues[int64](view, c.col, rowIDs))
	}
}

// modify is NUC modify handling (modifyNUCLocked) on this column.
func (c *nucColumn) modify(t *Table, p int, rowIDs []uint64, values []storage.Value) {
	if c.strs != nil {
		modifyNUCLocked(t, c, c.strs, p, rowIDs, values)
	} else {
		modifyNUCLocked(t, c, c.ints, p, rowIDs, values)
	}
}

// nucChange is the classification of values entering one partition of
// a NUC column (classifyNUC).
type nucChange[T int64 | string] struct {
	patched []int        // positions of the values whose rows become patches
	hits    valueHits[T] // partition → values whose live occurrences there become patches
	newDup  []T          // values to seal
}

// classifyNUC looks vals, entering partition p, up in the directory and
// reserves them there (core.NUCState.Reserve); inBatch counts the values
// of the whole update. A sealed value patches only its own row; a value
// the update carries more than once or the directory counts anywhere is
// a new duplicate — its rows are patched, it is sealed, and each
// partition counting it is scanned. missing != nil means some value
// lives outside held and nothing was reserved.
func classifyNUC[T int64 | string](st *core.NUCState[T], p int, vals []T, inBatch map[T]int, held []bool) (ch nucChange[T], missing []int) {
	hit := make([]bool, len(vals))
	sealed, missing := st.Reserve(p, vals, held, func(i, q int) {
		hit[i] = true
		ch.hits.add(q, vals[i])
	})
	if missing != nil {
		return ch, missing
	}
	for i, v := range vals {
		switch {
		case sealed.Contains(v):
			ch.patched = append(ch.patched, i)
		case hit[i] || inBatch[v] > 1:
			ch.patched = append(ch.patched, i)
			ch.newDup = append(ch.newDup, v)
		}
	}
	return ch, nil
}

// commit patches the classified rows of partition p (rowID maps a
// value's position to its row), the live occurrences of the hit values
// in every hit partition, and seals the new duplicates — after the
// change is applied, so the sealed-set invariant holds at publication.
func (ch *nucChange[T]) commit(t *Table, c *nucColumn, st *core.NUCState[T], p int, rowID func(i int) uint64) {
	idx := t.mutableIndexesLocked(c.column)
	patched := make([]uint64, len(ch.patched))
	for k, i := range ch.patched {
		patched[k] = rowID(i)
	}
	idx[p].AddPatches(patched)
	patchValueHits(idx, ch.hits, func(q int) []T { return materialize[T](t.viewLocked(q), c.col) })
	st.Seal(ch.newDup)
}

// nucBatch is one NUC column's share of an insert batch, typed like
// nucColumn: exactly one of ints and strs is set.
type nucBatch struct {
	ints *nucInsert[int64]
	strs *nucInsert[string]
}

// nucInsert holds one NUC column's values of an insert batch and the
// classification of the chunk being applied.
type nucInsert[T int64 | string] struct {
	c       *nucColumn
	st      *core.NUCState[T]
	vals    [][]T     // vals[p]: the batch's values bound for partition p
	inBatch map[T]int // occurrences of each value in the whole batch
	chunk   nucChange[T]
}

// nucBatches splits the batch's values by NUC column.
func (t *Table) nucBatches(perPart [][]storage.Row) []nucBatch {
	out := make([]nucBatch, 0, len(t.nuc))
	for _, c := range t.nuc {
		if c.strs != nil {
			out = append(out, nucBatch{strs: newNUCInsert(c, c.strs, perPart)})
		} else {
			out = append(out, nucBatch{ints: newNUCInsert(c, c.ints, perPart)})
		}
	}
	return out
}

func newNUCInsert[T int64 | string](c *nucColumn, st *core.NUCState[T], perPart [][]storage.Row) *nucInsert[T] {
	ni := &nucInsert[T]{c: c, st: st, vals: make([][]T, len(perPart)), inBatch: make(map[T]int)}
	for p, rows := range perPart {
		ni.vals[p] = cells[T](len(rows), func(i int) storage.Value { return rows[i][c.col] })
		for _, v := range ni.vals[p] {
			ni.inBatch[v]++
		}
	}
	return ni
}

func (b nucBatch) reserve(p int, held []bool) []int {
	if b.strs != nil {
		return b.strs.reserve(p, held)
	}
	return b.ints.reserve(p, held)
}

func (b nucBatch) unreserve(p int) {
	if b.strs != nil {
		b.strs.st.Remove(p, b.strs.vals[p])
	} else {
		b.ints.st.Remove(p, b.ints.vals[p])
	}
}

func (b nucBatch) commit(t *Table, p, base int) {
	if b.strs != nil {
		b.strs.commit(t, p, base)
	} else {
		b.ints.commit(t, p, base)
	}
}

// reserve classifies and reserves chunk p's values (classifyNUC).
func (ni *nucInsert[T]) reserve(p int, held []bool) (missing []int) {
	ni.chunk, missing = classifyNUC(ni.st, p, ni.vals[p], ni.inBatch, held)
	return missing
}

// commit grows the column's index slot p by the chunk's rows, which
// start at base, and publishes the chunk's classification.
func (ni *nucInsert[T]) commit(t *Table, p, base int) {
	t.indexes[ni.c.column][p].Extend(uint64(len(ni.vals[p])))
	ni.chunk.commit(t, ni.c, ni.st, p, func(i int) uint64 { return uint64(base + i) })
}
