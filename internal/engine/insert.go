package engine

import (
	"fmt"

	"patchindex/internal/core"
	"patchindex/internal/storage"
)

// Insert paths. Every entry point classifies its batch from the sharded
// collision state (core.NUCState) and applies it chunk by chunk with the
// same two functions — planFastInsert and insertChunkLocked. They
// differ in the lock they hold and in what a snapshot may see:
//
//   - Insert: the table-wide update query. It holds the exclusive
//     structure lock for the whole insert, where every partition's count
//     map is readable, so the batch is classified exactly, logged as one
//     WAL record and becomes visible atomically.
//   - InsertRows / InsertRowsPartition: the partition-parallel path.
//     The batch is pre-partitioned, and each partition chunk is applied
//     under the shared structure lock plus that partition's lock (the
//     same writer mode DeleteRowIDs uses), so concurrent batches — and
//     concurrent deletes, modifies, and snapshot queries — interleave
//     at partition granularity instead of serializing on the table.
//
// The paper's insert handling (Section 5.1, Fig. 5) joins the inserted
// tuples against every partition. No production path runs that join; it
// is the test oracle insertViaJoin, against which both entry points are
// compared step by step.
//
// What makes the parallel path safe for NUC-indexed tables is the
// sharded collision state (core.NUCState): instead of joining against
// every partition, a batch classifies each inserted value from three
// sources that never require a foreign partition's lock —
//
//  1. the partition-local value counts (owned by the partition lock):
//     a hit is a purely local collision, patched in place;
//  2. the sealed global exception set (an immutable snapshot read
//     lock-free): a hit means every existing occurrence is already a
//     patch, so only the new tuple is patched, locally;
//  3. the per-partition Bloom filters of the OTHER partitions: a hit is
//     a cross-partition candidate collision, and the batch falls back
//     to the exclusive structure lock, where every partition's exact
//     counts are readable: real collisions are patched by value scans
//     of just the partitions that hold them (valuescan.go), the way
//     Insert and NUC-column Modify (maintenance.go) resolve theirs.
//     False positives cost a redundant fallback; false negatives cannot
//     occur.
//
// Batches racing the SAME value are caught without any shared mutex, by
// an optimistic pre-publication protocol: a batch first adds every
// inserted value to its target partition's filter (lock-free atomic
// word sets), and only then probes the foreign filters. sync/atomic
// operations are sequentially consistent, so two racing batches cannot
// both order their probes before the other's adds — at least one of
// them observes the other's value, treats it as a cross-partition
// candidate, and falls back to the exclusive lock, which waits out the
// other batch (it holds the structure lock shared) before classifying
// against the committed counts. Races confined to ONE partition
// need no filters at all: the partition lock serializes the chunks and
// the second one sees the first's rows in the partition-local counts.
//
// Visibility: a multi-partition InsertRows batch commits chunk by chunk
// in ascending partition order. A concurrent snapshot (which takes the
// partition locks in the same order) observes a PREFIX of the batch's
// chunks — each chunk atomically, never a torn chunk. Callers that need
// the old all-or-nothing visibility keep using Insert, or direct a
// batch at a single partition with InsertRowsPartition.

// fastInsertCol is one NUC column's share of a fast-path insert plan.
type fastInsertCol struct {
	column string
	col    int
	isInt  bool
	state  *core.NUCState
	// sealed is the exception-set snapshot the batch classified against.
	sealed *core.NUCExceptions
	// intVals/strVals[p] are the batch's values landing in partition p.
	intVals [][]int64
	strVals [][]string
	// knownPatch[p][i]: the i-th row of partition p's chunk is a patch
	// known before any partition work — its value is sealed, occurs
	// more than once within the batch itself, or (exact mode) already
	// exists in a foreign partition.
	knownPatch [][]bool
	// foreignHits[q] (exact mode only): batch values that already occur
	// in foreign partition q per the count maps — real cross-partition
	// collisions. q's existing occurrences are patched straight from
	// these with one value scan per partition (valuescan.go).
	foreignHitsInt valueHits[int64]
	foreignHitsStr valueHits[string]
	// dupTargets maps a batch-internal duplicate value to the set of
	// partitions the batch inserts it into: those partitions are
	// excluded from the value's foreign probes (the pre-published bits
	// would otherwise read as a self-collision; occurrences inside a
	// target partition are found by its chunk's local counts instead).
	dupTargetsInt map[int64]map[int]bool
	dupTargetsStr map[string]map[int]bool
	// newDup collects values to seal at publication: batch-internal
	// duplicates (found while planning) and local collisions (found by
	// the chunk workers). Duplicate entries are fine.
	newDupInt []int64
	newDupStr []string
}

type fastInsertPlan struct {
	cols []fastInsertCol
}

func (pl *fastInsertPlan) colIndex(column string) int {
	for i := range pl.cols {
		if pl.cols[i].column == column {
			return i
		}
	}
	return -1
}

// InsertStats reports how many InsertRows/InsertRowsPartition batches
// took the partition-parallel fast path vs fell back to the
// exclusive-lock exact retry — the observability hook tests and
// benchmarks use to pin the fast path's coverage. Insert counts as
// neither: it never attempts the fast path.
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
//     exclusive structure lock throughout, where the collision state's
//     count maps answer exactly which inserted values already occur and
//     in which partitions (insertExactLocked); the inserted rows and the
//     occurrences found by value scans of just those partitions become
//     patches — the result of the paper's Fig. 5 insert handling join,
//     without the join. The whole batch becomes visible atomically.
//     InsertRows is the partition-parallel alternative.
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
// the shared structure lock plus that partition's lock, so concurrent
// batches, partition-scoped updates, and snapshot queries proceed in
// parallel. Tables with NUC indexes stay on this path as long as every
// inserted value is classifiable from partition-local state and the
// sealed exception set; a cross-partition candidate collision — real,
// a filter false positive, or a value raced by a concurrent batch —
// falls the whole batch back to the exclusive lock, which classifies it
// exactly the way Insert does.
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

// insertPartitioned drives one pre-partitioned batch: classify and
// pre-publish under the shared structure lock, apply each chunk under
// its partition lock, then seal the discovered duplicates. A planning
// rejection — a cross-partition candidate collision, including a value
// raced by a concurrent batch and seen through its pre-published
// filter bits — falls back to the exclusive lock and Insert's exact
// classification (insertExactLocked). Most fallbacks are filter
// artifacts (saturation or a false positive), not real collisions.
func (t *Table) insertPartitioned(db *Database, perPart [][]storage.Row) error {
	rejected, done, err := t.insertFastPath(db, perPart)
	if done {
		return err
	}
	// The rejected attempt pre-published this batch's values; their
	// ledger entries must outlive the retry below (they keep a
	// concurrent filter rebuild from dropping the bits before the
	// retry commits the counts), so they retire only on the way out.
	defer unpublish(rejected)
	t.fallbackInserts.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	//pilint:ignore lockblock write-ahead: the WAL append inside must be ordered by the same lock that orders the mutation it logs (Durability, package docs)
	return t.insertExactLocked(db, perPart, true)
}

// insertExactLocked is the one insert body that runs under the exclusive
// structure lock, where the count maps of every partition are readable:
// the batch is classified EXACTLY (foreign count hits become foreignHits
// entries instead of rejections), each chunk is applied, the foreign
// occurrences of real cross-partition collisions are patched, and the
// discovered duplicates are sealed. Saturated filters are rebuilt last,
// when the count maps include the batch.
//
// retry tells the two callers apart. true is the InsertRows fallback: a
// rejected fast-path attempt came first, so the batch's values are
// already pre-published (and still ledgered, which covers them against
// the rebuild), and every chunk logs its own WAL record like a fast-path
// chunk. A chunk can fail only on that append, before mutating anything:
// the loop stops there (the committed chunks are a legal prefix) but the
// publication steps still run — sealing the discovered duplicates and
// patching foreign collisions is conservative-safe for the chunks that
// did land (an extra patch costs plan optimality, never correctness).
// false is Insert: the caller logged the whole batch as one record, so
// no chunk logs and nothing can fail; and since the exact plan consults
// and publishes no filter bits, the partition filters learn the batch's
// values here — without them a later fast-path batch carrying one of
// these values into another partition would get a false negative.
func (t *Table) insertExactLocked(db *Database, perPart [][]storage.Row, retry bool) error {
	plan, _ := t.planFastInsert(perPart, true)
	var chunkErr error
	for p := range perPart {
		if len(perPart[p]) == 0 {
			continue
		}
		if retry {
			if chunkErr = t.logInsertChunk(p, perPart[p]); chunkErr != nil {
				break
			}
		}
		t.insertChunkLocked(db, p, perPart[p], plan)
	}
	t.patchForeignCollisionsLocked(plan)
	t.publishFastInsert(plan)
	if !retry {
		plan.eachValue((*core.NUCState).AddBloomInt64, (*core.NUCState).AddBloomString)
	}
	for _, st := range t.nuc {
		st.RebuildOverfullBlooms()
	}
	return chunkErr
}

// insertFastPath classifies and commits the batch under the shared
// structure lock. done=false is a planning rejection (a cross-partition
// candidate collision); the caller retries under the exclusive lock and
// retires the rejected plan's pre-publications once the retry commits.
// done=true with a non-nil err is a WAL append failure: the chunks
// before the failing one committed (a legal prefix), the rest were
// skipped, and the batch is NOT retried.
func (t *Table) insertFastPath(db *Database, perPart [][]storage.Row) (rejected *fastInsertPlan, done bool, err error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	plan, ok := t.planFastInsert(perPart, false)
	if !ok {
		return plan, false, nil
	}
	t.fastInserts.Add(1)
	for p := range perPart {
		if len(perPart[p]) == 0 {
			continue
		}
		err = func() error {
			t.pmu[p].Lock()
			defer t.pmu[p].Unlock()
			//pilint:ignore lockblock write-ahead: the WAL append inside must be ordered by the same lock that orders the mutation it logs (Durability, package docs)
			if err := t.logInsertChunk(p, perPart[p]); err != nil {
				return err
			}
			t.insertChunkLocked(db, p, perPart[p], plan)
			return nil
		}()
		if err != nil {
			break
		}
	}
	t.publishFastInsert(plan)
	// Every committed chunk's counts are in; retire the pre-publication
	// ledger entries (the filter bits themselves stay). On a chunk error
	// the publication still runs — sealing values whose rows were
	// skipped is conservative-safe.
	unpublish(plan)
	return nil, true, err
}

// eachValue calls onInt or onStr (by column kind) for every value of the
// plan's batch with the column's collision state and the value's target
// partition.
func (pl *fastInsertPlan) eachValue(onInt func(*core.NUCState, int, int64), onStr func(*core.NUCState, int, string)) {
	for ci := range pl.cols {
		fc := &pl.cols[ci]
		for p := range fc.intVals {
			for _, v := range fc.intVals[p] {
				onInt(fc.state, p, v)
			}
		}
		for p := range fc.strVals {
			for _, v := range fc.strVals[p] {
				onStr(fc.state, p, v)
			}
		}
	}
}

// prePublish registers every value of the plan's batch in its target
// partition's filter and in-flight ledger: the bits make racing batches
// see this one, the ledger entries survive filter rebuilds until the
// counts commit. Paired with exactly one unpublish.
func prePublish(plan *fastInsertPlan) {
	plan.eachValue((*core.NUCState).PrePublishInt64, (*core.NUCState).PrePublishString)
}

// unpublish retires the plan's pre-publication ledger entries, after
// its values are committed to the count maps.
func unpublish(plan *fastInsertPlan) {
	plan.eachValue((*core.NUCState).UnpublishInt64, (*core.NUCState).UnpublishString)
}

// patchForeignCollisionsLocked patches the pre-existing foreign
// occurrences of the exact plan's real cross-partition collisions: for
// each foreign partition with count-map hits, one partition-local value
// scan finds the colliding rowIDs (the batch's own rows are already
// patched via knownPatch; AddPatches ignores re-marks). The caller
// holds the structure lock exclusively, and the chunks have committed —
// so the scans see the full batch, and the hit values are sealed right
// after by publishFastInsert, keeping the sealed-set invariant.
func (t *Table) patchForeignCollisionsLocked(plan *fastInsertPlan) {
	for ci := range plan.cols {
		fc := &plan.cols[ci]
		idx := t.mutableIndexesLocked(fc.column)
		patchValueHits(idx, fc.foreignHitsInt, func(q int) []int64 { return t.viewLocked(q).MaterializeInt64(fc.col) })
		patchValueHits(idx, fc.foreignHitsStr, func(q int) []string { return t.viewLocked(q).MaterializeString(fc.col) })
	}
}

// planFastInsert classifies the batch for the sharded insert handling.
// Two modes:
//
//   - exact=false (the parallel path, structure lock held shared): no
//     partition lock is taken — classification reads the sealed
//     exception set and the foreign Bloom filters, both lock-free, with
//     the pre-publication ordering ruling out racing batches. A foreign
//     filter hit — a candidate collision, real or false positive —
//     rejects (ok=false, with the returned plan's values pre-published
//     and ledgered for the caller to retire after the retry).
//   - exact=true (Insert and the fallback retry, structure lock held
//     exclusively): foreign presence is read from the partition-local
//     count maps — the exact ground truth, safe to read across
//     partitions under the exclusive lock. Nothing rejects (ok is always
//     true): a real foreign occurrence marks the inserted row a known
//     patch and records a foreignHits entry, which insertExactLocked
//     resolves with a partition-local value scan.
func (t *Table) planFastInsert(perPart [][]storage.Row, exact bool) (*fastInsertPlan, bool) {
	plan := &fastInsertPlan{}
	for column, idx := range t.indexes {
		if len(idx) == 0 || idx[0] == nil || idx[0].ConstraintKind() != core.NearlyUnique {
			continue
		}
		// Every site that installs a NUC index installs its state.
		st := t.nuc[column]
		col := t.store.Schema().MustColumnIndex(column)
		fc := fastInsertCol{
			column: column,
			col:    col,
			isInt:  t.store.Schema()[col].Kind == storage.KindInt64,
			state:  st,
			sealed: st.Sealed(),
		}
		fc.knownPatch = make([][]bool, len(perPart))
		if fc.isInt {
			fc.intVals = make([][]int64, len(perPart))
			batch := make(map[int64]int)
			for p, prows := range perPart {
				fc.intVals[p] = make([]int64, len(prows))
				fc.knownPatch[p] = make([]bool, len(prows))
				for i, r := range prows {
					fc.intVals[p][i] = r[col].I
					batch[r[col].I]++
				}
			}
			for p := range perPart {
				for i, v := range fc.intVals[p] {
					if fc.sealed.ContainsInt64(v) {
						fc.knownPatch[p][i] = true
					} else if batch[v] > 1 {
						fc.knownPatch[p][i] = true
						if fc.dupTargetsInt == nil {
							fc.dupTargetsInt = make(map[int64]map[int]bool)
						}
						if fc.dupTargetsInt[v] == nil {
							fc.dupTargetsInt[v] = make(map[int]bool)
						}
						fc.dupTargetsInt[v][p] = true
					}
				}
			}
			for v, n := range batch {
				if n > 1 && !fc.sealed.ContainsInt64(v) {
					fc.newDupInt = append(fc.newDupInt, v)
				}
			}
		} else {
			fc.strVals = make([][]string, len(perPart))
			batch := make(map[string]int)
			for p, prows := range perPart {
				fc.strVals[p] = make([]string, len(prows))
				fc.knownPatch[p] = make([]bool, len(prows))
				for i, r := range prows {
					fc.strVals[p][i] = r[col].S
					batch[r[col].S]++
				}
			}
			for p := range perPart {
				for i, v := range fc.strVals[p] {
					if fc.sealed.ContainsString(v) {
						fc.knownPatch[p][i] = true
					} else if batch[v] > 1 {
						fc.knownPatch[p][i] = true
						if fc.dupTargetsStr == nil {
							fc.dupTargetsStr = make(map[string]map[int]bool)
						}
						if fc.dupTargetsStr[v] == nil {
							fc.dupTargetsStr[v] = make(map[int]bool)
						}
						fc.dupTargetsStr[v][p] = true
					}
				}
			}
			for v, n := range batch {
				if n > 1 && !fc.sealed.ContainsString(v) {
					fc.newDupStr = append(fc.newDupStr, v)
				}
			}
		}
		plan.cols = append(plan.cols, fc)
	}
	if len(plan.cols) == 0 {
		return plan, true // no NUC indexes: trivially partition-parallel
	}

	// Optimistic pre-publication: teach every target partition's filter
	// (and in-flight ledger) this batch's values FIRST, then probe the
	// foreign filters. Because sync/atomic operations are sequentially
	// consistent, two batches racing the same value cannot both order
	// all their probes before the other's adds — at least one sees the
	// other and falls back. A fallback's pre-published bits stay
	// behind; they only ever cost a false positive, and the retry
	// inserts the same values anyway — its ledger entries retire once
	// the retry commits. Exact mode skips the publication: it consults
	// count maps, not filters; the retry's bits are already published
	// (and still ledgered) by the rejected attempt it follows, and
	// Insert adds its own after the counts commit (insertExactLocked).
	if !exact {
		prePublish(plan)
	}
	nparts := t.store.NumPartitions()
	for ci := range plan.cols {
		fc := &plan.cols[ci]
		if fc.isInt {
			for p := range fc.intVals {
				for i, v := range fc.intVals[p] {
					if fc.sealed.ContainsInt64(v) {
						continue // every existing occurrence is already a patch
					}
					targets := fc.dupTargetsInt[v] // nil unless a batch dup
					for q := 0; q < nparts; q++ {
						if q == p || targets[q] {
							continue
						}
						if exact {
							if fc.state.LocalCountInt64(q, v) > 0 {
								// A real cross-partition collision: the new
								// row and q's existing occurrences all become
								// patches, and v gets sealed at publication.
								fc.knownPatch[p][i] = true
								fc.foreignHitsInt.add(q, v)
								fc.newDupInt = append(fc.newDupInt, v)
							}
						} else if fc.state.PartitionMayContainInt64(q, v) {
							return plan, false
						}
					}
				}
			}
		} else {
			for p := range fc.strVals {
				for i, v := range fc.strVals[p] {
					if fc.sealed.ContainsString(v) {
						continue
					}
					targets := fc.dupTargetsStr[v]
					for q := 0; q < nparts; q++ {
						if q == p || targets[q] {
							continue
						}
						if exact {
							if fc.state.LocalCountString(q, v) > 0 {
								fc.knownPatch[p][i] = true
								fc.foreignHitsStr.add(q, v)
								fc.newDupStr = append(fc.newDupStr, v)
							}
						} else if fc.state.PartitionMayContainString(q, v) {
							return plan, false
						}
					}
				}
			}
		}
	}
	return plan, true
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

// insertChunkLocked applies one partition's chunk, already logged by
// the caller: local collision scans against the pre-insert state, the
// delta append, index maintenance (all partition-local), collision-state
// counts, and the partition's auto-checkpoint. It cannot fail. The
// caller owns partition p — via the shared structure lock plus p's
// partition lock (the parallel path), or via the exclusive structure
// lock (insertExactLocked).
func (t *Table) insertChunkLocked(db *Database, p int, prows []storage.Row, plan *fastInsertPlan) {
	base := t.viewLocked(p).NumRows()
	joins := make([]core.NUCJoinResult, len(plan.cols))
	for ci := range plan.cols {
		fc := &plan.cols[ci]
		var scanInt []int64
		var scanStr []string
		for i := range prows {
			patch := fc.knownPatch[p][i]
			if fc.isInt {
				v := fc.intVals[p][i]
				if !fc.sealed.ContainsInt64(v) && fc.state.LocalCountInt64(p, v) > 0 {
					// A purely local collision: the existing occurrences
					// join the patch set too, found by one partition-local
					// scan below (collisions are rare on nearly unique
					// columns, so the scan rarely runs).
					patch = true
					scanInt = append(scanInt, v)
					fc.newDupInt = append(fc.newDupInt, v)
				}
			} else {
				v := fc.strVals[p][i]
				if !fc.sealed.ContainsString(v) && fc.state.LocalCountString(p, v) > 0 {
					patch = true
					scanStr = append(scanStr, v)
					fc.newDupStr = append(fc.newDupStr, v)
				}
			}
			if patch {
				joins[ci].InsertedSide = append(joins[ci].InsertedSide, uint64(base+i))
			}
		}
		if scanInt != nil {
			joins[ci].TableSide = matchingRowIDs(t.viewLocked(p).MaterializeInt64(fc.col), scanInt)
		}
		if scanStr != nil {
			joins[ci].TableSide = matchingRowIDs(t.viewLocked(p).MaterializeString(fc.col), scanStr)
		}
	}

	t.mutableDeltaLocked(p).InsertRows(prows)

	for column := range t.indexes {
		idx := t.mutableIndexesLocked(column)
		switch idx[0].ConstraintKind() {
		case core.NearlySorted:
			col := t.store.Schema().MustColumnIndex(column)
			vals := make([]int64, len(prows))
			for i, r := range prows {
				vals[i] = r[col].I
			}
			idx[p].HandleInsertNSC(vals)
		case core.NearlyUnique:
			idx[p].HandleInsertNUC(len(prows), joins[plan.colIndex(column)])
		}
	}

	for ci := range plan.cols {
		fc := &plan.cols[ci]
		if fc.isInt {
			for _, v := range fc.intVals[p] {
				fc.state.AddLocalInt64(p, v)
			}
		} else {
			for _, v := range fc.strVals[p] {
				fc.state.AddLocalString(p, v)
			}
		}
	}

	if db.AutoCheckpoint {
		t.checkpointPartitionLocked(p)
	}
}

// publishFastInsert completes a batch by sealing the values it
// discovered to be duplicated — batch-internal duplicates and (exact
// mode) foreign hits from planning plus local collisions from the chunk
// workers. Sealing is a lock-free compare-and-swap, so concurrent
// publishers compose.
func (t *Table) publishFastInsert(plan *fastInsertPlan) {
	for ci := range plan.cols {
		fc := &plan.cols[ci]
		if fc.isInt {
			fc.state.SealDuplicatesInt64(fc.newDupInt)
		} else {
			fc.state.SealDuplicatesString(fc.newDupStr)
		}
	}
}

// insertExclusiveLocked is the table-wide insert behind Insert and the
// replay of its WAL record. The caller holds the structure lock
// exclusively; perPart fixes each row's target partition. The whole
// batch is logged as one record to the exclusive-op segment, before any
// mutation, so a logged batch either fully replays or (torn record)
// never started; an empty batch logs nothing.
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
	return t.insertExactLocked(db, perPart, false)
}
