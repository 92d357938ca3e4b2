package engine

import (
	"flag"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"patchindex/internal/core"
	"patchindex/internal/exec"
	"patchindex/internal/storage"
)

// Model-based randomized concurrency suite. Four workers run seeded
// random schedules of Insert / InsertRows / InsertRowsPartition /
// DeleteRowIDs / Modify / Snapshot / ScanPartition / Close against one
// table, each checked against a single-threaded reference model.
//
// The decomposition that makes a concurrent run checkable against a
// deterministic model: worker w draws its "id" values from a private
// range and is the only goroutine that ever deletes or modifies rows in
// partition w. Rows a worker inserts through the round-robin entry
// points land in foreign partitions, but nobody mutates them there (the
// owning worker of that partition only deletes/modifies rows whose id
// lies in ITS range), so each worker's rows evolve exactly as its own
// model says — regardless of how the schedules interleave. Mid-run,
// every worker verifies its own id-range slice of scans and snapshots;
// after the join, the union of the four models must equal the table
// exactly, and every globally duplicated id must have all its
// occurrences patched in the NUC index.
//
// The seed pins the per-worker op schedules; the interleaving stays
// nondeterministic, which is the point — assertions hold for ANY
// schedule, and -race watches the memory model.

var (
	modelSeed = flag.Int64("model.seed", 1, "seed of the model-based concurrency test schedules")
	modelOps  = flag.Int("model.ops", 150, "ops per worker in the model-based concurrency test")
)

// modelParts is the partition count; worker w owns partition w and the
// id range [(w+1)<<40, (w+2)<<40).
const modelParts = 4

// modelWorker is one worker's goroutine-local reference model.
type modelWorker struct {
	w   int
	rng *rand.Rand
	// rows[p] is the multiset of this worker's rows currently in
	// partition p: id → value → count.
	rows   [modelParts]map[int64]map[int64]int
	nextID int64
}

func newModelWorker(w int, seed int64) *modelWorker {
	mw := &modelWorker{
		w:      w,
		rng:    rand.New(rand.NewSource(seed + int64(w))),
		nextID: int64(w+1) << 40,
	}
	for p := range mw.rows {
		mw.rows[p] = make(map[int64]map[int64]int)
	}
	return mw
}

func (mw *modelWorker) owns(id int64) bool {
	return id >= int64(mw.w+1)<<40 && id < int64(mw.w+2)<<40
}

func (mw *modelWorker) add(p int, id, v int64) {
	m := mw.rows[p][id]
	if m == nil {
		m = make(map[int64]int)
		mw.rows[p][id] = m
	}
	m[v]++
}

func (mw *modelWorker) remove(p int, id, v int64) error {
	m := mw.rows[p][id]
	if m[v] == 0 {
		return fmt.Errorf("model: worker %d removing unknown row (id=%d v=%d) from partition %d", mw.w, id, v, p)
	}
	if m[v] == 1 {
		delete(m, v)
		if len(m) == 0 {
			delete(mw.rows[p], id)
		}
	} else {
		m[v]--
	}
	return nil
}

// freshBatch mints n rows with fresh unique ids from the worker's
// range; with dup, one id is used twice inside the batch.
func (mw *modelWorker) freshBatch(n int, dup bool) []storage.Row {
	rows := make([]storage.Row, n)
	for i := range rows {
		id := mw.nextID
		mw.nextID++
		if dup && i == n-1 && n > 1 {
			id = mw.nextID - 2 // reuse the previous id
		}
		rows[i] = storage.Row{storage.I64(id), storage.I64(mw.rng.Int63n(1 << 30))}
	}
	return rows
}

// trackRoundRobin applies a round-robin batch insert to the model.
func (mw *modelWorker) trackRoundRobin(rows []storage.Row) {
	for i, r := range rows {
		mw.add(i%modelParts, r[0].I, r[1].I)
	}
}

// ownRows reads partition p's (id, v) pairs that belong to this worker,
// with their current partition-local rowIDs. ids and vs are read in two
// locked steps; positions < len(ids) are stable between them because
// only this worker deletes or modifies in partition p... for foreign
// partitions the worker never uses the positions, only the pairs.
func ownRows(tb *Table, mw *modelWorker, p int) (rowIDs []uint64, ids, vs []int64) {
	allIDs := tb.ReadInt64Column(p, "id")
	allVs := tb.ReadInt64Column(p, "v")
	n := len(allIDs)
	if len(allVs) < n {
		n = len(allVs)
	}
	for i := 0; i < n; i++ {
		if mw.owns(allIDs[i]) {
			rowIDs = append(rowIDs, uint64(i))
			ids = append(ids, allIDs[i])
			vs = append(vs, allVs[i])
		}
	}
	return rowIDs, ids, vs
}

// verifyPairs checks that the observed (id, v) multiset equals the
// model's for partition p.
func verifyPairs(mw *modelWorker, p int, ids, vs []int64) error {
	got := make(map[int64]map[int64]int)
	for i := range ids {
		m := got[ids[i]]
		if m == nil {
			m = make(map[int64]int)
			got[ids[i]] = m
		}
		m[vs[i]]++
	}
	want := mw.rows[p]
	if len(got) != len(want) {
		return fmt.Errorf("model: worker %d partition %d: %d distinct ids, want %d", mw.w, p, len(got), len(want))
	}
	for id, wm := range want {
		gm := got[id]
		if len(gm) != len(wm) {
			return fmt.Errorf("model: worker %d partition %d id %d: value sets diverge", mw.w, p, id)
		}
		for v, n := range wm {
			if gm[v] != n {
				return fmt.Errorf("model: worker %d partition %d id %d v %d: count %d, want %d", mw.w, p, id, v, gm[v], n)
			}
		}
	}
	return nil
}

func modelWorkerRun(db *Database, tb *Table, mw *modelWorker, ops int) error {
	for opn := 0; opn < ops; opn++ {
		switch k := mw.rng.Intn(100); {
		case k < 20: // partition-scoped insert into the owned partition
			rows := mw.freshBatch(1+mw.rng.Intn(6), mw.rng.Intn(4) == 0)
			if err := db.InsertRowsPartition("t", mw.w, rows); err != nil {
				return err
			}
			for _, r := range rows {
				mw.add(mw.w, r[0].I, r[1].I)
			}
		case k < 32: // round-robin fast-path insert
			rows := mw.freshBatch(2+mw.rng.Intn(6), false)
			if err := db.InsertRows("t", rows); err != nil {
				return err
			}
			mw.trackRoundRobin(rows)
		case k < 40: // round-robin exclusive insert
			rows := mw.freshBatch(1+mw.rng.Intn(4), false)
			if err := db.Insert("t", rows); err != nil {
				return err
			}
			mw.trackRoundRobin(rows)
		case k < 52: // delete a few own rows from the owned partition
			rowIDs, ids, vs := ownRows(tb, mw, mw.w)
			if len(rowIDs) == 0 {
				continue
			}
			var delPos []uint64
			var delIdx []int
			for i := range rowIDs {
				if mw.rng.Intn(3) == 0 && len(delPos) < 8 {
					delPos = append(delPos, rowIDs[i])
					delIdx = append(delIdx, i)
				}
			}
			if len(delPos) == 0 {
				continue
			}
			if err := db.DeleteRowIDs("t", mw.w, delPos); err != nil {
				return err
			}
			for _, i := range delIdx {
				if err := mw.remove(mw.w, ids[i], vs[i]); err != nil {
					return err
				}
			}
		case k < 64: // modify the non-NUC column of a few own rows
			rowIDs, ids, vs := ownRows(tb, mw, mw.w)
			if len(rowIDs) == 0 {
				continue
			}
			var pos []uint64
			var vals []storage.Value
			var idx []int
			for i := range rowIDs {
				if mw.rng.Intn(3) == 0 && len(pos) < 8 {
					pos = append(pos, rowIDs[i])
					vals = append(vals, storage.I64(mw.rng.Int63n(1<<30)))
					idx = append(idx, i)
				}
			}
			if len(pos) == 0 {
				continue
			}
			if err := db.Modify("t", mw.w, pos, "v", vals); err != nil {
				return err
			}
			for j, i := range idx {
				if err := mw.remove(mw.w, ids[i], vs[i]); err != nil {
					return err
				}
				mw.add(mw.w, ids[i], vals[j].I)
			}
		case k < 76: // scan the owned partition, verify the own-range slice
			scan, err := tb.ScanPartition(mw.w, "id", "v")
			if err != nil {
				return err
			}
			rows, err := drainPairs(scan)
			if err != nil {
				return err
			}
			var ids, vs []int64
			for _, r := range rows {
				if mw.owns(r[0]) {
					ids = append(ids, r[0])
					vs = append(vs, r[1])
				}
			}
			if err := verifyPairs(mw, mw.w, ids, vs); err != nil {
				return err
			}
		case k < 88: // snapshot, verify every partition's own-range slice
			snap := tb.Snapshot()
			for p := 0; p < modelParts; p++ {
				view := snap.View(p)
				allIDs := view.MaterializeInt64(0)
				allVs := view.MaterializeInt64(1)
				var ids, vs []int64
				for i := range allIDs {
					if mw.owns(allIDs[i]) {
						ids = append(ids, allIDs[i])
						vs = append(vs, allVs[i])
					}
				}
				if err := verifyPairs(mw, p, ids, vs); err != nil {
					snap.Close()
					return fmt.Errorf("snapshot: %w", err)
				}
			}
			snap.Close()
			if mw.rng.Intn(2) == 0 {
				snap.Close() //pilint:ignore closeowner deliberate double close: the model test exercises Close idempotence
			}
		case k < 92: // out-of-range ScanPartition must error, not panic
			if scan, err := tb.ScanPartition(modelParts+3, "id"); err == nil || scan != nil {
				return fmt.Errorf("out-of-range ScanPartition returned (%v, %v)", scan, err)
			}
		default: // insert an id duplicated across workers' view of time:
			// reuse one of our own EXISTING ids (possibly living in a
			// foreign partition) — exercises sealed exceptions, local
			// collisions, and chunks widened to a foreign partition.
			var id int64
			found := false
			for p := 0; p < modelParts && !found; p++ {
				for cand := range mw.rows[p] {
					id = cand
					found = true
					break
				}
			}
			if !found {
				continue
			}
			v := mw.rng.Int63n(1 << 30)
			if err := db.InsertRowsPartition("t", mw.w, []storage.Row{{storage.I64(id), storage.I64(v)}}); err != nil {
				return err
			}
			mw.add(mw.w, id, v)
		}
	}
	return nil
}

// drainPairs drains a two-column BIGINT operator into (id, v) pairs.
func drainPairs(op exec.Operator) ([][2]int64, error) {
	batches, err := exec.Drain(op)
	if err != nil {
		return nil, err
	}
	var out [][2]int64
	for _, b := range batches {
		ids, vs := b.Cols[0].I64, b.Cols[1].I64
		for i := range ids {
			out = append(out, [2]int64{ids[i], vs[i]})
		}
	}
	return out, nil
}

func TestModelRandomSchedules(t *testing.T) {
	db := newDB(t)
	tb, err := db.CreateTable("t", storage.Schema{
		{Name: "id", Kind: storage.KindInt64},
		{Name: "v", Kind: storage.KindInt64},
	}, modelParts)
	if err != nil {
		t.Fatal(err)
	}
	// Seed rows: worker-0-owned ids in every partition so early deletes
	// have something to chew on.
	var seedRows []storage.Row
	for i := 0; i < 64; i++ {
		seedRows = append(seedRows, storage.Row{storage.I64(int64(1)<<40 + int64(i)), storage.I64(int64(i))})
	}
	tb.Load(seedRows)
	if err := tb.CreatePatchIndex("id", core.NearlyUnique, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	if err := tb.CreatePatchIndex("v", core.NearlySorted, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}

	// The maintenance daemon churns alongside the workers: recomputes
	// and condenses only — no reorderer is registered
	// (the model's positional bookkeeping cannot survive a physical
	// permutation) and discovery stays off (the model owns the schema).
	// Repairs preserve the model's observable invariants: recompute keeps
	// every sealed duplicate patched, and nothing permutes rows.
	maint, err := db.StartMaintainer(MaintainerConfig{
		Interval:         500 * time.Microsecond,
		MaxExceptionRate: 0.02,
		MinUtilization:   0.5,
	})
	if err != nil {
		t.Fatal(err)
	}

	workers := make([]*modelWorker, modelParts)
	for w := range workers {
		workers[w] = newModelWorker(w, *modelSeed)
	}
	// The loaded seed rows belong to worker 0's range; Load distributes
	// contiguously (16 per partition at 64 rows / 4 partitions).
	for i, r := range seedRows {
		workers[0].add(i/16, r[0].I, r[1].I)
	}

	var wg sync.WaitGroup
	errc := make(chan error, modelParts)
	for _, mw := range workers {
		wg.Add(1)
		go func(mw *modelWorker) {
			defer wg.Done()
			if err := modelWorkerRun(db, tb, mw, *modelOps); err != nil {
				errc <- fmt.Errorf("worker %d: %w", mw.w, err)
			}
		}(mw)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	db.Close() // joins the daemon before the quiescent checks below
	mstats := maint.Stats()
	t.Logf("maintainer: %+v", mstats)
	if mstats.Errors != 0 {
		t.Fatalf("maintenance daemon hit %d non-refusal errors: %+v", mstats.Errors, mstats)
	}

	// Quiescent final check 1: the table equals the union of the models,
	// partition by partition, as an (id, v) multiset.
	var totalRows int
	for p := 0; p < modelParts; p++ {
		ids := tb.ReadInt64Column(p, "id")
		vs := tb.ReadInt64Column(p, "v")
		if len(ids) != len(vs) {
			t.Fatalf("partition %d column lengths diverge", p)
		}
		totalRows += len(ids)
		got := make(map[[2]int64]int)
		for i := range ids {
			got[[2]int64{ids[i], vs[i]}]++
		}
		want := make(map[[2]int64]int)
		var wantRows int
		for _, mw := range workers {
			for id, m := range mw.rows[p] {
				for v, n := range m {
					want[[2]int64{id, v}] += n
					wantRows += n
				}
			}
		}
		if len(ids) != wantRows {
			t.Fatalf("partition %d rows = %d, model says %d", p, len(ids), wantRows)
		}
		for pair, n := range want {
			if got[pair] != n {
				t.Fatalf("partition %d pair %v: count %d, model says %d", p, pair, got[pair], n)
			}
		}
	}
	if got := tb.NumRows(); got != totalRows {
		t.Fatalf("NumRows = %d, partitions sum to %d", got, totalRows)
	}

	// Quiescent final check 2: the NUC index is internally consistent
	// and every globally duplicated id has ALL its occurrences patched —
	// the cross-partition uniqueness contract, no matter which path
	// (own partition, sealed, widened) handled each insert.
	idx := tb.PatchIndexes("id")
	global := make(map[int64]int)
	for p := 0; p < modelParts; p++ {
		for _, id := range tb.ReadInt64Column(p, "id") {
			global[id]++
		}
	}
	for p := 0; p < modelParts; p++ {
		if err := idx[p].Validate(); err != nil {
			t.Fatal(err)
		}
		ids := tb.ReadInt64Column(p, "id")
		for rid, id := range ids {
			if global[id] > 1 && !idx[p].IsPatch(uint64(rid)) {
				t.Fatalf("duplicated id %d at partition %d row %d is not a patch", id, p, rid)
			}
		}
	}
	for _, x := range tb.PatchIndexes("v") {
		if err := x.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	fast, fallback := tb.InsertStats()
	t.Logf("model run: %d fast batches, %d widened, %d final rows", fast, fallback, totalRows)
}
