package engine

import (
	"fmt"
	"sync"
	"testing"

	"patchindex/internal/core"
	"patchindex/internal/exec"
	"patchindex/internal/plan"
	"patchindex/internal/storage"
)

func collectSorted(t *testing.T, db *Database, table, column string, tp testPlan) []int64 {
	t.Helper()
	op, err := distinctQuery(db, table, column, tp)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := exec.CollectInt64(op)
	if err != nil {
		t.Fatal(err)
	}
	return sortedCopy(vals)
}

func seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// TestSnapshotSeesPreInsertState: a snapshot captured before an insert
// keeps answering from the pre-insert state while the live table moves
// on.
func TestSnapshotSeesPreInsertState(t *testing.T) {
	for _, d := range []core.Design{core.DesignBitmap, core.DesignIdentifier} {
		t.Run(d.String(), func(t *testing.T) {
			db := newDB(t)
			tb := singleColTable(t, db, "t", seq(100), 4)
			if err := tb.CreatePatchIndex("v", core.NearlyUnique, tinyOpts(d)); err != nil {
				t.Fatal(err)
			}
			snap := tb.Snapshot()
			defer snap.Close()

			rows := make([]storage.Row, 20)
			for i := range rows {
				rows[i] = storage.Row{storage.I64(int64(100 + i))}
			}
			if err := db.Insert("t", rows); err != nil {
				t.Fatal(err)
			}

			if got := snap.NumRows(); got != 100 {
				t.Fatalf("snapshot NumRows = %d, want 100", got)
			}
			vals, err := exec.CollectInt64(distinctOn(snap, "v", patchPlan))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sortedCopy(vals), seq(100); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("snapshot distinct = %d values, want the 100 pre-insert values", len(got))
			}
			// The live table sees the new rows.
			live := collectSorted(t, db, "t", "v", patchPlan)
			if len(live) != 120 {
				t.Fatalf("live distinct = %d values, want 120", len(live))
			}
		})
	}
}

// TestSnapshotSeesPreDeleteState exercises the copy-on-write checkpoint:
// a delete compacts base storage, which must not disturb a live
// snapshot's frozen views or patch bitmaps.
func TestSnapshotSeesPreDeleteState(t *testing.T) {
	db := newDB(t)
	vals := append(seq(100), 50, 51) // two duplicated values -> patches
	tb := singleColTable(t, db, "t", vals, 3)
	if err := tb.CreatePatchIndex("v", core.NearlyUnique, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	snap := tb.Snapshot()
	defer snap.Close()
	want := collectSorted(t, db, "t", "v", patchPlan)

	if _, err := db.DeleteWhereInt64("t", "v", func(v int64) bool { return v%2 == 0 }); err != nil {
		t.Fatal(err)
	}

	got, err := exec.CollectInt64(distinctOn(snap, "v", patchPlan))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(sortedCopy(got)) != fmt.Sprint(want) {
		t.Fatalf("snapshot distinct changed after delete: got %d values, want %d", len(got), len(want))
	}
	live := collectSorted(t, db, "t", "v", patchPlan)
	if len(live) != 50 {
		t.Fatalf("live distinct after delete = %d values, want 50", len(live))
	}
}

// TestSnapshotSeesPreModifyState exercises delta copy-on-write for
// modifies, including modifies that checkpoint into base storage.
func TestSnapshotSeesPreModifyState(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", seq(60), 2)
	if err := tb.CreatePatchIndex("v", core.NearlyUnique, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	snap := tb.Snapshot()
	defer snap.Close()

	if err := db.Modify("t", 0, []uint64{0, 1}, "v", []storage.Value{storage.I64(1000), storage.I64(1001)}); err != nil {
		t.Fatal(err)
	}

	got, err := exec.CollectInt64(sortOn(snap, "v", false, refPlan))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(seq(60)) {
		t.Fatalf("snapshot sort sees modified values: %v...", got[:5])
	}
	live := collectSorted(t, db, "t", "v", patchPlan)
	if live[len(live)-1] != 1001 {
		t.Fatalf("live table missing modified value, got max %d", live[len(live)-1])
	}
}

// TestConcurrentDistinctVsUpdates runs DISTINCT queries concurrently
// with an insert/delete update stream on the same table and asserts
// every result is consistent with a table state between two update
// queries: the base values are always present and any extras form
// exactly one round's complete, atomically-inserted batch. Run with
// -race; before the snapshot layer this was impossible without external
// locking.
func TestConcurrentDistinctVsUpdates(t *testing.T) {
	const (
		n       = 1000
		k       = 16
		rounds  = 60
		readers = 2
	)
	db := newDB(t)
	tb := singleColTable(t, db, "t", seq(n), 4)
	if err := tb.CreatePatchIndex("v", core.NearlyUnique, core.Options{Design: core.DesignBitmap, ShardBits: 64}); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // updater
		defer wg.Done()
		defer close(done)
		for r := 0; r < rounds; r++ {
			rows := make([]storage.Row, k)
			for i := range rows {
				rows[i] = storage.Row{storage.I64(int64(n + r*k + i))}
			}
			if err := db.Insert("t", rows); err != nil {
				t.Error(err)
				return
			}
			if _, err := db.DeleteWhereInt64("t", "v", func(v int64) bool { return v >= n }); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				op, err := distinctQuery(db, "t", "v", testPlan{patch: true, Options: plan.Options{Parallel: true}})
				if err != nil {
					t.Error(err)
					return
				}
				vals, err := exec.CollectInt64(op)
				if err != nil {
					t.Error(err)
					return
				}
				seen := make(map[int64]bool, len(vals))
				var extras []int64
				for _, v := range vals {
					if seen[v] {
						t.Errorf("duplicate value %d in DISTINCT result", v)
						return
					}
					seen[v] = true
					if v >= n {
						extras = append(extras, v)
					}
				}
				for v := int64(0); v < n; v++ {
					if !seen[v] {
						t.Errorf("base value %d missing from snapshot result", v)
						return
					}
				}
				if len(extras) == 0 {
					continue
				}
				if len(extras) != k {
					t.Errorf("snapshot saw a partial insert batch: %d of %d extras (%v)", len(extras), k, extras)
					return
				}
				round := (sortedCopy(extras)[0] - n) / k
				for _, v := range extras {
					if (v-n)/k != round {
						t.Errorf("extras span rounds: %v", extras)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentSortVsUpdates is the NSC analogue: concurrent sort
// queries against an insert stream that extends the sorted run, plus
// deletes shrinking it back.
func TestConcurrentSortVsUpdates(t *testing.T) {
	const (
		n      = 1000
		k      = 16
		rounds = 60
	)
	db := newDB(t)
	tb := singleColTable(t, db, "t", seq(n), 4)
	if err := tb.CreatePatchIndex("v", core.NearlySorted, core.Options{Design: core.DesignBitmap, ShardBits: 64}); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // updater
		defer wg.Done()
		defer close(done)
		for r := 0; r < rounds; r++ {
			rows := make([]storage.Row, k)
			for i := range rows {
				rows[i] = storage.Row{storage.I64(int64(n + r*k + i))}
			}
			if err := db.Insert("t", rows); err != nil {
				t.Error(err)
				return
			}
			if _, err := db.DeleteWhereInt64("t", "v", func(v int64) bool { return v >= n }); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	wg.Add(1)
	go func() { // reader
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			op, err := sortQuery(db, "t", "v", false, patchPlan)
			if err != nil {
				t.Error(err)
				return
			}
			vals, err := exec.CollectInt64(op)
			if err != nil {
				t.Error(err)
				return
			}
			if len(vals) != n && len(vals) != n+k {
				t.Errorf("snapshot saw a partial batch: %d rows, want %d or %d", len(vals), n, n+k)
				return
			}
			for i := 1; i < len(vals); i++ {
				if vals[i-1] > vals[i] {
					t.Errorf("result not sorted at %d: %d > %d", i, vals[i-1], vals[i])
					return
				}
			}
			for i := 0; i < n; i++ {
				if vals[i] != int64(i) {
					t.Errorf("base prefix corrupted at %d: got %d", i, vals[i])
					return
				}
			}
		}
	}()
	wg.Wait()
}

// TestSnapshotViewsSurviveCheckpointCycle: an open snapshot's Views()
// must stay stable across a full insert+delete+checkpoint cycle (the matview
// refresh pattern).
func TestSnapshotViewsSurviveCheckpointCycle(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", seq(40), 2)
	snap := tb.Snapshot()
	defer snap.Close()
	views := snap.Views()

	if err := db.Insert("t", []storage.Row{{storage.I64(100)}, {storage.I64(101)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DeleteWhereInt64("t", "v", func(v int64) bool { return v < 10 }); err != nil {
		t.Fatal(err)
	}

	var total int
	var got []int64
	for _, v := range views {
		total += v.NumRows()
		got = append(got, v.MaterializeInt64(0)...)
	}
	if total != 40 {
		t.Fatalf("frozen views row count = %d, want 40", total)
	}
	if fmt.Sprint(sortedCopy(got)) != fmt.Sprint(seq(40)) {
		t.Fatalf("frozen views changed under updates")
	}
}

// TestDatabaseSnapshotAtomicAcrossTables: a DatabaseSnapshot must
// capture both tables at one instant — updates applied to table a
// between the two per-table captures would otherwise leak in.
func TestDatabaseSnapshotAtomicAcrossTables(t *testing.T) {
	db := newDB(t)
	singleColTable(t, db, "a", seq(10), 2)
	singleColTable(t, db, "b", seq(10), 2)

	snap := db.MustSnapshot("a", "b")
	if err := db.Insert("a", []storage.Row{{storage.I64(100)}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("b", []storage.Row{{storage.I64(100)}}); err != nil {
		t.Fatal(err)
	}
	if got := snap.MustTable("a").NumRows() + snap.MustTable("b").NumRows(); got != 20 {
		t.Fatalf("snapshot rows = %d, want 20", got)
	}
	//pilint:ignore snapclose error-path probe; a non-nil snapshot fails the test
	if _, err := db.Snapshot("a", "missing"); err == nil {
		t.Fatal("unknown table accepted")
	}
	snap.Close()
	snap.Close() //pilint:ignore closeowner deliberate double close: the test asserts Close is idempotent
}

// TestDatabaseSnapshotJoinPrefixConsistent is the cross-table race test:
// an updater appends matching batches to a dimension table ("orders")
// and then to a fact table ("lineitem") — so at every update-query
// boundary each fact key has its dimension partner — while readers
// capture DatabaseSnapshots and join the two tables. An atomic
// multi-table capture must always observe some prefix-consistent state:
// every fact key finds its dimension partner (verified both by set
// inclusion and by an actual hash join over the snapshot scans), and
// each table's extras form complete, atomically inserted batches.
// Per-table snapshots taken at their own instants fail this under -race
// load: a fact batch can be captured before its dimension batch.
func TestDatabaseSnapshotJoinPrefixConsistent(t *testing.T) {
	const (
		n      = 400
		k      = 8
		rounds = 50
	)
	db := newDB(t)
	dim := singleColTable(t, db, "orders", seq(n), 2)
	fact := singleColTable(t, db, "lineitem", seq(n), 3)
	if err := dim.CreatePatchIndex("v", core.NearlyUnique, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	if err := fact.CreatePatchIndex("v", core.NearlySorted, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // updater: dimension batch first, then the matching fact batch
		defer wg.Done()
		defer close(done)
		for r := 0; r < rounds; r++ {
			rows := make([]storage.Row, k)
			for i := range rows {
				rows[i] = storage.Row{storage.I64(int64(n + r*k + i))}
			}
			if err := db.Insert("orders", rows); err != nil {
				t.Error(err)
				return
			}
			if err := db.Insert("lineitem", rows); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for rd := 0; rd < 2; rd++ {
		wg.Add(1)
		go func() { // reader
			defer wg.Done()
			checkOnce := func() bool {
				snap := db.MustSnapshot("lineitem", "orders")
				defer snap.Close()
				dimVals, err := exec.CollectInt64(snap.MustTable("orders").ScanAll("v"))
				if err != nil {
					t.Error(err)
					return false
				}
				factVals, err := exec.CollectInt64(snap.MustTable("lineitem").ScanAll("v"))
				if err != nil {
					t.Error(err)
					return false
				}
				dimSet := make(map[int64]bool, len(dimVals))
				for _, v := range dimVals {
					dimSet[v] = true
				}
				for _, v := range factVals {
					if !dimSet[v] {
						t.Errorf("fact key %d has no dimension partner in the snapshot", v)
						return false
					}
				}
				// Extras of each table must be whole batches (atomic inserts).
				if (len(dimVals)-n)%k != 0 || (len(factVals)-n)%k != 0 {
					t.Errorf("partial batch captured: dim %d fact %d", len(dimVals), len(factVals))
					return false
				}
				// The same holds through an actual join over the snapshot:
				// inner-joining fact against dim must keep every fact row.
				join := exec.NewHashJoin(
					snap.MustTable("lineitem").ScanAll("v"),
					snap.MustTable("orders").ScanAll("v"), 0, 0)
				joined, err := exec.Collect(join)
				if err != nil {
					t.Error(err)
					return false
				}
				if len(joined) != len(factVals) {
					t.Errorf("snapshot join lost rows: %d joined, %d fact", len(joined), len(factVals))
					return false
				}
				return true
			}
			for {
				select {
				case <-done:
					return
				default:
				}
				if !checkOnce() {
					return
				}
			}
		}()
	}
	wg.Wait()
}
