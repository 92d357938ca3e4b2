package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"patchindex/internal/core"
	"patchindex/internal/exec"
	"patchindex/internal/storage"
	"patchindex/internal/wal"
)

// partitionHeld reports whether a live snapshot ref holds partition p's
// current generation.
func partitionHeld(tb *Table, p int) bool {
	return tb.Store().PartitionRetained(p)
}

// TestScanPartitionGatesOnlyItsPartition: a partition-scoped query
// capture retains exactly its partition's generation, a reorder of that
// partition proceeds under it without disturbing the scan, and the
// drain releases the ref.
func TestScanPartitionGatesOnlyItsPartition(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", seq(400), 4)

	op, err := tb.ScanPartition(0, "v")
	if err != nil {
		t.Fatal(err)
	}
	if !partitionHeld(tb, 0) {
		t.Fatal("the scan holds no ref on its partition")
	}
	for p := 1; p < 4; p++ {
		if partitionHeld(tb, p) {
			t.Fatalf("sibling partition %d held while only partition 0 is captured", p)
		}
	}

	// The scan sees exactly partition 0's contiguous chunk (Load fills
	// partitions contiguously), isolated from a concurrent reorder and
	// delete of that partition.
	if err := tb.ReorderPartition(0, reversePartition); err != nil {
		t.Fatalf("reorder under a partition scan: %v", err)
	}
	if partitionHeld(tb, 0) {
		t.Fatal("the reorder's new generation is held by the older scan")
	}
	if err := db.DeleteRowIDs("t", 0, []uint64{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	got, err := exec.CollectInt64(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("partition scan rows = %d, want 100", len(got))
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("partition scan value[%d] = %d, want %d", i, v, i)
		}
	}
	if !refsReleased(tb) {
		t.Fatal("drained partition scan still holds its ref")
	}

	// Unknown columns and out-of-range partitions (both signs) error
	// before capturing — no panic, and no generation ref retained that
	// nobody would ever release.
	for _, bad := range []struct {
		p    int
		cols []string
	}{
		{0, []string{"missing"}},
		{9, []string{"v"}},
		{-1, []string{"v"}},
	} {
		if op, err := tb.ScanPartition(bad.p, bad.cols...); err == nil || op != nil {
			t.Errorf("ScanPartition(%d, %v) = (%v, %v), want nil op and error", bad.p, bad.cols, op, err)
		}
	}
	if n := tb.Store().LiveSnapshotRefs(); n != 0 {
		t.Fatalf("aborted ScanPartition left %d live snapshot ref(s)", n)
	}
}

// TestExclusivePartitionUnderWholeTableSnapshot: a whole-table snapshot
// holds every partition, but only on the generations it captured — a
// checkpoint's clone-and-swap or a reorder retires one and frees
// exactly that partition while the snapshot stays open and reads its
// captured rows.
func TestExclusivePartitionUnderWholeTableSnapshot(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", seq(200), 2)

	snap := tb.Snapshot()
	if !partitionHeld(tb, 0) || !partitionHeld(tb, 1) {
		t.Fatal("a partition is not held under a whole-table snapshot")
	}
	// The delete checkpoint of partition 1 clones it (the snapshot
	// holds its generation) and publishes a fresh, unreferenced one.
	if err := db.DeleteRowIDs("t", 1, []uint64{0}); err != nil {
		t.Fatal(err)
	}
	if partitionHeld(tb, 1) {
		t.Fatal("swapped partition still held: the snapshot's ref is on the retired generation")
	}
	if !partitionHeld(tb, 0) {
		t.Fatal("unswapped partition lost its ref")
	}
	if err := tb.ReorderPartition(0, reversePartition); err != nil {
		t.Fatalf("reorder under a whole-table snapshot: %v", err)
	}
	if partitionHeld(tb, 0) {
		t.Fatal("reordered partition still held: the snapshot's ref is on the retired generation")
	}
	if got := snap.NumRows(); got != 200 {
		t.Fatalf("snapshot rows = %d, want 200", got)
	}
	if v := snap.View(0).Get(0, 0); v.I != 0 {
		t.Fatalf("snapshot row 0 = %d after the reorder, want 0", v.I)
	}
	snap.Close()
	if !refsReleased(tb) {
		t.Fatal("closed snapshot still holds refs")
	}

	if err := tb.ReorderPartition(7, reversePartition); err == nil {
		t.Fatal("ReorderPartition accepted an out-of-range partition")
	}
}

// TestUnknownTableErrors: the DML entry points resolve tables through
// LookupTable and report unknown names as errors — the convention
// SnapshotTable established — instead of panicking.
func TestUnknownTableErrors(t *testing.T) {
	db := newDB(t)
	singleColTable(t, db, "t", seq(10), 1)

	if _, err := db.LookupTable("missing"); err == nil {
		t.Fatal("LookupTable accepted an unknown table")
	}
	if tb, err := db.LookupTable("t"); err != nil || tb == nil {
		t.Fatalf("LookupTable(t) = %v, %v", tb, err)
	}
	if err := db.Insert("missing", []storage.Row{{storage.I64(1)}}); err == nil {
		t.Fatal("Insert into unknown table did not error")
	}
	if err := db.DeleteRowIDs("missing", 0, []uint64{0}); err == nil {
		t.Fatal("DeleteRowIDs on unknown table did not error")
	}
	if _, err := db.DeleteWhereInt64("missing", "v", func(int64) bool { return true }); err == nil {
		t.Fatal("DeleteWhereInt64 on unknown table did not error")
	}
	if err := db.Modify("missing", 0, []uint64{0}, "v", []storage.Value{storage.I64(1)}); err == nil {
		t.Fatal("Modify on unknown table did not error")
	}
	// The capture every query starts with (query.Run calls Snapshot).
	//pilint:ignore snapclose error-path probe; a non-nil snapshot fails the test
	if _, err := db.Snapshot("missing"); err == nil {
		t.Fatal("Snapshot of unknown table did not error")
	}
	// Out-of-range partitions error too.
	if err := db.DeleteRowIDs("t", 5, []uint64{0}); err == nil {
		t.Fatal("DeleteRowIDs on unknown partition did not error")
	}
	if err := db.Modify("t", 5, []uint64{0}, "v", []storage.Value{storage.I64(1)}); err == nil {
		t.Fatal("Modify on unknown partition did not error")
	}
	// Duplicate delete positions are rejected before any mutation.
	if err := db.DeleteRowIDs("t", 0, []uint64{1, 1}); err == nil {
		t.Fatal("duplicate delete rowIDs did not error")
	}
	// Out-of-range delete rowIDs are rejected before any mutation too
	// (the collision-state decrements run before the delta would have
	// panicked, so the bounds check must come first).
	if err := db.DeleteRowIDs("t", 0, []uint64{1, 999999}); err == nil {
		t.Fatal("out-of-range delete rowID did not error")
	}
}

// TestBadPartitionLeaksNoLock: a read of a partition the table does not
// have fails before it takes any lock — PartitionSortedness with an
// error, ReadInt64Column with a panic — so DDL, which needs the
// exclusive structure lock, still runs afterwards.
func TestBadPartitionLeaksNoLock(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", seq(100), 2)
	if err := tb.CreatePatchIndex("v", core.NearlySorted, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	panics := func(f func()) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		f()
		return false
	}
	if panics(func() {
		if _, err := tb.PartitionSortedness("v", 5); err == nil {
			t.Error("PartitionSortedness accepted partition 5 of 2")
		}
	}) {
		t.Error("PartitionSortedness panicked on partition 5 of 2")
	}
	if !panics(func() { tb.ReadInt64Column(5, "v") }) {
		t.Error("ReadInt64Column returned for partition 5 of 2")
	}
	done := make(chan error, 1)
	go func() { done <- tb.Load([]storage.Row{{storage.I64(1000)}}) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Load still blocked 5 s after the out-of-range reads: they leaked the structure lock")
	}
}

// TestParallelDisjointUpdates is the tentpole's -race contract: updates
// to disjoint partitions run concurrently (each under its own partition
// lock) while snapshot queries stream against the same table, and the
// table converges to exactly the state the same updates produce
// serially.
func TestParallelDisjointUpdates(t *testing.T) {
	const (
		parts    = 4
		perPart  = 500
		rounds   = 60
		delBatch = 3
	)
	db := newDB(t)
	tb := singleColTable(t, db, "t", seq(parts*perPart), parts)
	if err := tb.CreatePatchIndex("v", core.NearlySorted, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, parts+1)
	for w := 0; w < parts; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Modify two rows, then delete a strictly ascending
				// batch — all partition-local, all through the
				// partition-scoped lock path.
				if err := db.Modify("t", w, []uint64{uint64(r), uint64(r + 7)}, "v",
					[]storage.Value{storage.I64(int64(w*1000 + r)), storage.I64(int64(r))}); err != nil {
					errc <- fmt.Errorf("worker %d modify round %d: %w", w, r, err)
					return
				}
				rowIDs := make([]uint64, delBatch)
				for i := range rowIDs {
					rowIDs[i] = uint64(r + i*11)
				}
				if err := db.DeleteRowIDs("t", w, rowIDs); err != nil {
					errc <- fmt.Errorf("worker %d delete round %d: %w", w, r, err)
					return
				}
			}
		}(w)
	}
	// A reader streams snapshot queries and partition scans throughout.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			snap := tb.Snapshot()
			if n := snap.NumRows(); (parts*perPart-n)%delBatch != 0 {
				// Every update query is atomic: the visible row count
				// only shrinks in whole delete batches.
				errc <- fmt.Errorf("snapshot saw a torn row count %d", n)
				snap.Close()
				return
			}
			snap.Close()
			op, err := tb.ScanPartition(i%parts, "v")
			if err != nil {
				errc <- fmt.Errorf("partition scan: %w", err)
				return
			}
			if _, err := exec.CollectInt64(op); err != nil {
				errc <- fmt.Errorf("partition scan: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	want := parts * (perPart - rounds*delBatch)
	if got := tb.NumRows(); got != want {
		t.Fatalf("rows after parallel updates = %d, want %d", got, want)
	}
	for _, x := range tb.PatchIndexes("v") {
		if err := x.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// The maintained plan still matches the reference plan exactly.
	refOp, err := sortQuery(db, "t", "v", false, refPlan)
	if err != nil {
		t.Fatal(err)
	}
	wantVals, err := exec.CollectInt64(refOp)
	if err != nil {
		t.Fatal(err)
	}
	piOp, err := sortQuery(db, "t", "v", false, patchPlan)
	if err != nil {
		t.Fatal(err)
	}
	gotVals, err := exec.CollectInt64(piOp)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotVals) != len(wantVals) {
		t.Fatalf("plan row counts diverge: %d vs %d", len(gotVals), len(wantVals))
	}
	for i := range wantVals {
		if gotVals[i] != wantVals[i] {
			t.Fatalf("plans diverge at %d: %d vs %d", i, gotVals[i], wantVals[i])
		}
	}
}

// TestDeleteWhereInt64RejectsBadColumns: a caller-supplied column that
// is unknown, STRING or DOUBLE is an error reported before any lock is
// taken — not a panic under every partition lock, and not a silent
// no-op — and nothing is deleted or logged, pending delta or not.
func TestDeleteWhereInt64RejectsBadColumns(t *testing.T) {
	db := newDB(t)
	db.AutoCheckpoint = false // keep a delta pending: a STRING column used to panic on it
	tb, err := db.CreateTable("t", storage.Schema{
		{Name: "k", Kind: storage.KindInt64},
		{Name: "s", Kind: storage.KindString},
		{Name: "f", Kind: storage.KindFloat64},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnableWAL(t.TempDir(), wal.SyncNone); err != nil {
		t.Fatal(err)
	}
	rows := make([]storage.Row, 10)
	for i := range rows {
		rows[i] = storage.Row{storage.I64(int64(i)), storage.Str(fmt.Sprint(i)), storage.F64(float64(i))}
	}
	if err := db.Insert("t", rows); err != nil {
		t.Fatal(err)
	}
	want, logged := tableContents(tb), tb.wal.lsn.Load()
	for _, column := range []string{"missing", "s", "f"} {
		t.Run(column, func(t *testing.T) {
			n, err := db.DeleteWhereInt64("t", column, func(int64) bool { return true })
			if err == nil || n != 0 {
				t.Fatalf("DeleteWhereInt64 on column %q = %d, %v; want 0 and an error", column, n, err)
			}
			comparePartitions(t, "after the refused delete", tableContents(tb), want)
			if got := tb.wal.lsn.Load(); got != logged {
				t.Fatalf("the refused delete appended %d WAL record(s)", got-logged)
			}
		})
	}
}

// TestDeleteWhereCountsOnlyDeletedRows: when one partition's delete
// cannot be logged, DeleteWhereInt64 returns the error together with the
// number of rows it did delete; that partition and the later ones stay
// intact, and recovery returns the live contents.
func TestDeleteWhereCountsOnlyDeletedRows(t *testing.T) {
	dir := t.TempDir()
	db, tb := newWALTable(t, 3, dir)
	before := tableContents(tb)
	if err := tb.wal.segs[1].Close(); err != nil {
		t.Fatal(err)
	}
	n, err := db.DeleteWhereInt64("t", "k", func(int64) bool { return true })
	if err == nil {
		t.Fatal("DeleteWhereInt64 returned no error with partition 1's segment closed")
	}
	after := tableContents(tb)
	removed := 0
	for p := range before {
		removed += len(before[p]) - len(after[p])
	}
	if n != removed || len(after[0]) != 0 {
		t.Fatalf("DeleteWhereInt64 = %d, but %d rows were removed and partition 0 kept %d", n, removed, len(after[0]))
	}
	comparePartitions(t, "partitions 1 and 2", after[1:], before[1:])
	got, _ := recoveredContents(t, dir, "t", "k")
	comparePartitions(t, "recovered", got, after)
}
