package engine

import (
	"fmt"
	"sync"
	"testing"

	"patchindex/internal/core"
	"patchindex/internal/exec"
	"patchindex/internal/storage"
)

// partitionReorderable reports whether partition p currently admits a
// partition-granular physical reorganization.
func partitionReorderable(tb *Table, p int) bool {
	return tb.ExclusivePartition(p, func(*storage.Table) error { return nil }) == nil
}

// TestScanPartitionGatesOnlyItsPartition: a partition-scoped query
// capture retains exactly its partition's generation — the gated
// partition refuses reorganization while every sibling permits it, and
// the drain releases the gate.
func TestScanPartitionGatesOnlyItsPartition(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", seq(400), 4)

	op, err := tb.ScanPartition(0, "v")
	if err != nil {
		t.Fatal(err)
	}
	if partitionReorderable(tb, 0) {
		t.Fatal("gated partition reorderable while its scan is in flight")
	}
	for p := 1; p < 4; p++ {
		if !partitionReorderable(tb, p) {
			t.Fatalf("sibling partition %d refused while only partition 0 is captured", p)
		}
	}
	// The whole-table gate stays conservative: any live ref refuses.
	if reorderable(tb) {
		t.Fatal("whole-table reorder allowed with a live partition-scoped ref")
	}

	// The scan sees exactly partition 0's contiguous chunk (Load fills
	// partitions contiguously), isolated from a concurrent delete.
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
	if !partitionReorderable(tb, 0) {
		t.Fatal("drained partition scan still holds the gate")
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
	if !partitionReorderable(tb, 0) || !reorderable(tb) {
		t.Fatal("aborted ScanPartition leaked a ref")
	}
	if n := tb.Store().LiveSnapshotRefs(); n != 0 {
		t.Fatalf("aborted ScanPartition left %d live snapshot ref(s)", n)
	}
}

// TestExclusivePartitionUnderWholeTableSnapshot: a whole-table snapshot
// gates every partition, but only on the generations it captured — a
// checkpoint's clone-and-swap retires one and frees exactly that
// partition while the snapshot stays open.
func TestExclusivePartitionUnderWholeTableSnapshot(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", seq(200), 2)

	snap := tb.Snapshot()
	if partitionReorderable(tb, 0) || partitionReorderable(tb, 1) {
		t.Fatal("partition reorderable under a whole-table snapshot")
	}
	// The delete checkpoint of partition 1 clones it (the snapshot
	// holds its generation) and publishes a fresh, unreferenced one.
	if err := db.DeleteRowIDs("t", 1, []uint64{0}); err != nil {
		t.Fatal(err)
	}
	if !partitionReorderable(tb, 1) {
		t.Fatal("swapped partition still gated: the snapshot's ref is on the retired generation")
	}
	if partitionReorderable(tb, 0) {
		t.Fatal("unswapped partition lost its gate")
	}
	if got := snap.NumRows(); got != 200 {
		t.Fatalf("snapshot rows = %d, want 200", got)
	}
	snap.Close()
	if !partitionReorderable(tb, 0) {
		t.Fatal("closed snapshot still gates")
	}

	if err := tb.ExclusivePartition(7, func(*storage.Table) error { return nil }); err == nil {
		t.Fatal("ExclusivePartition accepted an out-of-range partition")
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
