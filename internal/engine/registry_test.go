package engine

import (
	"testing"

	"patchindex/internal/exec"
	"patchindex/internal/storage"
)

// reorderable reports whether the table currently admits a physical
// storage reorganization.
func reorderable(tb *Table) bool {
	return tb.ExclusiveStorage(func(*storage.Table) error { return nil }) == nil
}

// TestCheckpointClonesOnlyWhileSnapshotLive is the registry's core
// contract: a delete checkpoint clones a partition iff a live snapshot
// references its current generation. After the snapshot closes, the
// next delete checkpoint mutates in place again — with the old sticky
// bookkeeping, one snapshot ever meant clones forever.
func TestCheckpointClonesOnlyWhileSnapshotLive(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", seq(100), 1)
	st := tb.Store()

	snap := tb.Snapshot()
	before := st.Partition(0)
	if err := db.DeleteRowIDs("t", 0, []uint64{0}); err != nil {
		t.Fatal(err)
	}
	if st.Partition(0) == before {
		t.Fatal("delete checkpoint mutated a snapshot-referenced generation in place")
	}
	if got := snap.NumRows(); got != 100 {
		t.Fatalf("snapshot rows after clone-swap = %d, want 100", got)
	}
	snap.Close()

	// The cloned generation is unreferenced: deletes now apply in place.
	// (They compact the CLONE's arrays; the snapshot's frozen generation
	// was retired by the swap, so even this closed snapshot stays
	// untouched — in general, Close ends a snapshot's read validity.)
	current := st.Partition(0)
	if err := db.DeleteRowIDs("t", 0, []uint64{0}); err != nil {
		t.Fatal(err)
	}
	if st.Partition(0) != current {
		t.Fatal("delete checkpoint cloned although no snapshot references the generation")
	}
	if got := snap.NumRows(); got != 100 {
		t.Fatalf("retired generation mutated: snapshot sees %d rows, want 100", got)
	}
}

// TestDeleteCheckpointInPlaceAfterQueryStream: drained queries leave no
// generation refs behind, so a steady query-then-delete workload pays
// zero partition clones — the regression the sticky bookkeeping caused.
func TestDeleteCheckpointInPlaceAfterQueryStream(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", seq(200), 2)
	st := tb.Store()
	for i := 0; i < 5; i++ {
		op, err := distinctQuery(db, "t", "v", refPlan)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.CollectInt64(op); err != nil {
			t.Fatal(err)
		}
		p0, p1 := st.Partition(0), st.Partition(1)
		if _, err := db.DeleteWhereInt64("t", "v", func(v int64) bool { return v == int64(i) }); err != nil {
			t.Fatal(err)
		}
		if st.Partition(0) != p0 || st.Partition(1) != p1 {
			t.Fatalf("round %d: delete checkpoint cloned after the query stream drained", i)
		}
	}
}

// TestEphemeralQuerySnapshotGatesReorder: a query-internal snapshot
// must hold the physical-reorder guard for exactly the query's
// lifetime — from the entry point returning an operator until that
// operator is drained or closed. (The entry point itself, query.Run, is
// pinned the same way — rejected plans included — by
// TestRunReleasesSnapshot in internal/query.)
func TestEphemeralQuerySnapshotGatesReorder(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", seq(50), 2)

	op, err := sortQuery(db, "t", "v", false, refPlan)
	if err != nil {
		t.Fatal(err)
	}
	if reorderable(tb) {
		t.Fatal("reorder allowed while a query is in flight")
	}
	if _, err := exec.CollectInt64(op); err != nil {
		t.Fatal(err)
	}
	if !reorderable(tb) {
		t.Fatal("drained query still holds the reorder guard")
	}

	// Close without draining releases too.
	op, err = distinctQuery(db, "t", "v", refPlan)
	if err != nil {
		t.Fatal(err)
	}
	if reorderable(tb) {
		t.Fatal("reorder allowed while an undrained query is live")
	}
	op.Close()
	if !reorderable(tb) {
		t.Fatal("closed query still holds the reorder guard")
	}
}

// TestSnapshotCloseReleasesExactlyOnce: double Close (or Close after
// the auto-release at drain) must not drop refcounts another snapshot
// still relies on.
func TestSnapshotCloseReleasesExactlyOnce(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", seq(40), 1)

	s1 := tb.Snapshot()
	s2 := tb.Snapshot()
	s1.Close()
	s1.Close() //pilint:ignore closeowner deliberate double close: the test asserts it cannot release another snapshot's ref
	if reorderable(tb) {
		t.Fatal("double Close released another snapshot's ref")
	}
	st := tb.Store()
	before := st.Partition(0)
	if err := db.DeleteRowIDs("t", 0, []uint64{0}); err != nil {
		t.Fatal(err)
	}
	if st.Partition(0) == before {
		t.Fatal("checkpoint ignored the still-open snapshot after a double Close")
	}
	s2.Close()
	if !reorderable(tb) {
		t.Fatal("table wedged after all snapshots closed")
	}
}

// TestScanPartitionErrorPathRetainsNoRefs: sibling of the double-Close
// test above for the construction side — a ScanPartition call that
// fails validation (unknown column, out-of-range partition) must
// retain nothing, leaving LiveSnapshotRefs at zero once every
// successful query has drained. This is exactly the leak shape the
// snapclose analyzer flags statically; this test pins it dynamically.
func TestScanPartitionErrorPathRetainsNoRefs(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", seq(40), 2)

	// A successful scan takes a ref and releases it at drain.
	op, err := tb.ScanPartition(0, "v")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.CollectInt64(op); err != nil {
		t.Fatal(err)
	}

	// Failed constructions must not take one at all.
	//pilint:ignore snapclose error-path probe; a non-nil operator fails the test
	if _, err := tb.ScanPartition(0, "missing"); err == nil {
		t.Fatal("ScanPartition accepted an unknown column")
	}
	//pilint:ignore snapclose error-path probe; a non-nil operator fails the test
	if _, err := tb.ScanPartition(len(tb.pmu), "v"); err == nil {
		t.Fatal("ScanPartition accepted an out-of-range partition")
	}

	if n := tb.Store().LiveSnapshotRefs(); n != 0 {
		t.Fatalf("LiveSnapshotRefs after error-path constructions = %d, want 0", n)
	}
}

// TestSnapshotTableError: the snapshot API returns errors for unknown
// tables instead of panicking.
func TestSnapshotTableError(t *testing.T) {
	db := newDB(t)
	singleColTable(t, db, "t", seq(10), 1)

	snap, err := db.SnapshotTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.NumRows(); got != 10 {
		t.Fatalf("snapshot rows = %d, want 10", got)
	}
	snap.Close()

	//pilint:ignore snapclose error-path probe; a non-nil snapshot fails the test
	if _, err := db.SnapshotTable("missing"); err == nil {
		t.Fatal("SnapshotTable accepted an unknown table")
	}
}
