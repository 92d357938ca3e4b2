package engine

import (
	"testing"

	"patchindex/internal/storage"
	"patchindex/internal/wal"
)

// TestRewriteFailedAppendPublishesNothing: a rewrite (Load, ReorderStorage,
// ReorderPartition) whose image cannot be logged returns the error and
// leaves the partition as it was, so after one more logged write the
// recovered table holds exactly the live rows.
func TestRewriteFailedAppendPublishesNothing(t *testing.T) {
	excl := func(tb *Table) *wal.Segment { return tb.wal.excl }
	for _, c := range []struct {
		name    string
		seg     func(*Table) *wal.Segment
		rewrite func(*Table) error
	}{
		{"Load", excl, func(tb *Table) error {
			return tb.Load([]storage.Row{durRow(500), durRow(501), durRow(502), durRow(503)})
		}},
		{"ReorderStorage", excl, func(tb *Table) error { return tb.ReorderStorage(reversePartition) }},
		{"ReorderPartition", func(tb *Table) *wal.Segment { return tb.wal.segs[1] },
			func(tb *Table) error { return tb.ReorderPartition(1, reversePartition) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			db, tb := newWALTable(t, 3, dir)
			mixedWorkload(t, db)
			before := tableContents(tb)
			if err := c.seg(tb).Close(); err != nil {
				t.Fatal(err)
			}
			if err := c.rewrite(tb); err == nil {
				t.Fatal("the rewrite returned no error with its segment closed")
			}
			comparePartitions(t, "after the failed rewrite", tableContents(tb), before)
			if err := db.InsertRowsPartition("t", 0, []storage.Row{durRow(300)}); err != nil {
				t.Fatal(err)
			}
			want := tableContents(tb)
			validateIndexes(t, tb, "k")
			got, _ := recoveredContents(t, dir, "t", "k")
			comparePartitions(t, "recovered", got, want)
		})
	}
}

// TestReorderRejectsNonPermutation: an order that is not a permutation
// of the partition's rows is rejected before anything is logged or
// published.
func TestReorderRejectsNonPermutation(t *testing.T) {
	dir := t.TempDir()
	db, tb := newWALTable(t, 2, dir)
	mixedWorkload(t, db)
	want := tableContents(tb)
	logged := tb.wal.lsn.Load()
	repeat := func(part *storage.Partition) []int {
		perm := make([]int, part.NumRows())
		for i := range perm {
			perm[i] = i / 2
		}
		return perm
	}
	short := func(part *storage.Partition) []int { return make([]int, part.NumRows()-1) }
	outside := func(part *storage.Partition) []int {
		perm := reversePartition(part)
		perm[0] = part.NumRows()
		return perm
	}
	for name, order := range map[string]func(*storage.Partition) []int{"repeat": repeat, "short": short, "outside": outside} {
		if err := tb.ReorderPartition(0, order); err == nil {
			t.Fatalf("ReorderPartition accepted the %s order", name)
		}
		if err := tb.ReorderStorage(order); err == nil {
			t.Fatalf("ReorderStorage accepted the %s order", name)
		}
		if got := tb.wal.lsn.Load(); got != logged {
			t.Fatalf("the rejected %s order logged %d record(s)", name, got-logged)
		}
	}
	comparePartitions(t, "after rejected reorders", tableContents(tb), want)
	got, _ := recoveredContents(t, dir, "t", "k")
	comparePartitions(t, "recovered", got, want)
}

// TestReorderUnderLiveSnapshot: reorders under a live snapshot succeed,
// the snapshot keeps reading its pre-reorder rows, the live table reads
// the reordered ones, and the snapshot's refs are gone on Close.
func TestReorderUnderLiveSnapshot(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", seq(60), 3)
	snap := tb.Snapshot()
	if err := tb.ReorderPartition(1, reversePartition); err != nil {
		t.Fatalf("ReorderPartition under a live snapshot: %v", err)
	}
	if err := tb.ReorderStorage(reversePartition); err != nil {
		t.Fatalf("ReorderStorage under a live snapshot: %v", err)
	}
	for p := 0; p < 3; p++ {
		old := snap.View(p).MaterializeInt64(0)
		live := tb.ReadInt64Column(p, "v")
		for i := range old {
			if want := int64(20*p + i); old[i] != want {
				t.Fatalf("snapshot partition %d row %d = %d, want %d", p, i, old[i], want)
			}
			// Partition 1 was reversed twice, the others once.
			want := int64(20*p + 19 - i)
			if p == 1 {
				want = int64(20*p + i)
			}
			if live[i] != want {
				t.Fatalf("live partition %d row %d = %d, want %d", p, i, live[i], want)
			}
		}
	}
	snap.Close()
	if n := tb.Store().LiveSnapshotRefs(); n != 0 {
		t.Fatalf("%d live snapshot ref(s) after Close", n)
	}
}
