package storage

import "testing"

func registryTable(parts int) *Table {
	schema := Schema{{Name: "v", Kind: KindInt64}}
	t := NewTable("t", schema, parts)
	rows := make([]Row, 4*parts)
	for i := range rows {
		rows[i] = Row{I64(int64(i))}
	}
	t.LoadRows(rows)
	return t
}

// TestRegistryRetainRelease: a retained ref marks exactly the captured
// generations shared and counts as one live snapshot; releasing drops
// both, and Release is idempotent (refcounts released exactly once).
func TestRegistryRetainRelease(t *testing.T) {
	tb := registryTable(2)
	if tb.PartitionRetained(0) || tb.LiveSnapshotRefs() != 0 {
		t.Fatal("fresh table should have no shared generations or live refs")
	}
	r1 := tb.Retain()
	r2 := tb.Retain()
	if !tb.PartitionRetained(0) || !tb.PartitionRetained(1) {
		t.Fatal("retained generations not reported shared")
	}
	if got := tb.LiveSnapshotRefs(); got != 2 {
		t.Fatalf("LiveSnapshotRefs = %d, want 2", got)
	}
	r1.Release()
	r1.Release() //pilint:ignore closeowner deliberate double release: must not drop r2's refcount
	if !tb.PartitionRetained(0) {
		t.Fatal("double release dropped another ref's refcount")
	}
	if got := tb.LiveSnapshotRefs(); got != 1 {
		t.Fatalf("LiveSnapshotRefs after double release = %d, want 1", got)
	}
	r2.Release()
	if tb.PartitionRetained(0) || tb.LiveSnapshotRefs() != 0 {
		t.Fatal("released table still reports shared generations or live refs")
	}
	var nilRef *TableRef
	nilRef.Release() // safe no-op
}

// TestRegistrySetPartitionBumpsGeneration: publishing a replacement
// partition starts a fresh, unreferenced generation — refs held on the
// old generation no longer mark the slot shared, so the next
// delete/modify of the new arrays may run in place.
func TestRegistrySetPartitionBumpsGeneration(t *testing.T) {
	tb := registryTable(2)
	ref := tb.Retain()
	g0 := tb.Generation(0)
	tb.SetPartition(0, tb.Partition(0).Clone())
	if tb.Generation(0) != g0+1 {
		t.Fatalf("Generation(0) = %d after SetPartition, want %d", tb.Generation(0), g0+1)
	}
	if tb.PartitionRetained(0) {
		t.Fatal("fresh generation inherited the old generation's refs")
	}
	if !tb.PartitionRetained(1) {
		t.Fatal("untouched partition lost its ref")
	}
	if tb.LiveSnapshotRefs() != 1 {
		t.Fatal("SetPartition changed the live snapshot count")
	}
	ref.Release()
}

// TestDeleteRowsRejectsDuplicates: DeleteRows validates *strictly*
// ascending positions. DeletePositions compacts by walking the sorted
// list once, so a duplicate position would silently drop the wrong
// trailing rows — the guard must reject it like an unsorted list.
func TestDeleteRowsRejectsDuplicates(t *testing.T) {
	mustPanic := func(name string, positions []uint64) {
		t.Helper()
		p := NewPartition(Schema{{Name: "v", Kind: KindInt64}})
		for i := int64(0); i < 6; i++ {
			p.AppendRow(Row{I64(i)})
		}
		defer func() {
			if recover() == nil {
				t.Errorf("%s: DeleteRows(%v) did not panic", name, positions)
			}
		}()
		p.DeleteRows(positions)
	}
	mustPanic("duplicate", []uint64{1, 1})
	mustPanic("duplicate-run", []uint64{0, 2, 2, 4})
	mustPanic("unsorted", []uint64{3, 1})

	// The strict guard must not reject a valid delete.
	p := NewPartition(Schema{{Name: "v", Kind: KindInt64}})
	for i := int64(0); i < 6; i++ {
		p.AppendRow(Row{I64(i)})
	}
	p.DeleteRows([]uint64{1, 3, 5})
	if got := p.NumRows(); got != 3 {
		t.Fatalf("rows after delete = %d, want 3", got)
	}
	for i, want := range []int64{0, 2, 4} {
		if got := p.Column(0).Int64At(i); got != want {
			t.Fatalf("row %d = %d, want %d", i, got, want)
		}
	}
}

// TestRegistryRetainPartitions: a partition-scoped ref counts only the
// named partition's generation as shared/retained, while still counting
// as one live snapshot of the table.
func TestRegistryRetainPartitions(t *testing.T) {
	tb := registryTable(3)
	ref := tb.RetainPartitions(1)
	if tb.PartitionRetained(0) || tb.PartitionRetained(2) {
		t.Fatal("partition-scoped ref marked a sibling generation retained")
	}
	if !tb.PartitionRetained(1) {
		t.Fatal("partition-scoped ref did not mark its own generation")
	}
	if got := tb.LiveSnapshotRefs(); got != 1 {
		t.Fatalf("LiveSnapshotRefs = %d, want 1", got)
	}
	ref.Release()
	ref.Release() //pilint:ignore closeowner deliberate double release: the test asserts Release is idempotent
	if tb.PartitionRetained(1) || tb.LiveSnapshotRefs() != 0 {
		t.Fatal("release did not drop the partition-scoped ref")
	}
}
