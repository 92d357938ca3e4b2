package engine

import (
	"bytes"
	"testing"

	"patchindex/internal/core"
	"patchindex/internal/exec"
	"patchindex/internal/storage"
)

// TestDatabaseRestartWithCheckpoints simulates the recovery story of
// Section 3.4: PatchIndexes are checkpointed, the "system" restarts
// (fresh Database over the same base data), the indexes are restored
// from their checkpoints, and queries + further updates behave exactly
// as before the restart.
func TestDatabaseRestartWithCheckpoints(t *testing.T) {
	vals := []int64{1, 2, 99, 3, 4, 98, 5, 6}
	db1 := NewDatabase()
	tb1 := singleColTable(t, db1, "t", vals, 2)
	if err := tb1.CreatePatchIndex("v", core.NearlySorted, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	// Run some updates so the checkpoint is not the freshly built state.
	if err := db1.Insert("t", []storage.Row{{storage.I64(7)}, {storage.I64(0)}}); err != nil {
		t.Fatal(err)
	}
	if err := db1.DeleteRowIDs("t", 0, []uint64{0}); err != nil {
		t.Fatal(err)
	}
	// Checkpoint every partition index.
	var checkpoints []bytes.Buffer
	for _, x := range tb1.PatchIndexes("v") {
		var buf bytes.Buffer
		if _, err := x.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		checkpoints = append(checkpoints, buf)
	}
	// Reference result before "shutdown".
	refOp, _ := sortQuery(db1, "t", "v", false, patchPlan)
	want, err := exec.CollectInt64(refOp)
	if err != nil {
		t.Fatal(err)
	}

	// "Restart": rebuild the database over the same base data (base
	// storage is durable; the in-memory indexes are restored from the
	// checkpoints instead of being recomputed).
	db2 := NewDatabase()
	tb2, _ := db2.CreateTable("t", storage.Schema{{Name: "v", Kind: storage.KindInt64}}, 2)
	for p := 0; p < 2; p++ {
		base := tb1.Store().Partition(p)
		for i := 0; i < base.NumRows(); i++ {
			tb2.Store().Partition(p).AppendRow(storage.Row{base.Column(0).Get(i)})
		}
	}
	tb2.Load(nil) // reset deltas to the restored base

	restored := make([]*core.Index, len(checkpoints))
	for p := range checkpoints {
		var x core.Index
		if _, err := x.ReadFrom(&checkpoints[p]); err != nil {
			t.Fatal(err)
		}
		restored[p] = &x
	}
	if err := tb2.RestorePatchIndexes("v", restored); err != nil {
		t.Fatal(err)
	}

	op, err := sortQuery(db2, "t", "v", false, patchPlan)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.CollectInt64(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("after restart: %d rows vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after restart: mismatch at %d", i)
		}
	}
	// The restored indexes must keep handling updates.
	if err := db2.Insert("t", []storage.Row{{storage.I64(100)}}); err != nil {
		t.Fatal(err)
	}
	for _, x := range tb2.PatchIndexes("v") {
		if err := x.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestorePatchIndexesValidation: a slot count other than the
// partition count, or an unknown column, returns an error and leaves
// the installed indexes as they were.
func TestRestorePatchIndexesValidation(t *testing.T) {
	db := NewDatabase()
	tb := nucTable(t, db, "t", []int64{1, 1, 2, 3}, 2)
	want := tb.PatchIndexes("v")
	for _, c := range []struct {
		column  string
		indexes []*core.Index
	}{
		{"v", []*core.Index{nil}},
		{"v", []*core.Index{nil, nil, nil}},
		{"v", nil},
		{"nope", want},
	} {
		if err := tb.RestorePatchIndexes(c.column, c.indexes); err == nil {
			t.Fatalf("column %q, %d slots: no error", c.column, len(c.indexes))
		}
	}
	got := tb.PatchIndexes("v")
	if len(got) != len(want) {
		t.Fatalf("%d slots installed after refused restores, want %d", len(got), len(want))
	}
	for p := range want {
		if got[p].Rows() != want[p].Rows() || got[p].NumPatches() != want[p].NumPatches() {
			t.Fatalf("slot %d changed by a refused restore", p)
		}
	}
	if tb.PatchIndexes("nope") != nil {
		t.Fatal("a refused restore installed indexes on an unknown column")
	}
}
