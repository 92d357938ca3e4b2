package engine

import (
	"testing"

	"patchindex/internal/core"
)

// TestSortednessRatio: a partition's sortedness is the fraction of its
// rows inside a longest sorted subsequence, and it needs a NSC index.
func TestSortednessRatio(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", []int64{1, 2, 99, 3, 4, 98, 5, 6, 7, 8}, 1)
	if _, err := tb.PartitionSortedness("v", 0); err == nil {
		t.Fatal("sortedness without index did not error")
	}
	if err := tb.CreatePatchIndex("v", core.NearlySorted, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	r, err := tb.PartitionSortedness("v", 0)
	if err != nil {
		t.Fatal(err)
	}
	if r != 0.8 {
		t.Fatalf("PartitionSortedness = %f, want 0.8", r)
	}
}
