package engine

import (
	"testing"

	"patchindex/internal/core"
	"patchindex/internal/storage"
)

func TestApproxDistinctBounds(t *testing.T) {
	db := newDB(t)
	// 10 rows: values 0..7 with 0 and 1 duplicated => 8 distinct,
	// 4 patches, 6 non-patches.
	tb := singleColTable(t, db, "t", []int64{0, 0, 1, 1, 2, 3, 4, 5, 6, 7}, 2)
	if _, _, err := tb.ApproxDistinctBounds("v"); err == nil {
		t.Fatal("bounds without index did not error")
	}
	if err := tb.CreatePatchIndex("v", core.NearlyUnique, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	lo, hi, err := tb.ApproxDistinctBounds("v")
	if err != nil {
		t.Fatal(err)
	}
	// True distinct count is 8; bounds must bracket it.
	if lo > 8 || hi < 8 {
		t.Fatalf("bounds [%d,%d] do not bracket 8", lo, hi)
	}
	if lo != 7 || hi != 10 {
		t.Fatalf("bounds [%d,%d], want [7,10]", lo, hi)
	}
	// Bounds stay valid under updates.
	if err := db.Insert("t", []storage.Row{{storage.I64(100)}, {storage.I64(0)}}); err != nil {
		t.Fatal(err)
	}
	lo, hi, _ = tb.ApproxDistinctBounds("v")
	op, _ := db.Distinct("t", "v", QueryOptions{Mode: PlanReference})
	got, _ := CollectInt64(op)
	if uint64(len(got)) < lo || uint64(len(got)) > hi {
		t.Fatalf("true distinct %d outside bounds [%d,%d]", len(got), lo, hi)
	}
}

func TestApproxDistinctBoundsWrongConstraint(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", []int64{1, 2, 3}, 1)
	if err := tb.CreatePatchIndex("v", core.NearlySorted, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tb.ApproxDistinctBounds("v"); err == nil {
		t.Fatal("NUC bounds on NSC index did not error")
	}
	if _, err := tb.SortednessRatio("v"); err != nil {
		t.Fatal(err)
	}
}

func TestSortednessRatio(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", []int64{1, 2, 99, 3, 4, 98, 5, 6, 7, 8}, 1)
	if err := tb.CreatePatchIndex("v", core.NearlySorted, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	r, err := tb.SortednessRatio("v")
	if err != nil {
		t.Fatal(err)
	}
	if r != 0.8 {
		t.Fatalf("SortednessRatio = %f, want 0.8", r)
	}
	db2 := newDB(t)
	tb2 := singleColTable(t, db2, "t", []int64{1, 2, 3}, 1)
	if _, err := tb2.SortednessRatio("v"); err == nil {
		t.Fatal("ratio without index did not error")
	}
}

func TestBloomFilterSkipsCollisionJoins(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", seqVals(5000), 2)
	if err := tb.CreatePatchIndex("v", core.NearlyUnique, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	if err := tb.EnableBloomFilter("v", 0.01); err != nil {
		t.Fatal(err)
	}
	// Fresh values far outside the existing domain: joins skipped.
	for i := 0; i < 5; i++ {
		rows := []storage.Row{{storage.I64(int64(1_000_000 + i*2))}, {storage.I64(int64(1_000_001 + i*2))}}
		if err := db.Insert("t", rows); err != nil {
			t.Fatal(err)
		}
	}
	if skips := tb.BloomSkips("v"); skips != 5 {
		t.Fatalf("BloomSkips = %d, want 5", skips)
	}
	// A real collision must still be caught (no false negatives).
	if err := db.Insert("t", []storage.Row{{storage.I64(42)}}); err != nil {
		t.Fatal(err)
	}
	x0 := tb.PatchIndexes("v")
	var patchCount uint64
	for _, x := range x0 {
		patchCount += x.NumPatches()
	}
	if patchCount != 2 {
		t.Fatalf("patches after colliding insert = %d, want 2 (both 42s)", patchCount)
	}
	// Results stay correct.
	op, _ := db.Distinct("t", "v", QueryOptions{Mode: PlanPatchIndex})
	ref, _ := db.Distinct("t", "v", QueryOptions{Mode: PlanReference})
	n1, _ := CollectInt64(op)
	n2, _ := CollectInt64(ref)
	if len(n1) != len(n2) {
		t.Fatalf("plans disagree with bloom filters: %d vs %d", len(n1), len(n2))
	}
}

func TestBloomFilterCatchesDuplicateWithinBatch(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", seqVals(100), 1)
	if err := tb.CreatePatchIndex("v", core.NearlyUnique, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	if err := tb.EnableBloomFilter("v", 0.01); err != nil {
		t.Fatal(err)
	}
	// Two equal fresh values: the filter must NOT skip (duplicate within
	// the change set).
	if err := db.Insert("t", []storage.Row{{storage.I64(7777)}, {storage.I64(7777)}}); err != nil {
		t.Fatal(err)
	}
	if tb.BloomSkips("v") != 0 {
		t.Fatal("skip happened despite in-batch duplicate")
	}
	x := tb.PatchIndexes("v")[0]
	if x.NumPatches() != 2 {
		t.Fatalf("patches = %d, want 2", x.NumPatches())
	}
}

func TestBloomFilterModifyPath(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", seqVals(100), 1)
	if err := tb.CreatePatchIndex("v", core.NearlyUnique, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	if err := tb.EnableBloomFilter("v", 0.01); err != nil {
		t.Fatal(err)
	}
	// Modify classifies exactly from the collision state: it neither
	// consults the opt-in filters nor counts a skip...
	if err := db.Modify("t", 0, []uint64{5}, "v", []storage.Value{storage.I64(99999)}); err != nil {
		t.Fatal(err)
	}
	if tb.BloomSkips("v") != 0 {
		t.Fatalf("BloomSkips = %d after a Modify, want 0", tb.BloomSkips("v"))
	}
	// ...but it teaches them the new value, so an Insert of that value
	// must not skip its collision join.
	if err := db.Insert("t", []storage.Row{{storage.I64(99999)}}); err != nil {
		t.Fatal(err)
	}
	if tb.BloomSkips("v") != 0 {
		t.Fatal("Insert of a modified-in value skipped the collision join")
	}
	x := tb.PatchIndexes("v")[0]
	if !x.IsPatch(5) || !x.IsPatch(100) {
		t.Fatalf("collision with a modified-in value not detected: %v", x.Patches())
	}
	// Modify to an existing value: collision detected.
	if err := db.Modify("t", 0, []uint64{6}, "v", []storage.Value{storage.I64(10)}); err != nil {
		t.Fatal(err)
	}
	x = tb.PatchIndexes("v")[0]
	if !x.IsPatch(6) || !x.IsPatch(10) {
		t.Fatalf("collision after modify not detected: %v", x.Patches())
	}
	if err := db.Insert("t", []storage.Row{{storage.I64(123456)}}); err != nil {
		t.Fatal(err)
	}
	if tb.BloomSkips("v") != 1 {
		t.Fatalf("BloomSkips = %d after a fresh Insert, want 1", tb.BloomSkips("v"))
	}
	tb.DisableBloomFilter("v")
	if err := db.Insert("t", []storage.Row{{storage.I64(123457)}}); err != nil {
		t.Fatal(err)
	}
	if tb.BloomSkips("v") != 1 {
		t.Fatal("skip counted after DisableBloomFilter")
	}
}

func TestEnableBloomFilterValidation(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", []int64{1, 2}, 1)
	if err := tb.EnableBloomFilter("v", 0.01); err == nil {
		t.Fatal("bloom without NUC index accepted")
	}
	if err := tb.CreatePatchIndex("v", core.NearlySorted, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	if err := tb.EnableBloomFilter("v", 0.01); err == nil {
		t.Fatal("bloom on NSC index accepted")
	}
}
