package engine

import (
	"sort"
	"testing"
	"time"

	"patchindex/internal/core"
	"patchindex/internal/storage"
)

// manualMaintainer returns a maintainer in manual-Sweep mode (no
// goroutine) with the given thresholds, failing the test on error.
func manualMaintainer(t *testing.T, db *Database, cfg MaintainerConfig) *Maintainer {
	t.Helper()
	cfg.Interval = 0
	m, err := db.StartMaintainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// erodePartition overwrites every other row of partition p of the
// single-column table with random-looking values, wrecking both the
// physical sortedness and the NSC index's exception rate.
func erodePartition(t *testing.T, db *Database, tb *Table, p int) {
	t.Helper()
	n := len(tb.ReadInt64Column(p, "v"))
	var pos []uint64
	var vals []storage.Value
	for r := 0; r < n; r += 2 {
		pos = append(pos, uint64(r))
		vals = append(vals, storage.I64(int64((r*2654435761)%1000+2000)))
	}
	if err := db.Modify(tb.Name(), p, pos, "v", vals); err != nil {
		t.Fatal(err)
	}
}

// testReorderer re-sorts one partition of a single-column table through
// ReorderPartition — the sortkey.SortKey stand-in (the engine's tests
// cannot import sortkey; it imports the engine).
type testReorderer struct {
	tb  *Table
	col int
}

func (r *testReorderer) RebuildPartitionChecked(p int) error {
	return r.tb.ReorderPartition(p, func(st *storage.Table) error {
		vals := st.Partition(p).Column(r.col).Int64s()
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		return nil
	})
}

func TestMaintainerLifecycle(t *testing.T) {
	db := newDB(t)
	singleColTable(t, db, "t", seq(64), 2)
	cfg := DefaultMaintainerConfig()
	cfg.Interval = time.Millisecond
	m, err := db.StartMaintainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if db.Maintainer() != m {
		t.Fatal("Maintainer() does not return the running daemon")
	}
	if _, err := db.StartMaintainer(cfg); err == nil {
		t.Fatal("second StartMaintainer did not fail")
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().Sweeps == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if m.Stats().Sweeps == 0 {
		t.Fatal("background daemon never swept")
	}
	db.Close()
	m.Stop() // idempotent
	after := m.Stats().Sweeps
	time.Sleep(5 * time.Millisecond)
	if got := m.Stats().Sweeps; got != after {
		t.Fatalf("daemon swept after Close: %d -> %d", after, got)
	}
}

// TestMaintainerRecomputesErodedNSC: with no reorderer registered, an
// eroded NSC slot is recomputed in place; rediscovery never yields a
// worse exception rate than the incrementally maintained slot.
func TestMaintainerRecomputesErodedNSC(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", seq(256), 4)
	if err := tb.CreatePatchIndex("v", core.NearlySorted, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	erodePartition(t, db, tb, 1)
	before := tb.ExceptionRate("v")
	if before < 0.05 {
		t.Fatalf("erosion too weak to trigger the daemon: rate %f", before)
	}
	m := manualMaintainer(t, db, MaintainerConfig{MaxExceptionRate: 0.05, MinSortedness: 0.99})
	m.Sweep()
	st := m.Stats()
	if st.Recomputes == 0 {
		t.Fatalf("no recompute ran: %+v", st)
	}
	if st.Reorders != 0 {
		t.Fatalf("reorder ran without a registered reorderer: %+v", st)
	}
	if after := tb.ExceptionRate("v"); after > before {
		t.Fatalf("recompute worsened the exception rate: %f -> %f", before, after)
	}
	for _, x := range tb.PatchIndexes("v") {
		if err := x.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMaintainerReordersDisorderedNSC: with a reorderer registered and
// physical sortedness below the threshold, the daemon re-sorts the
// partition — and the re-anchored slot comes out patch-free.
func TestMaintainerReordersDisorderedNSC(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", seq(256), 4)
	if err := tb.CreatePatchIndex("v", core.NearlySorted, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	erodePartition(t, db, tb, 2)
	m := manualMaintainer(t, db, MaintainerConfig{MaxExceptionRate: 0.05, MinSortedness: 0.95})
	m.RegisterReorderer("t", "v", &testReorderer{tb: tb, col: 0})
	m.Sweep()
	st := m.Stats()
	if st.Reorders == 0 {
		t.Fatalf("no reorder ran: %+v", st)
	}
	if rate := tb.ExceptionRate("v"); rate != 0 {
		t.Fatalf("re-sorted table still has exception rate %f", rate)
	}
	if sorted, err := tb.PartitionSortedness("v", 2); err != nil || sorted != 1 {
		t.Fatalf("partition 2 sortedness after reorder = %f (%v), want 1", sorted, err)
	}
}

// TestMaintainerRetriesSnapshotRefusals: a live snapshot makes the
// reorder refuse; the daemon retries with backoff, gives up without
// blocking anything, and succeeds on the next sweep once the snapshot
// closed.
func TestMaintainerRetriesSnapshotRefusals(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", seq(256), 4)
	if err := tb.CreatePatchIndex("v", core.NearlySorted, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	erodePartition(t, db, tb, 0)
	m := manualMaintainer(t, db, MaintainerConfig{
		MaxExceptionRate: 0.05,
		MinSortedness:    0.95,
		MaxRetries:       2,
		RetryBackoff:     100 * time.Microsecond,
	})
	m.RegisterReorderer("t", "v", &testReorderer{tb: tb, col: 0})

	snap, err := db.SnapshotTable("t")
	if err != nil {
		t.Fatal(err)
	}
	m.Sweep()
	st := m.Stats()
	if st.Reorders != 0 {
		t.Fatalf("reorder ran under a live snapshot: %+v", st)
	}
	if st.Refusals == 0 || st.Retries == 0 {
		t.Fatalf("refusal/retry counters did not move: %+v", st)
	}

	snap.Close()
	m.Sweep()
	if st := m.Stats(); st.Reorders == 0 {
		t.Fatalf("no reorder after the snapshot closed: %+v", st)
	}
}

// TestMaintainerCondensesSparseBitmaps: deleting most patched rows
// leaves the patch bitmap sparse; the utilization threshold triggers a
// condense.
func TestMaintainerCondensesSparseBitmaps(t *testing.T) {
	db := newDB(t)
	vals := make([]int64, 512)
	for i := range vals {
		vals[i] = int64(i % 64) // heavily duplicated: every row is a patch
	}
	tb := singleColTable(t, db, "t", vals, 2)
	if err := tb.CreatePatchIndex("v", core.NearlyUnique, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		n := len(tb.ReadInt64Column(p, "v"))
		var pos []uint64
		for r := 0; r < n-8; r++ {
			pos = append(pos, uint64(r))
		}
		if err := db.DeleteRowIDs("t", p, pos); err != nil {
			t.Fatal(err)
		}
	}
	m := manualMaintainer(t, db, MaintainerConfig{MinUtilization: 0.999})
	m.Sweep()
	if st := m.Stats(); st.Condenses == 0 {
		t.Fatalf("no condense ran: %+v", st)
	}
	for _, x := range tb.PatchIndexes("v") {
		if err := x.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMaintainerRebuildsSaturatedBlooms: the collision directory is
// exact, so a long insert stream leaves nothing in it to saturate or
// rebuild: a sweep takes no action, and afterwards the directory still
// proves a fresh value collision-free and finds a streamed value in the
// partition it went to.
func TestMaintainerRebuildsSaturatedBlooms(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", seq(8), 2)
	if err := tb.CreatePatchIndex("v", core.NearlyUnique, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	rows := make([]storage.Row, 1300)
	for i := range rows {
		rows[i] = storage.Row{storage.I64(int64(10_000 + i))}
	}
	if err := db.InsertRowsPartition("t", 0, rows); err != nil {
		t.Fatal(err)
	}
	m := manualMaintainer(t, db, MaintainerConfig{})
	m.Sweep()
	if st := m.Stats(); st.Actions != 0 {
		t.Fatalf("the sweep repaired something after an insert stream: %+v", st)
	}
	for _, v := range []int64{10_000, 10_650, 11_299} {
		if c0, c1 := nucLocalCount(tb, 0, storage.I64(v)), nucLocalCount(tb, 1, storage.I64(v)); c0 != 1 || c1 != 0 {
			t.Fatalf("directory counts of %d = %d/%d, want 1/0", v, c0, c1)
		}
	}
	if err := db.InsertRowsPartition("t", 1, i64Rows(20_000)); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRowsPartition("t", 1, i64Rows(10_650)); err != nil {
		t.Fatal(err)
	}
	if fast, fallback := tb.InsertStats(); fast != 2 || fallback != 1 {
		t.Fatalf("stats: fast=%d fallback=%d, want 2/1 (only the collision widens)", fast, fallback)
	}
	assertPatchAt(t, tb, "v", 0, 4+650, true)
	assertPatchAt(t, tb, "v", 1, 5, true)
	assertPatchAt(t, tb, "v", 1, 4, false)
}

// TestReorderPartitionReanchorsMetadata exercises the reorder protocol
// directly: pending deltas are checkpointed before the permutation, and
// both constraint kinds' index slots are recomputed against the new
// physical order.
func TestReorderPartitionReanchorsMetadata(t *testing.T) {
	db := newDB(t)
	db.AutoCheckpoint = false
	tb := singleColTable(t, db, "t", seq(64), 2)
	if err := tb.CreatePatchIndex("v", core.NearlySorted, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	// Pending, un-checkpointed work: a deletion plus out-of-order inserts.
	if err := db.DeleteRowIDs("t", 0, []uint64{3, 5}); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRowsPartition("t", 0, []storage.Row{{storage.I64(int64(-10))}, {storage.I64(int64(-20))}}); err != nil {
		t.Fatal(err)
	}
	want := sortedCopy(tb.ReadInt64Column(0, "v"))
	err := tb.ReorderPartition(0, func(st *storage.Table) error {
		vals := st.Partition(0).Column(0).Int64s()
		if len(vals) != len(want) {
			t.Errorf("reorder saw %d base rows, want %d (delta not checkpointed first)", len(vals), len(want))
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := tb.ReadInt64Column(0, "v")
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d = %d, want %d", i, got[i], want[i])
		}
	}
	idx := tb.PatchIndexes("v")
	if np := idx[0].NumPatches(); np != 0 {
		t.Fatalf("re-sorted partition still has %d NSC patches", np)
	}
	if err := idx[0].Validate(); err != nil {
		t.Fatal(err)
	}
}
