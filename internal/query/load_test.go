package query

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"patchindex/internal/core"
	"patchindex/internal/engine"
	"patchindex/internal/joinindex"
	"patchindex/internal/plan"
	"patchindex/internal/storage"
	"patchindex/internal/wal"
)

// loadedDB builds table t(k, u) over three partitions with a NSC
// PatchIndex on k and a NUC PatchIndex on u, then loads a second batch
// into the indexed table: appended k values break each partition's sort
// order and half the appended u values repeat values of other
// partitions. Table d(dk, dv) is the join dimension. WAL is on from
// before the second load, so dir holds a baseline checkpoint plus the
// load's rewrite images.
func loadedDB(t *testing.T, dir string) *engine.Database {
	t.Helper()
	db := engine.NewDatabase()
	tb, err := db.CreateTable("t", storage.Schema{
		{Name: "k", Kind: storage.KindInt64},
		{Name: "u", Kind: storage.KindInt64},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	var first []storage.Row
	for i := 0; i < 300; i++ {
		first = append(first, storage.Row{storage.I64(int64(i)), storage.I64(int64(i))})
	}
	if err := tb.Load(first); err != nil {
		t.Fatal(err)
	}
	if err := tb.CreatePatchIndex("k", core.NearlySorted, idxOpts()); err != nil {
		t.Fatal(err)
	}
	if err := tb.CreatePatchIndex("u", core.NearlyUnique, idxOpts()); err != nil {
		t.Fatal(err)
	}
	d, err := db.CreateTable("d", storage.Schema{
		{Name: "dk", Kind: storage.KindInt64},
		{Name: "dv", Kind: storage.KindInt64},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var dims []storage.Row
	for i := 0; i < 400; i += 2 {
		dims = append(dims, storage.Row{storage.I64(int64(i)), storage.I64(int64(i * 5))})
	}
	if err := d.Load(dims); err != nil {
		t.Fatal(err)
	}
	if err := db.EnableWAL(dir, wal.SyncNone); err != nil {
		t.Fatal(err)
	}
	db.AutoCheckpoint = false
	var second []storage.Row
	for i := 0; i < 90; i++ {
		u := int64(1000 + i)
		if i%2 == 0 {
			u = int64(i * 3 % 300)
		}
		second = append(second, storage.Row{storage.I64(int64(i * 37 % 400)), storage.I64(u)})
	}
	if err := tb.Load(second); err != nil {
		t.Fatal(err)
	}
	return db
}

// requireIndexesCoverLoad checks both PatchIndexes of t against the
// rows: every slot covers its whole partition, rows outside the NSC
// patches are sorted within their partition, and a u value outside the
// NUC patches occurs nowhere else in the table.
func requireIndexesCoverLoad(t *testing.T, label string, db *engine.Database) {
	t.Helper()
	snap, err := db.Snapshot("t")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	ts := snap.Table("t")
	occurs := map[int64]int{}
	for _, v := range ts.Views() {
		for _, u := range v.MaterializeInt64(1) {
			occurs[u]++
		}
	}
	for col, column := range []string{"k", "u"} {
		for p, in := range ts.Inputs(column) {
			vals := in.View.MaterializeInt64(col)
			if in.Index.Rows() != uint64(len(vals)) {
				t.Fatalf("%s: %s index of partition %d covers %d rows, the partition holds %d", label, column, p, in.Index.Rows(), len(vals))
			}
			last := int64(-1 << 63)
			for r, v := range vals {
				switch {
				case in.Index.IsPatch(uint64(r)):
				case column == "k" && v < last:
					t.Fatalf("%s: partition %d row %d: k=%d follows %d outside the patches", label, p, r, v, last)
				case column == "k":
					last = v
				case occurs[v] != 1:
					t.Fatalf("%s: partition %d row %d: u=%d occurs %d times but is no patch", label, p, r, v, occurs[v])
				}
			}
		}
	}
}

// requireModesAgree runs a sort, a distinct and a join over t in every
// forced mode (and Auto) and requires the reference plan's results, in
// the reference's order where the plan sorts.
func requireModesAgree(t *testing.T, label string, db *engine.Database) {
	t.Helper()
	ji := joinindex.Create(db.MustTable("t").Store(), 0, db.MustTable("d").Store(), 0)
	binding := JoinIndexBinding{FactTable: "t", FactKey: "k", DimTable: "d", DimKey: "dk", JI: ji}
	for _, q := range []struct {
		p             *Plan
		ordered, join bool
	}{
		{From("t", "k").OrderBy(Asc("k")), true, false},
		{From("t", "u").Distinct("u"), false, false},
		{From("t", "k", "u").Join(From("d", "dk", "dv"), "k", "dk").Project("k", "u", "dv"), false, true},
	} {
		ref, _ := mustRun(t, db, q.p, Options{Mode: ForceReference})
		modes := []Options{
			{Mode: ForcePatchIndex},
			{Mode: ForcePatchIndex, ZeroBranchPruning: true},
			{Mode: Auto},
		}
		if q.join {
			modes = append(modes, Options{Mode: ForceJoinIndex, JoinIndexes: []JoinIndexBinding{binding}})
		}
		for _, o := range modes {
			got, c := mustRun(t, db, q.p, o)
			if o.Mode == ForcePatchIndex && (len(c.Decisions) != 1 || c.Decisions[0].Access != plan.AccessPatchIndex) {
				t.Fatalf("%s: %s under %+v took %+v", label, q.p.Fingerprint(), o, c.Decisions)
			}
			same := rowsKey(got) == rowsKey(ref)
			if q.ordered {
				same = fmt.Sprint(got) == fmt.Sprint(ref)
			}
			if !same {
				t.Fatalf("%s: %s under %+v differs from the reference plan", label, q.p.Fingerprint(), o)
			}
		}
	}
}

// copyDir copies the WAL directory src to a fresh dst, so that a
// recovery does not share files with the database that wrote them.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "copy")
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestLoadIntoIndexedTable loads rows into a table that already has
// PatchIndexes: Load must re-derive every slot from the loaded rows, so
// the constraints hold outside the patches and every plan agrees with
// the reference, live, after replaying the load's rewrite images, and
// after a checkpoint round trip.
func TestLoadIntoIndexedTable(t *testing.T) {
	dir := t.TempDir()
	db := loadedDB(t, dir)
	requireIndexesCoverLoad(t, "live", db)
	requireModesAgree(t, "live", db)

	replayed := engine.NewDatabase()
	stats, err := replayed.Recover(copyDir(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applied == 0 {
		t.Fatal("recovery replayed no rewrite image of the load")
	}
	requireIndexesCoverLoad(t, "replayed", replayed)
	requireModesAgree(t, "replayed", replayed)

	if err := db.CheckpointToDisk(dir); err != nil {
		t.Fatal(err)
	}
	restored := engine.NewDatabase()
	if stats, err = restored.Recover(copyDir(t, dir)); err != nil {
		t.Fatal(err)
	}
	if stats.Applied != 0 {
		t.Fatalf("%d records replayed on top of the checkpoint, want 0", stats.Applied)
	}
	requireIndexesCoverLoad(t, "checkpoint", restored)
	requireModesAgree(t, "checkpoint", restored)
}

// TestCheckpointRejectsStaleIndexSlot restores a PatchIndex slot that
// covers fewer rows than its partition holds and checkpoints it:
// recovery must refuse the file with an *engine.IndexRowsError.
func TestCheckpointRejectsStaleIndexSlot(t *testing.T) {
	dir := t.TempDir()
	db := loadedDB(t, dir)
	tb := db.MustTable("t")
	stale := tb.PatchIndexes("k")
	stale[1] = core.BuildNSC(make([]int64, stale[1].Rows()-1), idxOpts())
	if err := tb.RestorePatchIndexes("k", stale); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckpointToDisk(dir); err != nil {
		t.Fatal(err)
	}
	_, err := engine.NewDatabase().Recover(copyDir(t, dir))
	var rowsErr *engine.IndexRowsError
	if !errors.As(err, &rowsErr) {
		t.Fatalf("Recover: %v, want an *engine.IndexRowsError", err)
	}
	if rowsErr.Column != "k" || rowsErr.Partition != 1 || rowsErr.IndexRows+1 != rowsErr.PartRows {
		t.Fatalf("Recover: %+v, want column k, partition 1, one row short", rowsErr)
	}
}
