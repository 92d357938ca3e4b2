package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"patchindex/internal/core"
	"patchindex/internal/storage"
	"patchindex/internal/wal"
)

// typedSchema has one column of each kind.
func typedSchema() storage.Schema {
	return storage.Schema{
		{Name: "i", Kind: storage.KindInt64},
		{Name: "f", Kind: storage.KindFloat64},
		{Name: "s", Kind: storage.KindString},
	}
}

// oddFloats are bit patterns a DOUBLE column must carry through a
// checkpoint and a rewrite image unchanged: quiet and signalling NaNs
// with payloads and either sign, and negative zero.
var oddFloats = []uint64{
	0x7ff8000000000001,
	0xfff8000000000000,
	0x7ff0000000000001,
	0xfff4000000000abc,
	0x8000000000000000,
}

// typedRow draws one row with key k: a float that is often an odd bit
// pattern, and a string from a small vocabulary that includes "" (so
// the NUC index on s has duplicates to patch).
func typedRow(rng *rand.Rand, k int64) storage.Row {
	f := rng.NormFloat64()
	if rng.Intn(3) == 0 {
		f = math.Float64frombits(oddFloats[rng.Intn(len(oddFloats))])
	}
	s := ""
	if rng.Intn(4) != 0 {
		s = fmt.Sprintf("v%d", rng.Intn(60))
	}
	return storage.Row{storage.I64(k), storage.F64(f), storage.Str(s)}
}

func typedRows(rng *rand.Rand, k *int64, n int) []storage.Row {
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = typedRow(rng, *k)
		*k++
	}
	return rows
}

// reversePartition is a ReorderPartition permutation: it reverses
// partition p's row order.
func reversePartition(p int) func(*storage.Table) error {
	return func(st *storage.Table) error {
		part := st.Partition(p)
		for c := range part.Schema() {
			col := part.Column(c)
			for i, j := 0, part.NumRows()-1; i < j; i, j = i+1, j-1 {
				vi, vj := col.Get(i), col.Get(j)
				col.Set(i, vj)
				col.Set(j, vi)
			}
		}
		return nil
	}
}

// pendingTypedOps leaves inserts, deletes and modifies of every column
// kind pending in partitions 0 and 1 (the caller has turned
// AutoCheckpoint off), including odd float bit patterns and empty
// strings written by Modify.
func pendingTypedOps(t testing.TB, db *Database, rng *rand.Rand, k *int64) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.InsertRowsPartition("t", 0, typedRows(rng, k, 5)))
	must(db.InsertRowsPartition("t", 1, typedRows(rng, k, 3)))
	must(db.DeleteRowIDs("t", 1, []uint64{0, 2, 5}))
	must(db.Modify("t", 0, []uint64{1, 3}, "f", []storage.Value{
		storage.F64(math.Float64frombits(oddFloats[0])), storage.F64(math.Copysign(0, -1))}))
	must(db.Modify("t", 0, []uint64{2}, "s", []storage.Value{storage.Str("")}))
	must(db.Modify("t", 1, []uint64{1}, "i", []storage.Value{storage.I64(-7)}))
}

// buildCkptFixture builds in db, deterministically, the checkpointed
// half of testdata/ckpt_v1: table t (BIGINT i with an NSC index, DOUBLE
// f, STRING s with an NUC index) over three partitions, the last one
// empty, with WAL logging at dir. Pending inserts, deletes and modifies
// are folded into the checkpoint.
func buildCkptFixture(t testing.TB, db *Database, dir string) {
	t.Helper()
	rng := rand.New(rand.NewSource(35))
	if _, err := db.CreateTable("t", typedSchema(), 3); err != nil {
		t.Fatal(err)
	}
	var k int64
	for p := 0; p < 2; p++ {
		if err := db.InsertRowsPartition("t", p, typedRows(rng, &k, 12)); err != nil {
			t.Fatal(err)
		}
	}
	tb := db.MustTable("t")
	if err := tb.CreatePatchIndex("i", core.NearlySorted, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	if err := tb.CreatePatchIndex("s", core.NearlyUnique, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	if err := db.EnableWAL(dir, wal.SyncNone); err != nil {
		t.Fatal(err)
	}
	db.AutoCheckpoint = false
	pendingTypedOps(t, db, rng, &k)
	if err := db.CheckpointToDisk(dir); err != nil {
		t.Fatal(err)
	}
}

// logCkptFixtureTail logs the rest of testdata/ckpt_v1 above its
// checkpoint: a partition rewrite image, an insert chunk and a modify.
// (It is kept apart from buildCkptFixture so that neither helper's lock
// summary outgrows pilint's per-function event bound.)
func logCkptFixtureTail(t testing.TB, db *Database) {
	t.Helper()
	rng := rand.New(rand.NewSource(36))
	k := int64(1000)
	if err := db.MustTable("t").ReorderPartition(0, reversePartition(0)); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRowsPartition("t", 1, typedRows(rng, &k, 4)); err != nil {
		t.Fatal(err)
	}
	if err := db.Modify("t", 0, []uint64{0}, "f", []storage.Value{storage.F64(math.Float64frombits(oddFloats[2]))}); err != nil {
		t.Fatal(err)
	}
}
