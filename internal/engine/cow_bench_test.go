package engine

import (
	"fmt"
	"testing"

	"patchindex/internal/core"
	"patchindex/internal/exec"
	"patchindex/internal/storage"
)

// BenchmarkUpdateUnderSnapshot measures the copy-on-write cost an update
// pays while a freshly captured snapshot references the table's
// PatchIndex. Every iteration captures a snapshot (marking all bitmap
// shards shared) and then inserts one always-a-patch row, which sets one
// patch bit and therefore copies exactly one shared shard.
//
// With shard-granularity COW the per-op time stays flat as the table
// (and hence the patch bitmap) grows: the update pays O(shards touched),
// one shard here. The cow=fullclone variant reproduces the pre-existing
// behavior — cloning the whole bitmap per update under snapshot — whose
// per-op time grows linearly with the bitmap size. Comparing the two
// demonstrates the sub-linear claim:
//
//	rows=65536    cow=shard ~flat   cow=fullclone ~1x
//	rows=1048576  cow=shard ~flat   cow=fullclone ~16x
//
// BenchmarkDeleteCheckpointUnderQueryStream measures what a delete
// checkpoint costs in a steady query+delete workload. Each iteration
// runs one full query (drained, so its ephemeral snapshot releases its
// generation refs) and then times a single-row delete whose checkpoint
// compacts base storage.
//
// With the snapshot registry the checkpoint mutates the partition in
// place — no live snapshot references its current generation — so the
// timed op stays flat in the table size. The cow=stickyclone variant
// reproduces the old sticky per-partition shared flag, which stayed set
// forever once any query had run, by holding an open snapshot across
// the delete: every checkpoint then clones the whole partition, and the
// per-op time grows linearly with the table.
//
//	rows=65536    cow=registry ~flat   cow=stickyclone ~1x
//	rows=1048576  cow=registry ~flat   cow=stickyclone ~16x
func BenchmarkDeleteCheckpointUnderQueryStream(b *testing.B) {
	for _, rows := range []int{1 << 16, 1 << 18, 1 << 20} {
		for _, mode := range []string{"registry", "stickyclone"} {
			b.Run(fmt.Sprintf("rows=%d/cow=%s", rows, mode), func(b *testing.B) {
				db := NewDatabase()
				tb, err := db.CreateTable("t", storage.Schema{{Name: "v", Kind: storage.KindInt64}}, 1)
				if err != nil {
					b.Fatal(err)
				}
				vals := make([]int64, rows)
				for i := range vals {
					vals[i] = int64(i)
				}
				LoadColumnInt64(tb, vals)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					// The query stream: one drained query per delete. Its
					// snapshot is captured, used, and auto-released.
					op, err := distinctQuery(db, "t", "v", refPlan)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := exec.CollectInt64(op); err != nil {
						b.Fatal(err)
					}
					var snap *TableSnapshot
					if mode == "stickyclone" {
						// Emulate the old sticky mark: a snapshot still
						// references the current generation when the
						// delete checkpoint runs, forcing a whole-
						// partition clone every iteration.
						snap = tb.Snapshot()
					}
					// Keep the table size steady: append one row, delete one.
					if err := db.Insert("t", []storage.Row{{storage.I64(int64(rows + i))}}); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if err := db.DeleteRowIDs("t", 0, []uint64{uint64(rows)}); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					if snap != nil {
						snap.Close()
					}
					b.StartTimer()
				}
			})
		}
	}
}

func BenchmarkUpdateUnderSnapshot(b *testing.B) {
	for _, rows := range []int{1 << 16, 1 << 18, 1 << 20} {
		for _, mode := range []string{"shard", "fullclone"} {
			b.Run(fmt.Sprintf("rows=%d/cow=%s", rows, mode), func(b *testing.B) {
				db := NewDatabase()
				tb, err := db.CreateTable("t", storage.Schema{{Name: "v", Kind: storage.KindInt64}}, 1)
				if err != nil {
					b.Fatal(err)
				}
				vals := make([]int64, rows)
				for i := range vals {
					vals[i] = int64(i)
				}
				LoadColumnInt64(tb, vals)
				// Default shard size (2^14): 1<<20 rows span 64 shards.
				if err := tb.CreatePatchIndex("v", core.NearlySorted, core.Options{Design: core.DesignBitmap}); err != nil {
					b.Fatal(err)
				}
				row := []storage.Row{{storage.I64(-1)}} // below the sorted tail -> always a patch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					snap := tb.Snapshot()
					if mode == "fullclone" {
						// The old COW: clone every per-partition index
						// (whole bitmap) before mutating, as
						// mutableIndexesLocked did before shard sharing.
						for _, x := range tb.PatchIndexes("v") {
							_ = x.Clone()
						}
					}
					if err := db.Insert("t", row); err != nil {
						b.Fatal(err)
					}
					snap.Close()
				}
			})
		}
	}
}
