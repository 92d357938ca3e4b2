package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"time"

	"patchindex/internal/core"
	"patchindex/internal/datagen"
	"patchindex/internal/engine"
	"patchindex/internal/storage"
	"patchindex/internal/wal"
)

// RunRecover measures the two costs of the durability path (Section
// 3.4: checkpoint plus logging of subsequent update operations): the
// write-path overhead of logging every insert before it publishes, and
// the crash-recovery replay time.
//
// Part one inserts the scale's row count in batches through the normal
// insert path into a table carrying a NSC PatchIndex, once without a
// WAL and once with one (SyncNone — durable against process death, the
// engine's failure model), and reports the throughput ratio. The
// acceptance bar for the logging path is <= 25% overhead.
//
// Part two takes the WAL-enabled database, checkpoints it midway, keeps
// updating (inserts, deletes, in-place modifies) so real log records
// accumulate past the checkpoint, then abandons the process image —
// nothing is flushed or closed, exactly what kill -9 leaves behind —
// and recovers a fresh database from the directory, reporting the
// replay wall time and the per-record rate alongside the recovery
// stats.
func RunRecover(w io.Writer, s Scale) {
	header(w, "recover", "WAL write-path overhead and crash-recovery replay")

	rows := datagen.KeyValueRows(datagen.NSCColumn(datagen.Config{Rows: s.Rows, ExceptionRate: 0.05, Seed: 42}))

	// Part one: identical insert streams, WAL off vs WAL on. The first
	// stream is a discarded warm-up, then the two configurations
	// alternate for several trials and the best time of each is kept —
	// single-shot wall times at this duration are dominated by GC,
	// allocator, and scheduler noise, and the minimum is the cleanest
	// estimate of the code path's cost.
	runInsertStream(s, rows, "")
	baseline, logged := time.Duration(1<<62), time.Duration(1<<62)
	for trial := 0; trial < 6; trial++ {
		if d := runInsertStream(s, rows, ""); d < baseline {
			baseline = d
		}
		dir, err := os.MkdirTemp("", "pibench-recover-*")
		if err != nil {
			panic(err)
		}
		if d := runInsertStream(s, rows, dir); d < logged {
			logged = d
		}
		os.RemoveAll(dir)
	}
	overhead := (ms(logged) - ms(baseline)) / ms(baseline) * 100
	fmt.Fprintf(w, "insert %d rows (batch %d, %d partitions): wal=off %.1f ms, wal=on %.1f ms, overhead %.1f%% (bar: 25%%)\n",
		len(rows), insertBatch, s.Partitions, ms(baseline), ms(logged), overhead)

	// Part two: checkpoint, more updates, kill, recover.
	replayDir, err := os.MkdirTemp("", "pibench-recover-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(replayDir)
	db, tb := newRecoverTable(s, replayDir)
	half := rows[: len(rows)/2 : len(rows)/2]
	insertBatches(db, half, insertBatch)
	if err := db.CheckpointToDisk(replayDir); err != nil {
		panic(err)
	}
	tail := rows[len(rows)/2:]
	insertBatches(db, tail, insertBatch)
	rng := rand.New(rand.NewSource(7))
	deleted := mutateAfterCheckpoint(db, tb, s, rng)
	want := tb.NumRows()

	db2 := engine.NewDatabase()
	var stats *engine.RecoverStats
	replay := timeIt(func() {
		var err error
		if stats, err = db2.Recover(replayDir); err != nil {
			panic(err)
		}
	})
	if got := db2.MustTable("t").NumRows(); got != want {
		panic(fmt.Sprintf("recovered %d rows, want %d", got, want))
	}
	perRec := 0.0
	if stats.Applied > 0 {
		perRec = ms(replay) * 1e3 / float64(stats.Applied)
	}
	fmt.Fprintf(w, "recover after kill: %d rows checkpointed, %d inserted + %d deleted + modified after\n",
		len(half), len(tail), deleted)
	fmt.Fprintf(w, "recover after kill: replay %.1f ms, %d records applied (%.1f us/record), %d skipped, %d torn segments\n",
		ms(replay), stats.Applied, perRec, stats.Skipped, stats.TornSegments)
}

// insertBatch is the update-stream batch size: the scale of one TPC-H
// refresh-stream delivery, the workload the paper's update experiments
// model. Each batch costs one WAL record per touched partition.
const insertBatch = 1024

// runInsertStream inserts rows in batches into a fresh indexed table,
// with a WAL when dir is nonempty, and returns the insert wall time.
func runInsertStream(s Scale, rows []storage.Row, dir string) time.Duration {
	db := engine.NewDatabase()
	tb, err := db.CreateTable("t", datagen.KeyValueSchema(), s.Partitions)
	if err != nil {
		panic(err)
	}
	if err := tb.CreatePatchIndex("val", core.NearlySorted, core.Options{Design: core.DesignBitmap}); err != nil {
		panic(err)
	}
	if dir != "" {
		if err := db.EnableWAL(dir, wal.SyncNone); err != nil {
			panic(err)
		}
	}
	return timeIt(func() { insertBatches(db, rows, insertBatch) })
}

func newRecoverTable(s Scale, dir string) (*engine.Database, *engine.Table) {
	db := engine.NewDatabase()
	tb, err := db.CreateTable("t", datagen.KeyValueSchema(), s.Partitions)
	if err != nil {
		panic(err)
	}
	if err := tb.CreatePatchIndex("val", core.NearlySorted, core.Options{Design: core.DesignBitmap}); err != nil {
		panic(err)
	}
	if err := db.EnableWAL(dir, wal.SyncNone); err != nil {
		panic(err)
	}
	return db, tb
}

func insertBatches(db *engine.Database, rows []storage.Row, batch int) {
	for off := 0; off < len(rows); off += batch {
		end := off + batch
		if end > len(rows) {
			end = len(rows)
		}
		if err := db.InsertRows("t", rows[off:end]); err != nil {
			panic(err)
		}
	}
}

// mutateAfterCheckpoint issues deletes and in-place modifies so the log
// carries every record kind recovery must replay, and returns the
// number of rows deleted.
func mutateAfterCheckpoint(db *engine.Database, tb *engine.Table, s Scale, rng *rand.Rand) int {
	deleted := 0
	// Row counts from the index statistics, read without a snapshot: one
	// still open at a delete below would make its checkpoint clone the
	// partition.
	stats := tb.PartitionIndexStats("val")
	for p := 0; p < s.Partitions; p++ {
		n := int(stats[p].Rows)
		if n < 64 {
			continue
		}
		ids := make([]uint64, 0, 16)
		for i := 0; i < 16; i++ {
			ids = append(ids, uint64(rng.Intn(n)))
		}
		ids = dedupIDs(ids)
		if err := db.DeleteRowIDs("t", p, ids); err != nil {
			panic(err)
		}
		deleted += len(ids)
		n -= len(ids)
		mods := make([]uint64, 0, 8)
		vals := make([]storage.Value, 0, 8)
		for i := 0; i < 8 && i < n; i++ {
			mods = append(mods, uint64(rng.Intn(n)))
			vals = append(vals, storage.I64(rng.Int63n(1<<40)))
		}
		mods = dedupIDs(mods)
		if err := db.Modify("t", p, mods, "val", vals[:len(mods)]); err != nil {
			panic(err)
		}
	}
	return deleted
}

// dedupIDs sorts ids ascending and drops duplicates, the form the
// delete and modify entry points require.
func dedupIDs(ids []uint64) []uint64 {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := ids[:0]
	var last uint64
	for i, id := range ids {
		if i > 0 && id == last {
			continue
		}
		last = id
		out = append(out, id)
	}
	return out
}
