package engine

import (
	"fmt"
	"sync"
	"testing"

	"patchindex/internal/core"
	"patchindex/internal/storage"
)

// BenchmarkParallelDisjointUpdates measures the tentpole of the
// per-partition locking work: update throughput when concurrent writers
// target disjoint partitions. Each op is one Modify of a 64-row batch
// on an NSC-indexed column — delta mutation, NSC modify handling, and
// the in-place auto-checkpoint, all under the target partition's lock
// alone. The workers=N variants split b.N ops over N goroutines, one
// partition each; ns/op is aggregate wall time per op, so near-linear
// scaling shows as ns/op dropping ~Nx vs workers=1. The serialized
// variant funnels the same 4-worker workload through one global mutex —
// the old one-lock-per-table behavior — as the in-bench baseline.
// Reference numbers: on a single-vCPU runner (no hardware parallelism
// available) the disjoint variants still beat the serialized baseline
// by ~10-25% (~11-13 µs/op vs ~14.6 µs/op at 4 workers) because no
// worker ever blocks or context-switches on the global lock; the ~Nx
// drop needs as many cores as workers.
func BenchmarkParallelDisjointUpdates(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			runParallelDisjointUpdates(b, workers, false)
		})
	}
	b.Run("workers=4/serialized", func(b *testing.B) {
		runParallelDisjointUpdates(b, 4, true)
	})
}

// BenchmarkParallelInserts measures the partition-parallel insert
// path: concurrent InsertRowsPartition batches into
// disjoint partitions of a NUC-indexed table. Each op appends one
// 16-row batch of worker-unique values — the collision directory
// lookup and reservation, the delta append, NUC index maintenance, and the
// in-place auto-checkpoint, all under the shared structure lock plus
// the target partition's lock. The workers=N variants split b.N ops
// over N goroutines, one partition each. Two in-bench baselines run the
// same 4-worker workload serialized:
//
//   - serialized: the identical InsertRowsPartition calls funneled
//     through one global mutex — isolates pure lock contention;
//   - exclusive: Insert — the same batches looked up in the collision
//     directory under the exclusive structure lock (round-robin
//     placement): the price of the exclusive lock.
//
// Worker-unique values never widen a chunk's lock set; the run reports
// the observed fast/widened split (InsertStats). Reference
// numbers on the single-vCPU dev runner (batch=16, 8 partitions):
// ~13-16 µs/op for the parallel variants and the lock-only serialized
// control alike — at this op size the global mutex handoff is <2% of an
// op, so with no hardware parallelism the control ties; the exclusive
// variant stays within a small factor of both. ~Nx scaling of the
// parallel variants needs as many cores as workers.
func BenchmarkParallelInserts(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			runParallelInserts(b, workers, insertFast)
		})
	}
	b.Run("workers=4/serialized", func(b *testing.B) {
		runParallelInserts(b, 4, insertSerialized)
	})
	b.Run("workers=4/exclusive", func(b *testing.B) {
		runParallelInserts(b, 4, insertExclusive)
	})
}

type insertMode int

const (
	insertFast insertMode = iota
	insertSerialized
	insertExclusive
)

func runParallelInserts(b *testing.B, workers int, mode insertMode) {
	const (
		parts       = 8
		rowsPerPart = 1 << 13
		batch       = 16
	)
	db := NewDatabase()
	tb, err := db.CreateTable("t", storage.Schema{{Name: "v", Kind: storage.KindInt64}}, parts)
	if err != nil {
		b.Fatal(err)
	}
	vals := make([]int64, parts*rowsPerPart)
	for i := range vals {
		vals[i] = int64(i)
	}
	LoadColumnInt64(tb, vals)
	if err := tb.CreatePatchIndex("v", core.NearlyUnique, core.Options{Design: core.DesignBitmap}); err != nil {
		b.Fatal(err)
	}

	var gmu sync.Mutex // the serialized baseline's whole-table lock
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < workers; w++ {
		n := b.N / workers
		if w < b.N%workers {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			next := int64(1_000_000_000) * int64(w+1) // disjoint value ranges
			rows := make([]storage.Row, batch)
			for i := 0; i < n; i++ {
				for j := range rows {
					rows[j] = storage.Row{storage.I64(next)}
					next++
				}
				var err error
				switch mode {
				case insertFast:
					err = db.InsertRowsPartition("t", w, rows)
				case insertSerialized:
					//pilint:ignore deferunlock deliberate scoped serialization being benchmarked
					gmu.Lock()
					err = db.InsertRowsPartition("t", w, rows)
					gmu.Unlock()
				case insertExclusive:
					// Insert: exclusive structure lock, round-robin
					// distribution, exact classification.
					err = db.Insert("t", rows)
				}
				if err != nil {
					b.Error(err)
					return
				}
			}
		}(w, n)
	}
	wg.Wait()
	b.StopTimer()
	fast, fallback := tb.InsertStats()
	b.ReportMetric(float64(fast), "fastpath/total")
	b.ReportMetric(float64(fallback), "fallbacks/total")
}

func runParallelDisjointUpdates(b *testing.B, workers int, serialized bool) {
	const (
		parts       = 8
		rowsPerPart = 1 << 14
		batch       = 64
	)
	db := NewDatabase()
	tb, err := db.CreateTable("t", storage.Schema{{Name: "v", Kind: storage.KindInt64}}, parts)
	if err != nil {
		b.Fatal(err)
	}
	vals := make([]int64, parts*rowsPerPart)
	for i := range vals {
		vals[i] = int64(i)
	}
	LoadColumnInt64(tb, vals)
	if err := tb.CreatePatchIndex("v", core.NearlySorted, core.Options{Design: core.DesignBitmap}); err != nil {
		b.Fatal(err)
	}

	var gmu sync.Mutex // the serialized baseline's whole-table lock
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < workers; w++ {
		n := b.N / workers
		if w < b.N%workers {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			rowIDs := make([]uint64, batch)
			values := make([]storage.Value, batch)
			for i := 0; i < n; i++ {
				base := (i * 131) % (rowsPerPart - batch)
				for j := range rowIDs {
					rowIDs[j] = uint64(base + j)
					values[j] = storage.I64(int64(w*rowsPerPart + i + j))
				}
				if serialized {
					//pilint:ignore deferunlock conditional serialization being benchmarked; defer cannot be conditional
					gmu.Lock()
				}
				err := db.Modify("t", w, rowIDs, "v", values)
				if serialized {
					gmu.Unlock()
				}
				if err != nil {
					b.Error(err)
					return
				}
			}
		}(w, n)
	}
	wg.Wait()
}
