// Benchmarks of the public facade. The paper's figures and tables are
// benchmarked in internal/experiments.
package patchindex

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"patchindex/internal/engine"
)

const (
	benchRows  = 100_000
	benchParts = 4
)

// BenchmarkPublicAPI exercises the facade end-to-end (load, index,
// query) so the README quickstart path has a tracked cost.
func BenchmarkPublicAPI(b *testing.B) {
	db := NewDatabase()
	t, err := db.CreateTable("t", Schema{{Name: "v", Kind: KindInt64}}, 2)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]Row, 50_000)
	for i := range rows {
		rows[i] = Row{I64(int64(i % 40_000))}
	}
	t.Load(rows)
	if err := t.CreatePatchIndex("v", NearlyUnique, IndexOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := Run(db, From("t", "v").Distinct("v"), QueryOptions{Mode: PlanPatchIndex})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Count(c.Root); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryUnderUpdateStream measures DISTINCT query throughput on
// a NUC-indexed table while a background update stream inserts and
// deletes batches on the same table — the concurrent workload the
// paper's host system serves under snapshot isolation (Section 5.4) and
// the snapshot layer enables here. The updates=off variant is the
// baseline; the gap between the two is the cost of copy-on-write
// generations plus plain CPU contention, not lock waiting: queries
// never hold the table lock during execution.
func BenchmarkQueryUnderUpdateStream(b *testing.B) {
	const batch = 64
	for _, updates := range []bool{false, true} {
		b.Run(fmt.Sprintf("updates=%v", updates), func(b *testing.B) {
			db := NewDatabase()
			t, err := db.CreateTable("t", Schema{{Name: "v", Kind: KindInt64}}, benchParts)
			if err != nil {
				b.Fatal(err)
			}
			vals := make([]int64, benchRows)
			for i := range vals {
				vals[i] = int64(i)
			}
			rand.New(rand.NewSource(3)).Shuffle(len(vals), func(i, j int) {
				vals[i], vals[j] = vals[j], vals[i]
			})
			engine.LoadColumnInt64(t, vals)
			if err := t.CreatePatchIndex("v", NearlyUnique, IndexOptions{}); err != nil {
				b.Fatal(err)
			}

			// The update stream runs in lockstep: one insert+delete round
			// overlaps each query, so the measurement is the per-query cost
			// of snapshot capture plus the copy-on-write generations the
			// racing update forces — independent of core count (an unpaced
			// updater on a small machine would measure scheduler
			// time-slicing instead).
			stop := make(chan struct{})
			tick := make(chan struct{})
			updaterDone := make(chan struct{})
			var wg sync.WaitGroup
			var updatesDone int64
			if updates {
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer close(updaterDone)
					for r := 0; ; r++ {
						select {
						case <-stop:
							return
						case <-tick:
						}
						rows := make([]Row, batch)
						for i := range rows {
							rows[i] = Row{I64(int64(benchRows + r*batch + i))}
						}
						if err := db.Insert("t", rows); err != nil {
							b.Error(err)
							return
						}
						if _, err := db.DeleteWhereInt64("t", "v", func(v int64) bool { return v >= benchRows }); err != nil {
							b.Error(err)
							return
						}
						atomic.AddInt64(&updatesDone, 2)
					}
				}()
			}

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if updates {
					select {
					case tick <- struct{}{}:
					case <-updaterDone:
						b.Fatal("update stream died") // b.Error was already reported
					}
				}
				c, err := Run(db, From("t", "v").Distinct("v"), QueryOptions{Mode: PlanPatchIndex})
				if err != nil {
					b.Fatal(err)
				}
				n, err := Count(c.Root)
				if err != nil {
					b.Fatal(err)
				}
				if n < benchRows {
					b.Fatalf("snapshot lost rows: distinct = %d, want >= %d", n, benchRows)
				}
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
			if updates {
				b.ReportMetric(float64(atomic.LoadInt64(&updatesDone))/b.Elapsed().Seconds(), "updates/s")
			}
		})
	}
}
