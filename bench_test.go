// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 6). Each benchmark mirrors one experiment of
// cmd/pibench at a scale suitable for `go test -bench`. The per-series
// shapes — who wins, by roughly what factor, where crossovers fall — are
// the reproduction target; see EXPERIMENTS.md for the comparison against
// the paper's reported results.
package patchindex

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"patchindex/internal/bitmap"
	"patchindex/internal/core"
	"patchindex/internal/datagen"
	"patchindex/internal/engine"
	"patchindex/internal/exec"
	"patchindex/internal/joinindex"
	"patchindex/internal/matview"
	"patchindex/internal/sortkey"
	"patchindex/internal/tpch"
)

const (
	benchBitmapBits = 1 << 22
	benchBulkDel    = 20_000
	benchRows       = 100_000
	benchParts      = 4
	benchSF         = 0.002
)

func benchPositions(n uint64, k int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[uint64]bool, k)
	out := make([]uint64, 0, k)
	for len(out) < k {
		p := uint64(rng.Int63n(int64(n)))
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// BenchmarkFig1Discovery measures constraint discovery over the
// PublicBI-like columns behind the Fig. 1 histogram.
func BenchmarkFig1Discovery(b *testing.B) {
	sets := datagen.GeneratePublicBI(10_000, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ds := range sets {
			datagen.Histogram(ds, 10)
		}
	}
}

// BenchmarkFig6ShardSize is the Fig. 6 sweep: bulk delete runtime per
// shard size for the parallel and parallel+vectorized kernels.
func BenchmarkFig6ShardSize(b *testing.B) {
	for shard := uint64(1 << 10); shard <= 1<<18; shard <<= 2 {
		for _, vec := range []bool{false, true} {
			name := fmt.Sprintf("shard=2^%d/vectorized=%v", log2(shard), vec)
			b.Run(name, func(b *testing.B) {
				positions := benchPositions(benchBitmapBits, benchBulkDel, 1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					bm := bitmap.NewSharded(benchBitmapBits, shard)
					bm.SetVectorized(vec)
					pos := append([]uint64(nil), positions...)
					b.StartTimer()
					bm.BulkDelete(pos)
				}
			})
		}
	}
}

func log2(v uint64) int {
	l := 0
	for v > 1 {
		v >>= 1
		l++
	}
	return l
}

// BenchmarkTable2Ops reproduces Table 2: per-element latencies of the
// bitmap operators for the ordinary and the sharded design.
func BenchmarkTable2Ops(b *testing.B) {
	b.Run("Bitmap/SequentialSet", func(b *testing.B) {
		bm := bitmap.New(benchBitmapBits)
		for i := 0; i < b.N; i++ {
			bm.Set(uint64(i) % benchBitmapBits)
		}
	})
	b.Run("Sharded/SequentialSet", func(b *testing.B) {
		bm := bitmap.NewSharded(benchBitmapBits, bitmap.DefaultShardBits)
		for i := 0; i < b.N; i++ {
			bm.Set(uint64(i) % benchBitmapBits)
		}
	})
	b.Run("Bitmap/SequentialGet", func(b *testing.B) {
		bm := bitmap.New(benchBitmapBits)
		var sink bool
		for i := 0; i < b.N; i++ {
			sink = bm.Get(uint64(i) % benchBitmapBits)
		}
		_ = sink
	})
	b.Run("Sharded/SequentialGet", func(b *testing.B) {
		bm := bitmap.NewSharded(benchBitmapBits, bitmap.DefaultShardBits)
		var sink bool
		for i := 0; i < b.N; i++ {
			sink = bm.Get(uint64(i) % benchBitmapBits)
		}
		_ = sink
	})
	b.Run("Bitmap/Delete", func(b *testing.B) {
		bm := bitmap.New(benchBitmapBits)
		for i := 0; i < b.N; i++ {
			if bm.Len() < benchBitmapBits/2 {
				b.StopTimer()
				bm = bitmap.New(benchBitmapBits)
				b.StartTimer()
			}
			bm.Delete(uint64(i) % (bm.Len() / 2))
		}
	})
	b.Run("Sharded/Delete", func(b *testing.B) {
		bm := bitmap.NewSharded(benchBitmapBits, bitmap.DefaultShardBits)
		for i := 0; i < b.N; i++ {
			if bm.Len() < benchBitmapBits/2 {
				b.StopTimer()
				bm = bitmap.NewSharded(benchBitmapBits, bitmap.DefaultShardBits)
				b.StartTimer()
			}
			bm.Delete(uint64(i) % (bm.Len() / 2))
		}
	})
	b.Run("Sharded/BulkDelete", func(b *testing.B) {
		positions := benchPositions(benchBitmapBits, benchBulkDel, 2)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			bm := bitmap.NewSharded(benchBitmapBits, bitmap.DefaultShardBits)
			pos := append([]uint64(nil), positions...)
			b.StartTimer()
			bm.BulkDelete(pos)
		}
		// Per-element cost: divide ns/op by the bulk size.
		b.ReportMetric(float64(benchBulkDel), "deletes/op")
	})
}

func benchTable(b *testing.B, constraint core.Constraint, e float64) (*engine.Database, *engine.Table) {
	b.Helper()
	cfg := datagen.Config{Rows: benchRows, ExceptionRate: e, Seed: 42}
	var vals []int64
	if constraint == core.NearlyUnique {
		vals = datagen.NUCColumn(cfg)
	} else {
		vals = datagen.NSCColumn(cfg)
	}
	db := engine.NewDatabase()
	t, err := db.CreateTable("t", datagen.KeyValueSchema(), benchParts)
	if err != nil {
		b.Fatal(err)
	}
	t.Load(datagen.KeyValueRows(vals))
	return db, t
}

// partitionRows returns the row count of every partition of t.
func partitionRows(t *engine.Table) []int {
	n := make([]int, t.NumPartitions())
	for p := range n {
		n[p] = len(t.ReadInt64Column(p, "val"))
	}
	return n
}

func runBenchQuery(b *testing.B, db *Database, constraint core.Constraint, mode PlanMode) {
	b.Helper()
	p := From("t", "val")
	if constraint == core.NearlyUnique {
		p = p.Distinct("val")
	} else {
		p = p.OrderBy(Asc("val"))
	}
	c, err := Run(db, p, QueryOptions{Mode: mode})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := Count(c.Root); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFig7QueryPerformance is the Fig. 7 sweep: distinct (NUC) and
// sort (NSC) runtime per approach and exception rate.
func BenchmarkFig7QueryPerformance(b *testing.B) {
	for _, constraint := range []core.Constraint{core.NearlyUnique, core.NearlySorted} {
		for _, e := range []float64{0, 0.2, 0.5, 1.0} {
			b.Run(fmt.Sprintf("%v/e=%.1f/reference", constraint, e), func(b *testing.B) {
				db, _ := benchTable(b, constraint, e)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runBenchQuery(b, db, constraint, PlanReference)
				}
			})
			b.Run(fmt.Sprintf("%v/e=%.1f/materialization", constraint, e), func(b *testing.B) {
				_, t := benchTable(b, constraint, e)
				if constraint == core.NearlyUnique {
					mv, err := matview.CreateFromTable(t, 1)
					if err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := exec.Count(mv.Scan()); err != nil {
							b.Fatal(err)
						}
					}
				} else {
					sk := sortkey.Create(t.Store(), 1, false)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := exec.Count(sk.SortedScan()); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
			for _, design := range []core.Design{core.DesignBitmap, core.DesignIdentifier} {
				b.Run(fmt.Sprintf("%v/e=%.1f/%v", constraint, e, design), func(b *testing.B) {
					db, t := benchTable(b, constraint, e)
					if err := t.CreatePatchIndex("val", constraint, core.Options{Design: design}); err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						runBenchQuery(b, db, constraint, PlanPatchIndex)
					}
				})
			}
		}
	}
}

// BenchmarkFig8Creation is the Fig. 8 sweep: creation time of the
// materialization and both PatchIndex designs.
func BenchmarkFig8Creation(b *testing.B) {
	for _, constraint := range []core.Constraint{core.NearlyUnique, core.NearlySorted} {
		for _, e := range []float64{0.2, 0.8} {
			b.Run(fmt.Sprintf("%v/e=%.1f/materialization", constraint, e), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					_, t := benchTable(b, constraint, e)
					b.StartTimer()
					if constraint == core.NearlyUnique {
						if _, err := matview.CreateFromTable(t, 1); err != nil {
							b.Fatal(err)
						}
					} else {
						sortkey.Create(t.Store(), 1, false)
					}
				}
			})
			for _, design := range []core.Design{core.DesignBitmap, core.DesignIdentifier} {
				b.Run(fmt.Sprintf("%v/e=%.1f/%v", constraint, e, design), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						_, t := benchTable(b, constraint, e)
						b.StartTimer()
						if err := t.CreatePatchIndex("val", constraint, core.Options{Design: design}); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkFig9Updates is the Fig. 9 experiment at granularity 50:
// insert/modify/delete cost per approach on the e=0.5 dataset.
func BenchmarkFig9Updates(b *testing.B) {
	const granularity = 50
	type approach struct {
		name   string
		design core.Design
		pi     bool
		mat    bool
	}
	approaches := []approach{
		{name: "none"},
		{name: "materialization", mat: true},
		{name: "PI_bitmap", pi: true, design: core.DesignBitmap},
		{name: "PI_identifier", pi: true, design: core.DesignIdentifier},
	}
	for _, constraint := range []core.Constraint{core.NearlyUnique, core.NearlySorted} {
		for _, ap := range approaches {
			b.Run(fmt.Sprintf("%v/insert/%s", constraint, ap.name), func(b *testing.B) {
				db, t := benchTable(b, constraint, 0.5)
				if ap.pi {
					if err := t.CreatePatchIndex("val", constraint, core.Options{Design: ap.design}); err != nil {
						b.Fatal(err)
					}
				}
				var mv *matview.View
				var sk *sortkey.SortKey
				if ap.mat {
					if constraint == core.NearlyUnique {
						mv, _ = matview.CreateFromTable(t, 1)
					} else {
						sk = sortkey.Create(t.Store(), 1, false)
					}
				}
				nextKey := int64(benchRows)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rows := datagen.InsertBatch(nextKey, granularity, 0.5, int64(i))
					nextKey += granularity
					if err := db.Insert("t", rows); err != nil {
						b.Fatal(err)
					}
					if mv != nil {
						if err := mv.RefreshFromTable(t, 1); err != nil {
							b.Fatal(err)
						}
					}
					if sk != nil {
						sk.Rebuild()
					}
				}
				b.ReportMetric(granularity, "tuples/op")
			})
			b.Run(fmt.Sprintf("%v/delete/%s", constraint, ap.name), func(b *testing.B) {
				db, t := benchTable(b, constraint, 0.5)
				if ap.pi {
					if err := t.CreatePatchIndex("val", constraint, core.Options{Design: ap.design}); err != nil {
						b.Fatal(err)
					}
				}
				var mv *matview.View
				var sk *sortkey.SortKey
				if ap.mat {
					if constraint == core.NearlyUnique {
						mv, _ = matview.CreateFromTable(t, 1)
					} else {
						sk = sortkey.Create(t.Store(), 1, false)
					}
				}
				rowIDs := make([]uint64, granularity)
				for i := range rowIDs {
					rowIDs[i] = uint64(i * 3)
				}
				// Rows left per partition, tracked here so the timed loop
				// reads no table state.
				left := partitionRows(t)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p := i % benchParts
					if left[p] < granularity*4 {
						// The table would drain over many iterations;
						// rebuild it outside the timer.
						b.StopTimer()
						db, t = benchTable(b, constraint, 0.5)
						if ap.pi {
							if err := t.CreatePatchIndex("val", constraint, core.Options{Design: ap.design}); err != nil {
								b.Fatal(err)
							}
						}
						if ap.mat {
							if constraint == core.NearlyUnique {
								mv, _ = matview.CreateFromTable(t, 1)
							} else {
								sk = sortkey.Create(t.Store(), 1, false)
							}
						}
						left = partitionRows(t)
						b.StartTimer()
					}
					if err := db.DeleteRowIDs("t", p, rowIDs); err != nil {
						b.Fatal(err)
					}
					left[p] -= granularity
					if mv != nil {
						if err := mv.RefreshFromTable(t, 1); err != nil {
							b.Fatal(err)
						}
					}
					if sk != nil {
						sk.Rebuild()
					}
				}
				b.ReportMetric(granularity, "tuples/op")
			})
		}
	}
}

// BenchmarkTable3Memory reports the measured index memory of both
// designs plus the materialized view (Table 3).
func BenchmarkTable3Memory(b *testing.B) {
	for _, e := range []float64{0.01, 0.2} {
		b.Run(fmt.Sprintf("e=%.2f", e), func(b *testing.B) {
			var bmBytes, idBytes, mvBytes uint64
			for i := 0; i < b.N; i++ {
				_, t1 := benchTable(b, core.NearlyUnique, e)
				if err := t1.CreatePatchIndex("val", core.NearlyUnique, core.Options{Design: core.DesignBitmap}); err != nil {
					b.Fatal(err)
				}
				bmBytes = t1.IndexMemoryBytes("val")
				_, t2 := benchTable(b, core.NearlyUnique, e)
				if err := t2.CreatePatchIndex("val", core.NearlyUnique, core.Options{Design: core.DesignIdentifier}); err != nil {
					b.Fatal(err)
				}
				idBytes = t2.IndexMemoryBytes("val")
				_, t3 := benchTable(b, core.NearlyUnique, e)
				mv, err := matview.CreateFromTable(t3, 1)
				if err != nil {
					b.Fatal(err)
				}
				mvBytes = mv.MemoryBytes()
			}
			b.ReportMetric(float64(bmBytes), "PI_bitmap_B")
			b.ReportMetric(float64(idBytes), "PI_identifier_B")
			b.ReportMetric(float64(mvBytes), "matview_B")
		})
	}
}

// BenchmarkFig10TPCH is the Fig. 10 experiment: Q3/Q7/Q12 per variant
// plus the refresh sets.
func BenchmarkFig10TPCH(b *testing.B) {
	type variant struct {
		label string
		e     float64
		mode  tpch.Mode
	}
	variants := []variant{
		{"reference", 0.10, tpch.ModeReference},
		{"PI_10", 0.10, tpch.ModePatchIndex},
		{"PI_5", 0.05, tpch.ModePatchIndex},
		{"PI_0", 0.0, tpch.ModePatchIndex},
		{"PI_0_ZBP", 0.0, tpch.ModeZBP},
		{"JoinIndex", 0.0, tpch.ModeJoinIndex},
	}
	queries := []struct {
		name string
		run  func(*tpch.Dataset, tpch.Mode, *joinindex.Index) (exec.Operator, error)
	}{
		{"Q3", (*tpch.Dataset).Q3},
		{"Q7", (*tpch.Dataset).Q7},
		{"Q12", (*tpch.Dataset).Q12},
	}
	for _, v := range variants {
		ds, err := tpch.Generate(tpch.Config{SF: benchSF, ExceptionRate: v.e, LineitemPartitions: benchParts, Seed: 99})
		if err != nil {
			b.Fatal(err)
		}
		if err := ds.CreatePatchIndex(); err != nil {
			b.Fatal(err)
		}
		var ji *joinindex.Index
		if v.mode == tpch.ModeJoinIndex {
			ji = ds.CreateJoinIndex()
		}
		for _, q := range queries {
			b.Run(fmt.Sprintf("%s/%s", q.name, v.label), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					op, err := q.run(ds, v.mode, ji)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := exec.Count(op); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	// Refresh sets on a PatchIndexed dataset and a JoinIndexed one.
	b.Run("RF1_insert/PI", func(b *testing.B) {
		ds, _ := tpch.Generate(tpch.Config{SF: benchSF, ExceptionRate: 0.05, LineitemPartitions: benchParts, Seed: 99})
		if err := ds.CreatePatchIndex(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ds.RF1(5, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("RF2_delete/PI", func(b *testing.B) {
		ds, _ := tpch.Generate(tpch.Config{SF: benchSF, ExceptionRate: 0.05, LineitemPartitions: benchParts, Seed: 99})
		if err := ds.CreatePatchIndex(); err != nil {
			b.Fatal(err)
		}
		// Keep the table from draining: insert what we delete.
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ds.RF1(5, nil); err != nil {
				b.Fatal(err)
			}
			if _, err := ds.RF2(5, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

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
