// Ablation benchmarks for the engine's design choices: dynamic
// range propagation on the paper's insert-handling join (the engine
// keeps that join as a test oracle only; the operators it is built from
// are measured here), bulk vs single delete, condense and the
// vectorized selection modes.
package patchindex

import (
	"math/rand"
	"slices"
	"testing"

	"patchindex/internal/bitmap"
	"patchindex/internal/core"
	"patchindex/internal/exec"
	"patchindex/internal/pdt"
	"patchindex/internal/storage"
)

// BenchmarkAblationRangePropagation measures the insert-handling
// collision join with and without dynamic range propagation (Fig. 5's
// "major improvement": the probe scan is pruned to blocks containing
// potential join partners).
func BenchmarkAblationRangePropagation(b *testing.B) {
	const rows = 1 << 18
	schema := storage.Schema{{Name: "v", Kind: storage.KindInt64}}
	part := storage.NewPartition(schema)
	for i := 0; i < rows; i++ {
		part.AppendRow(storage.Row{storage.I64(int64(i))})
	}
	view := pdt.NewView(part, nil)
	inserted := []int64{100, 200_000, 250_000}
	buildSchema := storage.Schema{{Name: "v", Kind: storage.KindInt64}}

	run := func(b *testing.B, drp bool) {
		for i := 0; i < b.N; i++ {
			build := exec.NewVecSource(buildSchema, []exec.Vec{{Kind: storage.KindInt64, I64: inserted}}, nil)
			scan := exec.NewScan(view, []int{0})
			scan.SetPruneColumn(0)
			join := exec.NewHashJoin(scan, build, 0, 0)
			if drp {
				join.EnableRangePropagation(scan, storage.BlockRows)
			}
			if _, err := exec.Count(join); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("withDRP", func(b *testing.B) { run(b, true) })
	b.Run("withoutDRP", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationBulkVsSingleDelete quantifies the bulk delete's
// amortization of the start-value adaption (Section 4.2.3).
func BenchmarkAblationBulkVsSingleDelete(b *testing.B) {
	const bits = 1 << 22
	const k = 2000
	positions := benchPositions(bits, k, 7)
	b.Run("bulk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			bm := bitmap.NewSharded(bits, bitmap.DefaultShardBits)
			pos := append([]uint64(nil), positions...)
			b.StartTimer()
			bm.BulkDelete(pos)
		}
	})
	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			bm := bitmap.NewSharded(bits, bitmap.DefaultShardBits)
			b.StartTimer()
			for j := len(positions) - 1; j >= 0; j-- {
				bm.Delete(positions[j])
			}
		}
	})
}

// BenchmarkAblationCondense measures the cost of the condense operation
// and the utilization it restores (Section 4.2.4).
func BenchmarkAblationCondense(b *testing.B) {
	const bits = 1 << 22
	positions := benchPositions(bits, 50_000, 8)
	var util float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bm := bitmap.NewSharded(bits, bitmap.DefaultShardBits)
		bm.BulkDelete(append([]uint64(nil), positions...))
		util = bm.Utilization()
		b.StartTimer()
		bm.Condense()
	}
	b.ReportMetric(util, "utilization_before")
}

// BenchmarkAblationSelectionModes compares the per-row IsPatch path with
// the vectorized AppendSel range path of the selection modes.
func BenchmarkAblationSelectionModes(b *testing.B) {
	const rows = 1 << 20
	patches := benchPositions(rows, rows/20, 9)
	x := core.New(core.NearlyUnique, rows, patches, core.Options{Design: core.DesignBitmap})
	b.Run("perRowIsPatch", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			n = 0
			for r := uint64(0); r < rows; r++ {
				if !x.IsPatch(r) {
					n++
				}
			}
		}
		b.ReportMetric(float64(n), "kept")
	})
	b.Run("vectorizedAppendSel", func(b *testing.B) {
		sel := make([]int32, 0, rows)
		var n int
		for i := 0; i < b.N; i++ {
			n = 0
			for lo := uint64(0); lo < rows; lo += exec.BatchSize {
				hi := lo + exec.BatchSize
				if hi > rows {
					hi = rows
				}
				sel = x.AppendSel(lo, hi, true, sel[:0])
				n += len(sel)
			}
		}
		b.ReportMetric(float64(n), "kept")
	})
}

// benchPositions returns k distinct sorted positions below n.
func benchPositions(n uint64, k int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[uint64]bool, k)
	out := make([]uint64, 0, k)
	for len(out) < k {
		if p := uint64(rng.Int63n(int64(n))); !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	slices.Sort(out)
	return out
}
