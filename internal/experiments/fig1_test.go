package experiments

import (
	"testing"

	"patchindex/internal/core"
	"patchindex/internal/datagen"
)

// fig1Seed seeds the PublicBI-like workbooks of Fig. 1.
const fig1Seed = 11

// BenchmarkFig1Discovery measures constraint discovery over the
// PublicBI-like columns behind the Fig. 1 histogram.
func BenchmarkFig1Discovery(b *testing.B) {
	sets := datagen.GeneratePublicBI(benchScale.fig1Rows, fig1Seed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ds := range sets {
			datagen.Histogram(ds, 10)
		}
	}
}

// TestRunFig1 checks the Fig. 1 histogram discovery measures: every
// column lands in a bucket, and 15 of USCensus_1's 521 are nearly
// sorted, 9 of them with over 60% of the tuples matching.
func TestRunFig1(t *testing.T) {
	for _, ds := range datagen.GeneratePublicBI(testScale.fig1Rows, fig1Seed) {
		h := datagen.Histogram(ds, 10)
		total, above60 := 0, 0
		for b, n := range h {
			total += n
			if b >= 6 {
				above60 += n
			}
		}
		if total != len(ds.Columns) {
			t.Errorf("%s: histogram %v counts %d of %d columns", ds.Name, h, total, len(ds.Columns))
		}
		if ds.Name == "USCensus_1" && (total != 15 || ds.TotalColumns != 521 || above60 != 9 || ds.Columns[0].Constraint != core.NearlySorted) {
			t.Errorf("USCensus_1: histogram %v, want 15 of 521 NSC columns, 9 above 60%%", h)
		}
	}
}

// TestRunFig11 checks the memory axis of Fig. 11, the qualitative
// comparison of the four approaches, which scores creation effort (C,
// Fig. 8), memory (M, Table 3), query performance (P, Figs. 7 and 10)
// and updatability (U, Figs. 9 and 10) from 1 to 4, higher is better:
//
//	approach    C  M  P  U
//	PatchIndex  3  3  3  4
//	Mat. view   3  2  4  1
//	SortKey     1  4  3  1
//	JoinIndex   1  2  4  3
func TestRunFig11(t *testing.T) {
	bitmapB, _, viewB := table3Memory(t, testScale.rows, 0.2)
	sk := load(t, testScale.rows, core.NearlySorted, 0.2, "materialization")
	sk.build(t)
	if skB := sk.sk.MemoryBytes(); skB != 0 || bitmapB >= viewB {
		t.Errorf("SortKey %d B, PI_bitmap %d B, matview %d B: want SortKey < PI_bitmap < matview", skB, bitmapB, viewB)
	}
	ds, ji := fig10Dataset(t, testScale.sf, 0, true)
	if piB, jiB := ds.DB.MustTable("lineitem").IndexMemoryBytes("l_orderkey"), ji.MemoryBytes(); piB >= jiB {
		t.Errorf("lineitem PatchIndex %d B, JoinIndex %d B: want PatchIndex < JoinIndex", piB, jiB)
	}
}
