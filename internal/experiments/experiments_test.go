// Package experiments reproduces the evaluation of "Updatable
// Materialization of Approximate Constraints" (ICDE 2021, Section 6):
// one Go benchmark per figure or table, with a sub-benchmark per series
// and grid point, and one check per figure that runs its series once at
// a smaller scale and asserts what the figure rests on. The package has
// no non-test code. Run every figure once with
//
//	go test ./internal/experiments -run '^$' -bench . -benchtime=1x
//
// The target is each figure's shape: who wins, by what factor, where.
//
//	paper    benchmark                      check
//	Fig. 1   BenchmarkFig1Discovery         TestRunFig1
//	Fig. 6   BenchmarkFig6ShardSize         TestRunFig6
//	Table 2  BenchmarkTable2Ops             TestRunTable2
//	Fig. 7   BenchmarkFig7QueryPerformance  TestRunFig7
//	Fig. 8   BenchmarkFig8Creation          TestRunFig8
//	Fig. 9   BenchmarkFig9Updates           TestRunFig9
//	Table 3  BenchmarkTable3Memory          TestRunTable3
//	Fig. 10  BenchmarkFig10TPCH             TestRunFig10
//	Fig. 11  (scores in TestRunFig11's doc) TestRunFig11
//
// Not every shape reproduces at laptop scale. Fig. 10's creation order
// (PatchIndex ~6x cheaper than the JoinIndex at SF 1000) does not: at
// benchScale's SF 0.002 over 4 partitions, BenchmarkFig10TPCH/create at
// -benchtime=30x -count=3 read PatchIndex 290-386 µs against JoinIndex
// 250-328 µs on a 2-vCPU Intel Xeon. No check asserts either order.
//
// The maintenance daemon and the WAL, beyond the paper's evaluation, are
// measured by the engine's TestChurn* and BenchmarkInsertWALOverhead and
// by the bench module's churn_daemon workload and recover_s metric.
package experiments

import (
	"reflect"
	"testing"
)

// scale sizes one run of the figures. The paper runs 100M-bit bitmaps,
// 1B-tuple tables and TPC-H SF 1000 on a 24-core server; benchScale
// keeps every relative effect at laptop size.
type scale struct {
	bits     uint64  // Fig. 6 and Table 2 bitmap size (paper: 100M)
	bulk     int     // bulk-delete positions (paper: 1M)
	rows     int     // Figs. 7-9 and Table 3 table rows (paper: 1B)
	sf       float64 // Fig. 10 TPC-H scale factor (paper: 1000)
	fig1Rows int     // Fig. 1 rows per PublicBI-like column
}

var (
	benchScale = scale{bits: 1 << 22, bulk: 20_000, rows: 100_000, sf: 0.002, fig1Rows: 10_000}
	testScale  = scale{bits: 1 << 18, bulk: 2_000, rows: 20_000, sf: 0.001, fig1Rows: 2_000}
)

// partitions is the table partition count of Figs. 7-10 (paper: 24).
const partitions = 4

func TestScales(t *testing.T) {
	b, s := benchScale, testScale
	if s.bits >= b.bits || s.bulk >= b.bulk || s.rows >= b.rows || s.sf >= b.sf || s.fig1Rows >= b.fig1Rows {
		t.Fatalf("test scale %+v is not below the benchmark scale %+v in every dimension", s, b)
	}
}

// sameAnswers fails t unless every answer equals the first one.
func sameAnswers[A any](t *testing.T, what string, names []string, answers []A) {
	t.Helper()
	for i, a := range answers[1:] {
		if !reflect.DeepEqual(a, answers[0]) {
			t.Errorf("%s: %s differs from %s", what, names[i+1], names[0])
		}
	}
}

// must fails tb on a non-nil error.
func must(tb testing.TB, err error) {
	tb.Helper()
	if err != nil {
		tb.Fatal(err)
	}
}
