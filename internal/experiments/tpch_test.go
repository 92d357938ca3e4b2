package experiments

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"patchindex/internal/exec"
	"patchindex/internal/joinindex"
	"patchindex/internal/tpch"
)

// fig10Variants are Fig. 10's series: no constraint, PatchIndex at 10,
// 5 and 0% exceptions, at 0% with zero-branch pruning, and JoinIndex.
var fig10Variants = []struct {
	label string
	e     float64
	mode  tpch.Mode
}{
	{"reference", 0.10, tpch.ModeReference},
	{"PI_10", 0.10, tpch.ModePatchIndex},
	{"PI_5", 0.05, tpch.ModePatchIndex},
	{"PI_0", 0.0, tpch.ModePatchIndex},
	{"PI_0_ZBP", 0.0, tpch.ModeZBP},
	{"JoinIndex", 0.0, tpch.ModeJoinIndex},
}

var fig10Queries = []struct {
	name string
	run  func(*tpch.Dataset, tpch.Mode, *joinindex.Index) (exec.Operator, error)
}{
	{"Q3", (*tpch.Dataset).Q3},
	{"Q7", (*tpch.Dataset).Q7},
	{"Q12", (*tpch.Dataset).Q12},
}

// fig10Dataset generates the lineitem data at exception rate e with the
// PatchIndex, plus the JoinIndex when withJI is set. The rows do not
// depend on e, only their order does.
func fig10Dataset(tb testing.TB, sf, e float64, withJI bool) (*tpch.Dataset, *joinindex.Index) {
	tb.Helper()
	ds, err := tpch.Generate(tpch.Config{SF: sf, ExceptionRate: e, LineitemPartitions: partitions, Seed: 99})
	must(tb, err)
	must(tb, ds.CreatePatchIndex())
	if withJI {
		return ds, ds.CreateJoinIndex()
	}
	return ds, nil
}

// BenchmarkFig10TPCH is the Fig. 10 experiment: PatchIndex vs JoinIndex
// creation (paper: ~100 s vs ~600 s at SF 1000), then per variant
// Q3/Q7/Q12 and the RF1 insert and RF2 delete refresh sets. The
// PatchIndex benefit should grow as e drops, and with zero-branch
// pruning at 0% match or slightly beat the JoinIndex; Q12's small join
// suffers from cloning without it; refreshes cost both materializations
// little, the JoinIndex marginally less.
func BenchmarkFig10TPCH(b *testing.B) {
	sf := benchScale.sf
	for _, create := range []string{"PatchIndex", "JoinIndex"} {
		b.Run("create/"+create, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ds, err := tpch.Generate(tpch.Config{SF: sf, LineitemPartitions: partitions, Seed: 99})
				must(b, err)
				b.StartTimer()
				if create == "JoinIndex" {
					ds.CreateJoinIndex()
				} else {
					must(b, ds.CreatePatchIndex())
				}
			}
		})
	}
	for _, v := range fig10Variants {
		ds, ji := fig10Dataset(b, sf, v.e, v.mode == tpch.ModeJoinIndex)
		for _, q := range fig10Queries {
			b.Run(fmt.Sprintf("%s/%s", q.name, v.label), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					op, err := q.run(ds, v.mode, ji)
					if err == nil {
						_, err = exec.Count(op)
					}
					must(b, err)
				}
			})
		}
		// The refresh sets run after the queries on the same data. RF2
		// deletes what an untimed RF1 inserted, so the table never drains.
		insN := int(tpch.RF1InsertFraction * float64(ds.NumOrders))
		delN := int(tpch.RF2DeleteFraction * float64(ds.NumOrders))
		b.Run("RF1_insert/"+v.label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := ds.RF1(insN, ji)
				must(b, err)
			}
		})
		b.Run("RF2_delete/"+v.label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				_, err := ds.RF1(delN, ji)
				b.StartTimer()
				if err == nil {
					_, err = ds.RF2(delN, ji)
				}
				must(b, err)
			}
		})
	}
}

// TestRunFig10 requires every variant to return the same Q3, Q7 and
// Q12 rows.
func TestRunFig10(t *testing.T) {
	labels := make([]string, len(fig10Variants))
	results := make([][][]string, len(fig10Queries))
	for i, v := range fig10Variants {
		labels[i] = v.label
		ds, ji := fig10Dataset(t, testScale.sf, v.e, v.mode == tpch.ModeJoinIndex)
		for qi, q := range fig10Queries {
			op, err := q.run(ds, v.mode, ji)
			must(t, err)
			rows, err := exec.Collect(op)
			must(t, err)
			// Rendered and sorted, floats rounded, the rows compare
			// independently of row and summation order.
			out := make([]string, len(rows))
			for i, r := range rows {
				for j := range r {
					r[j].F = math.Round(r[j].F*1e4) / 1e4
				}
				out[i] = fmt.Sprint(r)
			}
			sort.Strings(out)
			results[qi] = append(results[qi], out)
		}
	}
	for qi, q := range fig10Queries {
		if len(results[qi][0]) == 0 {
			t.Errorf("%s returned no rows", q.name)
		}
		sameAnswers(t, q.name, labels, results[qi])
	}
}
