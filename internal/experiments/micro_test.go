package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"patchindex/internal/core"
	"patchindex/internal/datagen"
	"patchindex/internal/engine"
	"patchindex/internal/exec"
	"patchindex/internal/query"
	"patchindex/internal/sortkey"
	"patchindex/internal/storage"
)

var (
	// approaches are the series of Figs. 7-9: the query without a
	// constraint, the specialized materialization (a materialized view
	// for NUC, a SortKey for NSC) and the two PatchIndex designs.
	approaches  = []string{"reference", "materialization", "PI_bitmap", "PI_identifier"}
	constraints = []core.Constraint{core.NearlyUnique, core.NearlySorted}
	// figESweep is the exception-rate grid of Figs. 7 and 8.
	figESweep = []float64{0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0}
	// updateOps and granularities are Fig. 9's series and x-axis.
	updateOps     = []string{"INSERT", "MODIFY", "DELETE"}
	granularities = []int{5, 10, 50, 100, 500, 1000}
)

// fixture is one approach's key/value table.
type fixture struct {
	c     core.Constraint
	a     string
	rows  int
	db    *engine.Database
	t     *engine.Table
	mv    *matView
	sk    *sortkey.SortKey
	chunk int // update queries applied so far
}

// load creates the generator's key/value table for c at exception rate
// e, without the approach's structure.
func load(tb testing.TB, rows int, c core.Constraint, e float64, a string) *fixture {
	tb.Helper()
	cfg := datagen.Config{Rows: rows, ExceptionRate: e, Seed: 42}
	vals := datagen.NSCColumn(cfg)
	if c == core.NearlyUnique {
		vals = datagen.NUCColumn(cfg)
	}
	db := engine.NewDatabase()
	t, err := db.CreateTable("t", datagen.KeyValueSchema(), partitions)
	must(tb, err)
	must(tb, t.Load(datagen.KeyValueRows(vals)))
	return &fixture{c: c, a: a, rows: rows, db: db, t: t}
}

// build creates the approach's structure, what Fig. 8 times.
func (f *fixture) build(tb testing.TB) {
	tb.Helper()
	var err error
	switch f.a {
	case "PI_bitmap":
		err = f.t.CreatePatchIndex("val", f.c, core.Options{Design: core.DesignBitmap})
	case "PI_identifier":
		err = f.t.CreatePatchIndex("val", f.c, core.Options{Design: core.DesignIdentifier})
	case "materialization":
		if f.c == core.NearlySorted {
			f.sk, err = sortkey.CreateEngine(f.t, "val", false)
		} else {
			f.mv, err = matViewFromTable(f.t, 1)
		}
	}
	must(tb, err)
}

// query returns Fig. 7's query under the approach: DISTINCT val for
// NUC, ORDER BY val for NSC.
func (f *fixture) query(tb testing.TB) exec.Operator {
	tb.Helper()
	switch {
	case f.mv != nil:
		return f.mv.scan()
	case f.sk != nil:
		return f.sk.SortedScan()
	}
	p := query.From("t", "val").OrderBy(query.Asc("val"))
	if f.c == core.NearlyUnique {
		p = query.From("t", "val").Distinct("val")
	}
	mode := query.ForceReference
	if strings.HasPrefix(f.a, "PI_") {
		mode = query.ForcePatchIndex
	}
	c, err := query.Run(f.db, p, query.Options{Mode: mode})
	must(tb, err)
	return c.Root
}

// answer drains query, sorted for NUC, whose DISTINCT has no order.
func (f *fixture) answer(tb testing.TB) []int64 {
	tb.Helper()
	vals, err := exec.CollectInt64(f.query(tb))
	must(tb, err)
	if f.c == core.NearlyUnique {
		slices.Sort(vals)
	}
	return vals
}

// update applies one Fig. 9 update query of g tuples and refreshes the
// materialization. MODIFY rewrites g consecutive rows of one partition,
// DELETE every other of its first 2g rows; the partition rotates.
func (f *fixture) update(tb testing.TB, op string, g int) {
	tb.Helper()
	p := f.chunk % partitions
	switch op {
	case "INSERT":
		must(tb, f.db.Insert("t", datagen.InsertBatch(int64(f.rows+f.chunk*g), g, 0.5, int64(f.chunk))))
	case "MODIFY":
		ids, ranks := f.rowIDs(p, f.chunk*131%(f.rows/partitions-g), 1, g)
		vals := make([]storage.Value, g)
		for i, r := range ranks {
			vals[i] = storage.I64(int64(r * 7))
		}
		must(tb, f.db.Modify("t", p, ids, "val", vals))
	case "DELETE":
		ids, _ := f.rowIDs(p, 0, 2, g)
		must(tb, f.db.DeleteRowIDs("t", p, ids))
	}
	if f.mv != nil {
		must(tb, f.mv.refreshFromTable(f.t, 1))
	}
	if f.sk != nil {
		must(tb, f.sk.RebuildChecked())
	}
	f.chunk++
}

// rowIDs returns, ascending, the rowIDs in partition p of the rows with
// key ranks first+i*step, i < g, and each one's i. Keys ascend in load
// and insert order, so a rank is a rowID, except in a table a SortKey
// reordered, whose rows are found by key, as a predicate update would.
func (f *fixture) rowIDs(p, first, step, g int) (ids []uint64, is []int) {
	if f.sk == nil {
		for i := 0; i < g; i++ {
			ids, is = append(ids, uint64(first+i*step)), append(is, i)
		}
		return ids, is
	}
	keys := f.t.ReadInt64Column(p, "key")
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	want := make(map[int64]int, g)
	for i := 0; i < g; i++ {
		want[sorted[first+i*step]] = i
	}
	for r, k := range keys {
		if i, ok := want[k]; ok {
			ids, is = append(ids, uint64(r)), append(is, i)
		}
	}
	return ids, is
}

// contents returns the whole table's keys and values in key order.
func (f *fixture) contents(tb testing.TB) (kv [2][]int64) {
	tb.Helper()
	p := query.From("t", "key", "val").OrderBy(query.Asc("key"))
	c, err := query.Run(f.db, p, query.Options{Mode: query.ForceReference})
	must(tb, err)
	batches, err := exec.Drain(c.Root)
	must(tb, err)
	for _, b := range batches {
		kv[0], kv[1] = append(kv[0], b.Cols[0].I64...), append(kv[1], b.Cols[1].I64...)
	}
	return kv
}

// sameEverywhere loads the table for c at exception rate e under every
// approach, runs series on each, and requires identical contents and
// the same answer to Fig. 7's query.
func sameEverywhere(t *testing.T, what string, c core.Constraint, e float64, series func(*fixture)) {
	t.Helper()
	contents := make([][2][]int64, len(approaches))
	answers := make([][]int64, len(approaches))
	for i, a := range approaches {
		f := load(t, testScale.rows, c, e, a)
		f.build(t)
		series(f)
		contents[i], answers[i] = f.contents(t), f.answer(t)
	}
	sameAnswers(t, what+" contents", approaches, contents)
	sameAnswers(t, what+" answer", approaches, answers)
}

// BenchmarkFig7QueryPerformance is the Fig. 7 sweep: distinct (NUC)
// and sort (NSC) runtime per approach and exception rate. PatchIndex
// runtimes should stay near the materialization and far below the
// reference, rising slightly with e.
func BenchmarkFig7QueryPerformance(b *testing.B) {
	for _, c := range constraints {
		for _, e := range figESweep {
			for _, a := range approaches {
				b.Run(fmt.Sprintf("%v/e=%.1f/%s", c, e, a), func(b *testing.B) {
					f := load(b, benchScale.rows, c, e, a)
					f.build(b)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						_, err := exec.Count(f.query(b))
						must(b, err)
					}
				})
			}
		}
	}
}

// TestRunFig7 requires every approach to return the same answer at
// every exception rate of the sweep.
func TestRunFig7(t *testing.T) {
	for _, c := range constraints {
		for _, e := range figESweep {
			sameEverywhere(t, fmt.Sprintf("%v e=%.1f", c, e), c, e, func(*fixture) {})
		}
	}
}

// BenchmarkFig8Creation is the Fig. 8 sweep: creation time of the
// materialization and both PatchIndex designs per exception rate. A
// PatchIndex should cost slightly more than the view (NUC), far less
// than the SortKey (NSC), and less as a bitmap than as identifiers.
func BenchmarkFig8Creation(b *testing.B) {
	for _, c := range constraints {
		for _, e := range figESweep {
			for _, a := range approaches[1:] {
				b.Run(fmt.Sprintf("%v/e=%.1f/%s", c, e, a), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						f := load(b, benchScale.rows, c, e, a)
						b.StartTimer()
						f.build(b)
					}
				})
			}
		}
	}
}

// TestRunFig8 requires both PatchIndex designs to find the same
// exceptions at every exception rate, and more of them as e grows.
func TestRunFig8(t *testing.T) {
	for _, c := range constraints {
		prev := -1.0
		for _, e := range figESweep {
			var rates []float64
			for _, a := range approaches[2:] {
				f := load(t, testScale.rows, c, e, a)
				f.build(t)
				rates = append(rates, f.t.ExceptionRate("val"))
			}
			if rates[0] != rates[1] || rates[0] < prev {
				t.Errorf("%v e=%.1f: exception rates %v, previous %v", c, e, rates, prev)
			}
			prev = rates[0]
		}
	}
}

// BenchmarkFig9Updates is the Fig. 9 experiment on the e=0.5 dataset.
// One op is one update query of g tuples plus the materialization's
// refresh, so the paper's 1000-tuple cell is ns/op × 1000/g. The refresh
// should dwarf everything at fine granularity; the PatchIndex overhead
// should vanish at g >= 50, be larger for the identifier design, and be
// nearly nil for deletes.
func BenchmarkFig9Updates(b *testing.B) {
	s := benchScale
	for _, c := range constraints {
		for _, op := range updateOps {
			for _, g := range granularities {
				for _, a := range approaches {
					b.Run(fmt.Sprintf("%v/%s/g=%d/%s", c, op, g, a), func(b *testing.B) {
						var f *fixture
						for i := 0; i < b.N; i++ {
							if f == nil || f.t.NumRows() < s.rows/2 { // deletes drain it
								b.StopTimer()
								f = load(b, s.rows, c, 0.5, a)
								f.build(b)
								b.StartTimer()
							}
							f.update(b, op, g)
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g), "ns/tuple")
					})
				}
			}
		}
	}
}

// TestRunFig9 applies each op series of 100 tuples, at every
// granularity up to 100, to every approach and requires identical
// contents and answers afterwards.
func TestRunFig9(t *testing.T) {
	const tuples = 100
	for _, c := range constraints {
		for _, op := range updateOps {
			for _, g := range granularities[:4] {
				sameEverywhere(t, fmt.Sprintf("%v %s g=%d", c, op, g), c, 0.5, func(f *fixture) {
					for n := 0; n < tuples; n += g {
						f.update(t, op, g)
					}
				})
			}
		}
	}
}

// table3Memory measures Table 3's columns on the NUC dataset at
// exception rate e: both PatchIndex designs and the materialized view.
func table3Memory(tb testing.TB, rows int, e float64) (bitmapB, identifierB, viewB uint64) {
	tb.Helper()
	var out [3]uint64
	for i, a := range approaches[1:] {
		f := load(tb, rows, core.NearlyUnique, e, a)
		f.build(tb)
		if f.mv != nil {
			out[i] = f.mv.memoryBytes()
		} else {
			out[i] = f.t.IndexMemoryBytes("val")
		}
	}
	return out[1], out[2], out[0]
}

// BenchmarkTable3Memory reports the memory of both PatchIndex designs
// and the materialized view (Table 3). The paper's column is analytic,
// at t = 10^9 8-byte values with 100 000 duplicate values: PI_bitmap
// takes t/8 · 1.0039 bytes (119.67 MB at any e), PI_identifier e·t·8
// (76.29 MB at e = 0.01, 1.49 GB at e = 0.2), the view
// (100 000 + (1−e)·t)·8 (7.38 GB and 5.96 GB).
func BenchmarkTable3Memory(b *testing.B) {
	for _, e := range []float64{0.01, 0.2} {
		b.Run(fmt.Sprintf("e=%.2f", e), func(b *testing.B) {
			var bm, id, mv uint64
			for i := 0; i < b.N; i++ {
				bm, id, mv = table3Memory(b, benchScale.rows, e)
			}
			b.ReportMetric(float64(bm), "PI_bitmap_B")
			b.ReportMetric(float64(id), "PI_identifier_B")
			b.ReportMetric(float64(mv), "matview_B")
		})
	}
}

// TestRunTable3 checks Table 3's orderings at 20 000 rows: the
// identifier design is smaller than the bitmap at e = 0.01 (1.56 KB vs
// 8.03 KB) and larger at e = 0.2 (31.25 KB), and the materialized view
// (154.7 KB and 125.0 KB) is larger than both.
func TestRunTable3(t *testing.T) {
	for _, e := range []float64{0.01, 0.2} {
		bm, id, mv := table3Memory(t, testScale.rows, e)
		if (id < bm) != (e < 0.1) || mv <= bm || mv <= id {
			t.Errorf("e=%.2f: PI_bitmap %d B, PI_identifier %d B, matview %d B", e, bm, id, mv)
		}
	}
}
