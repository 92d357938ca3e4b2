package tpch

// The hand-built Q3/Q7/Q12 operator trees of the earlier revisions,
// preserved verbatim as the oracle for the general query layer: the
// generically lowered plans must reproduce these byte-for-byte in every
// mode. Nothing here runs in production — queries.go compiles the
// logical plans instead.

import (
	"fmt"
	"testing"

	"patchindex/internal/engine"
	"patchindex/internal/exec"
	"patchindex/internal/joinindex"
	"patchindex/internal/plan"
)

// scanAll scans the named columns of a snapshot table. The hand-built
// trees name fixed TPC-H columns, so an error is a bug in the tree.
func scanAll(ts *engine.TableSnapshot, columns ...string) exec.Operator {
	op, err := ts.ScanAll(columns...)
	if err != nil {
		panic(err)
	}
	return op
}

// The per-row filter predicates of the hand-built trees.

func int64Range(col int, lo, hi int64) exec.Pred {
	return func(b *exec.Batch, i int) bool {
		v := b.Cols[col].I64[i]
		return v >= lo && v <= hi
	}
}

func int64Less(col int, v int64) exec.Pred {
	return func(b *exec.Batch, i int) bool { return b.Cols[col].I64[i] < v }
}

func int64Greater(col int, v int64) exec.Pred {
	return func(b *exec.Batch, i int) bool { return b.Cols[col].I64[i] > v }
}

func strEq(col int, s string) exec.Pred {
	return func(b *exec.Batch, i int) bool { return b.Cols[col].Str[i] == s }
}

func strIn(col int, set ...string) exec.Pred {
	m := make(map[string]struct{}, len(set))
	for _, s := range set {
		m[s] = struct{}{}
	}
	return func(b *exec.Batch, i int) bool {
		_, ok := m[b.Cols[col].Str[i]]
		return ok
	}
}

func (q *Queries) handJoinInput(factCols []int, transform func(exec.Operator) exec.Operator, dim func() exec.Operator) plan.JoinInput {
	return plan.JoinInput{
		Fact:          q.snap.Table("lineitem").Inputs("l_orderkey"),
		FactCols:      factCols,
		FactKey:       0,
		Dim:           dim(),
		DimKey:        0,
		FactTransform: transform,
	}
}

func (q *Queries) handJoined(mode Mode, in plan.JoinInput, ji *joinindex.Index, factCols, jiDimCols []int, jiTransform func(exec.Operator) exec.Operator) (exec.Operator, error) {
	switch mode {
	case ModeReference:
		return plan.JoinReference(in, plan.Options{}), nil
	case ModePatchIndex:
		return plan.Join(in, plan.Options{}), nil
	case ModeZBP:
		return plan.Join(in, plan.Options{ZeroBranchPruning: true}), nil
	case ModeJoinIndex:
		if ji == nil {
			return nil, fmt.Errorf("tpch: ModeJoinIndex requires a JoinIndex")
		}
		refs, err := q.refsFor(ji)
		if err != nil {
			return nil, err
		}
		fact := q.snap.Table("lineitem").Views()
		dim := q.snap.Table("orders").Views()
		return jiTransform(ji.JoinOn(fact, dim, refs, factCols, jiDimCols)), nil
	}
	return nil, fmt.Errorf("tpch: unknown mode %d", mode)
}

func (q *Queries) handQ3(mode Mode, ji *joinindex.Index) (exec.Operator, error) {
	customerBuild := func() exec.Operator {
		c := q.snap.Table("customer")
		return exec.NewFilter(scanAll(c, "c_custkey", "c_mktsegment"), strEq(1, q3Segment))
	}
	dim := func() exec.Operator {
		o := q.snap.Table("orders")
		scan := scanAll(o, "o_orderkey", "o_custkey", "o_orderdate", "o_shippriority")
		filtered := exec.NewFilter(scan, int64Less(2, q3Date))
		// Probe side = orders: preserves o_orderkey order for MergeJoin.
		return exec.NewHashJoin(filtered, customerBuild(), 1, 0)
	}
	// Fact schema after projection: [l_orderkey, l_shipdate,
	// l_extendedprice, l_discount].
	factCols := []int{0, 2, 5, 6}
	shipFilter := func(op exec.Operator) exec.Operator {
		return exec.NewFilter(op, int64Greater(1, q3Date))
	}

	var joined exec.Operator
	var err error
	if mode == ModeJoinIndex {
		// Gather o_custkey, o_orderdate, o_shippriority positionally,
		// then apply the date filters and the customer join.
		jiTransform := func(op exec.Operator) exec.Operator {
			f := exec.NewFilter(op, exec.And(
				int64Greater(1, q3Date), // l_shipdate
				int64Less(5, q3Date),    // o_orderdate
			))
			return exec.NewHashJoin(f, customerBuild(), 4, 0) // o_custkey
		}
		joined, err = q.handJoined(mode, plan.JoinInput{}, ji, factCols, []int{1, 2, 3}, jiTransform)
		if err != nil {
			return nil, err
		}
		// Schema: [l_ok, l_ship, l_ext, l_disc, o_custkey, o_date,
		// o_prio, c_custkey, c_seg]; group cols below.
		rev := exec.NewComputeFloat64(joined, "revenue", func(b *exec.Batch, i int) float64 {
			return b.Cols[2].F64[i] * (1 - b.Cols[3].F64[i])
		})
		agg := exec.NewHashAggregate(rev, []int{0, 5, 6}, []exec.AggSpec{
			{Func: exec.AggSum, Col: 9, Name: "revenue"},
		})
		return exec.NewLimit(exec.NewSort(agg, exec.SortKey{Col: 3, Desc: true}), 10), nil
	}

	in := q.handJoinInput(factCols, shipFilter, dim)
	joined, err = q.handJoined(mode, in, nil, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	// Joined schema: [l_ok, l_ship, l_ext, l_disc] ++ [o_ok, o_ck,
	// o_date, o_prio, c_ck, c_seg].
	rev := exec.NewComputeFloat64(joined, "revenue", func(b *exec.Batch, i int) float64 {
		return b.Cols[2].F64[i] * (1 - b.Cols[3].F64[i])
	})
	agg := exec.NewHashAggregate(rev, []int{0, 6, 7}, []exec.AggSpec{
		{Func: exec.AggSum, Col: 10, Name: "revenue"},
	})
	return exec.NewLimit(exec.NewSort(agg, exec.SortKey{Col: 3, Desc: true}), 10), nil
}

func (q *Queries) handQ7(mode Mode, ji *joinindex.Index) (exec.Operator, error) {
	nationPair := func(sCol, cCol int) exec.Pred {
		return func(b *exec.Batch, i int) bool {
			s, c := b.Cols[sCol].I64[i], b.Cols[cCol].I64[i]
			return (s == q7Nation1 && c == q7Nation2) || (s == q7Nation2 && c == q7Nation1)
		}
	}
	supplierBuild := func() exec.Operator {
		s := q.snap.Table("supplier")
		return exec.NewFilter(scanAll(s, "s_suppkey", "s_nationkey"), func(b *exec.Batch, i int) bool {
			n := b.Cols[1].I64[i]
			return n == q7Nation1 || n == q7Nation2
		})
	}
	customerBuild := func() exec.Operator {
		c := q.snap.Table("customer")
		return exec.NewFilter(scanAll(c, "c_custkey", "c_nationkey"), func(b *exec.Batch, i int) bool {
			n := b.Cols[1].I64[i]
			return n == q7Nation1 || n == q7Nation2
		})
	}
	dim := func() exec.Operator {
		o := q.snap.Table("orders")
		scan := scanAll(o, "o_orderkey", "o_custkey")
		return exec.NewHashJoin(scan, customerBuild(), 1, 0)
	}
	// Fact projection: [l_orderkey, l_suppkey, l_shipdate,
	// l_extendedprice, l_discount].
	factCols := []int{0, 1, 2, 5, 6}
	transform := func(op exec.Operator) exec.Operator {
		f := exec.NewFilter(op, int64Range(2, q7From, q7To))
		return exec.NewHashJoin(f, supplierBuild(), 1, 0)
	}

	var joined exec.Operator
	var err error
	var sNat, cNat, ship, ext, disc int
	if mode == ModeJoinIndex {
		jiTransform := func(op exec.Operator) exec.Operator {
			// op: [l_ok, l_sk, l_ship, l_ext, l_disc, o_custkey]
			f := exec.NewFilter(op, int64Range(2, q7From, q7To))
			sj := exec.NewHashJoin(f, supplierBuild(), 1, 0)   // + s_sk, s_nat
			return exec.NewHashJoin(sj, customerBuild(), 5, 0) // + c_ck, c_nat
		}
		joined, err = q.handJoined(mode, plan.JoinInput{}, ji, factCols, []int{1}, jiTransform)
		sNat, cNat, ship, ext, disc = 7, 9, 2, 3, 4
	} else {
		in := q.handJoinInput(factCols, transform, dim)
		joined, err = q.handJoined(mode, in, nil, nil, nil, nil)
		// Joined: [l_ok, l_sk, l_ship, l_ext, l_disc, s_sk, s_nat] ++
		// [o_ok, o_ck, c_ck, c_nat].
		sNat, cNat, ship, ext, disc = 6, 10, 2, 3, 4
	}
	if err != nil {
		return nil, err
	}
	filtered := exec.NewFilter(joined, nationPair(sNat, cNat))
	vol := exec.NewComputeFloat64(filtered, "volume", func(b *exec.Batch, i int) float64 {
		return b.Cols[ext].F64[i] * (1 - b.Cols[disc].F64[i])
	})
	volCol := len(vol.Schema()) - 1
	year := exec.NewComputeInt64(vol, "l_year", func(b *exec.Batch, i int) int64 {
		return Year(b.Cols[ship].I64[i])
	})
	yearCol := len(year.Schema()) - 1
	agg := exec.NewHashAggregate(year, []int{sNat, cNat, yearCol}, []exec.AggSpec{
		{Func: exec.AggSum, Col: volCol, Name: "volume"},
	})
	return exec.NewSort(agg, exec.SortKey{Col: 0}, exec.SortKey{Col: 1}, exec.SortKey{Col: 2}), nil
}

func (q *Queries) handQ12(mode Mode, ji *joinindex.Index) (exec.Operator, error) {
	// Fact projection: [l_orderkey, l_shipdate, l_commitdate,
	// l_receiptdate, l_shipmode].
	factCols := []int{0, 2, 3, 4, 7}
	liPred := exec.And(
		strIn(4, q12Modes...),
		func(b *exec.Batch, i int) bool { return b.Cols[2].I64[i] < b.Cols[3].I64[i] },
		func(b *exec.Batch, i int) bool { return b.Cols[1].I64[i] < b.Cols[2].I64[i] },
		int64Range(3, q12From, q12To-1),
	)
	transform := func(op exec.Operator) exec.Operator { return exec.NewFilter(op, liPred) }
	dim := func() exec.Operator {
		return scanAll(q.snap.Table("orders"), "o_orderkey", "o_orderpriority")
	}

	var joined exec.Operator
	var err error
	var prioCol int
	if mode == ModeJoinIndex {
		joined, err = q.handJoined(mode, plan.JoinInput{}, ji, factCols, []int{4}, transform)
		prioCol = 5
	} else {
		in := q.handJoinInput(factCols, transform, dim)
		joined, err = q.handJoined(mode, in, nil, nil, nil, nil)
		prioCol = 6
	}
	if err != nil {
		return nil, err
	}
	high := exec.NewComputeInt64(joined, "is_high", func(b *exec.Batch, i int) int64 {
		if p := b.Cols[prioCol].I64[i]; p == PrioUrgent || p == PrioHigh {
			return 1
		}
		return 0
	})
	highCol := len(high.Schema()) - 1
	low := exec.NewComputeInt64(high, "is_low", func(b *exec.Batch, i int) int64 {
		return 1 - b.Cols[highCol].I64[i]
	})
	agg := exec.NewHashAggregate(low, []int{4}, []exec.AggSpec{
		{Func: exec.AggSum, Col: highCol, Name: "high_line_count"},
		{Func: exec.AggSum, Col: highCol + 1, Name: "low_line_count"},
	})
	return exec.NewSort(agg, exec.SortKey{Col: 0}), nil
}

// TestGeneralLayerMatchesHandBuilt pins the refactor's acceptance
// criterion: for every query × mode × exception rate, the plan lowered
// through the general query layer renders byte-for-byte identically to
// the preserved hand-built operator tree — including raw row order
// before canonicalization for the float-summing aggregates, since both
// renderings go through the same rowsKey.
func TestGeneralLayerMatchesHandBuilt(t *testing.T) {
	for _, e := range []float64{0, 0.05} {
		ds, err := Generate(Config{SF: 0.002, ExceptionRate: e, LineitemPartitions: 3, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.CreatePatchIndex(); err != nil {
			t.Fatal(err)
		}
		ji := ds.CreateJoinIndex()

		general := map[string]func(*Queries, Mode, *joinindex.Index) (exec.Operator, error){
			"Q3":  (*Queries).Q3,
			"Q7":  (*Queries).Q7,
			"Q12": (*Queries).Q12,
		}
		hand := map[string]func(*Queries, Mode, *joinindex.Index) (exec.Operator, error){
			"Q3":  (*Queries).handQ3,
			"Q7":  (*Queries).handQ7,
			"Q12": (*Queries).handQ12,
		}
		for _, name := range []string{"Q3", "Q7", "Q12"} {
			for _, mode := range []Mode{ModeReference, ModePatchIndex, ModeZBP, ModeJoinIndex} {
				q := ds.Queries()
				want := runToKey(t, q, hand[name], mode, ji)
				got := runToKey(t, q, general[name], mode, ji)
				q.Close()
				if got != want {
					t.Errorf("e=%v %s %v: general layer diverges from hand-built plan\ngeneral:\n%s\nhand-built:\n%s",
						e, name, mode, got, want)
				}
			}
		}
	}
}

func runToKey(t *testing.T, q *Queries, build func(*Queries, Mode, *joinindex.Index) (exec.Operator, error), mode Mode, ji *joinindex.Index) string {
	t.Helper()
	op, err := build(q, mode, ji)
	if err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	rows, err := ResultRows(op)
	if err != nil {
		t.Fatal(err)
	}
	return rowsKey(sortRows(rows))
}

// BenchmarkOptimizedVsHandBuilt compares the generically lowered plans
// against the preserved hand-built trees — the refactor must not cost
// measurable execution time (compilation is included; it is dwarfed by
// execution).
func BenchmarkOptimizedVsHandBuilt(b *testing.B) {
	ds, err := Generate(Config{SF: 0.01, ExceptionRate: 0.01, LineitemPartitions: 3, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	if err := ds.CreatePatchIndex(); err != nil {
		b.Fatal(err)
	}
	q := ds.Queries()
	defer q.Close()

	run := func(b *testing.B, build func(*Queries, Mode, *joinindex.Index) (exec.Operator, error)) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			op, err := build(q, ModePatchIndex, nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ResultRows(op); err != nil {
				b.Fatal(err)
			}
			op.Close()
		}
	}
	b.Run("Q3/general", func(b *testing.B) { run(b, (*Queries).Q3) })
	b.Run("Q3/handbuilt", func(b *testing.B) { run(b, (*Queries).handQ3) })
	b.Run("Q12/general", func(b *testing.B) { run(b, (*Queries).Q12) })
	b.Run("Q12/handbuilt", func(b *testing.B) { run(b, (*Queries).handQ12) })
}
