package tpch

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"patchindex/internal/exec"
	"patchindex/internal/joinindex"
	"patchindex/internal/storage"
)

func smallDataset(t *testing.T, e float64) *Dataset {
	t.Helper()
	ds, err := Generate(Config{SF: 0.002, ExceptionRate: e, LineitemPartitions: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.CreatePatchIndex(); err != nil {
		t.Fatal(err)
	}
	return ds
}

func rowsKey(rows []storage.Row) string {
	s := ""
	for _, r := range rows {
		for _, v := range r {
			if v.Kind == storage.KindFloat64 {
				s += fmt.Sprintf("|%.4f", v.F)
			} else {
				s += "|" + v.String()
			}
		}
		s += "\n"
	}
	return s
}

func sortRows(rows []storage.Row) []storage.Row {
	// Canonicalize by string key for unordered comparison.
	out := append([]storage.Row{}, rows...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && rowsKey([]storage.Row{out[j]}) < rowsKey([]storage.Row{out[j-1]}); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func TestGenerateShape(t *testing.T) {
	ds := smallDataset(t, 0.05)
	if ds.NumOrders < 100 || ds.NumLineitems < ds.NumOrders {
		t.Fatalf("dataset too small: %s", ds)
	}
	if got := ds.DB.MustTable("lineitem").NumRows(); got != ds.NumLineitems {
		t.Fatalf("lineitem rows = %d, want %d", got, ds.NumLineitems)
	}
	// Discovered exception rate tracks the configured perturbation.
	e := ds.ExceptionRate()
	if e < 0.01 || e > 0.06 {
		t.Fatalf("discovered e = %f, want ~0.05", e)
	}
	// Orders must be sorted by orderkey (dimension-side requirement).
	keys := ds.DB.MustTable("orders").ReadInt64Column(0, "o_orderkey")
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			t.Fatal("orders not sorted by o_orderkey")
		}
	}
}

func TestGenerateCleanHasZeroExceptions(t *testing.T) {
	ds := smallDataset(t, 0)
	if e := ds.ExceptionRate(); e != 0 {
		t.Fatalf("clean dataset e = %f", e)
	}
}

func TestDateHelpers(t *testing.T) {
	if Date(1992, 1, 1) != 0 {
		t.Fatal("epoch wrong")
	}
	if Date(1995, 3, 15) <= Date(1995, 3, 1) {
		t.Fatal("date ordering wrong")
	}
	if Year(Date(1995, 6, 1)) != 1995 {
		t.Fatalf("Year = %d", Year(Date(1995, 6, 1)))
	}
	if NationKey("FRANCE") == -1 || NationKey("NOPE") != -1 {
		t.Fatal("NationKey broken")
	}
}

// TestQueriesAgreeAcrossModes is the TPC-H integration property: every
// query returns identical results in every execution mode.
func TestQueriesAgreeAcrossModes(t *testing.T) {
	for _, e := range []float64{0, 0.05} {
		ds := smallDataset(t, e)
		ji := ds.CreateJoinIndex()
		queries := map[string]func(Mode, *joinindex.Index) (exec.Operator, error){
			"Q3":  ds.Q3,
			"Q7":  ds.Q7,
			"Q12": ds.Q12,
		}
		for name, q := range queries {
			ref, err := q(ModeReference, nil)
			if err != nil {
				t.Fatalf("%s reference: %v", name, err)
			}
			want, err := ResultRows(ref)
			if err != nil {
				t.Fatalf("%s reference: %v", name, err)
			}
			if name != "Q3" && len(want) == 0 {
				t.Fatalf("%s returned no rows; weak test", name)
			}
			modes := []Mode{ModePatchIndex, ModeJoinIndex}
			if e == 0 {
				modes = append(modes, ModeZBP)
			}
			for _, mode := range modes {
				op, err := q(mode, ji)
				if err != nil {
					t.Fatalf("%s %v: %v", name, mode, err)
				}
				got, err := ResultRows(op)
				if err != nil {
					t.Fatalf("%s %v: %v", name, mode, err)
				}
				if rowsKey(sortRows(got)) != rowsKey(sortRows(want)) {
					t.Fatalf("e=%.2f %s %v disagrees with reference:\n got %d rows\nwant %d rows",
						e, name, mode, len(got), len(want))
				}
			}
		}
	}
}

func TestQ12HasBothCounts(t *testing.T) {
	ds := smallDataset(t, 0.05)
	op, err := ds.Q12(ModeReference, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ResultRows(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || len(rows) > 2 {
		t.Fatalf("Q12 groups = %d, want 1..2 (MAIL, SHIP)", len(rows))
	}
	for _, r := range rows {
		if r[1].I+r[2].I == 0 {
			t.Fatal("Q12 group with zero lines")
		}
	}
}

func TestQ3Top10Ordered(t *testing.T) {
	ds := smallDataset(t, 0.05)
	op, err := ds.Q3(ModePatchIndex, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ResultRows(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) > 10 {
		t.Fatalf("Q3 returned %d rows, want <= 10", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i][3].F > rows[i-1][3].F+1e-9 {
			t.Fatal("Q3 not ordered by revenue desc")
		}
	}
}

func TestRF1MaintainsIndexAndQueries(t *testing.T) {
	ds := smallDataset(t, 0.05)
	ji := ds.CreateJoinIndex()
	liBefore := ds.NumLineitems
	n, err := ds.RF1(10, ji)
	if err != nil {
		t.Fatal(err)
	}
	if n < 10 || ds.NumLineitems != liBefore+n {
		t.Fatalf("RF1 inserted %d lineitems", n)
	}
	// All modes must still agree after the refresh.
	want, err := ResultRows(mustOp(t)(ds.Q3(ModeReference, nil)))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModePatchIndex, ModeJoinIndex} {
		got, err := ResultRows(mustOp(t)(ds.Q3(mode, ji)))
		if err != nil {
			t.Fatal(err)
		}
		if rowsKey(sortRows(got)) != rowsKey(sortRows(want)) {
			t.Fatalf("Q3 %v disagrees after RF1", mode)
		}
	}
}

func TestRF2MaintainsIndexAndQueries(t *testing.T) {
	ds := smallDataset(t, 0.05)
	ji := ds.CreateJoinIndex()
	liBefore := ds.NumLineitems
	n, err := ds.RF2(20, ji)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || ds.NumLineitems != liBefore-n {
		t.Fatalf("RF2 deleted %d lineitems", n)
	}
	want, err := ResultRows(mustOp(t)(ds.Q7(ModeReference, nil)))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModePatchIndex, ModeJoinIndex} {
		got, err := ResultRows(mustOp(t)(ds.Q7(mode, ji)))
		if err != nil {
			t.Fatal(err)
		}
		if rowsKey(sortRows(got)) != rowsKey(sortRows(want)) {
			t.Fatalf("Q7 %v disagrees after RF2", mode)
		}
	}
}

func TestRefreshCycleRepeated(t *testing.T) {
	ds := smallDataset(t, 0.05)
	for i := 0; i < 3; i++ {
		if _, err := ds.RF1(5, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := ds.RF2(5, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, x := range ds.DB.MustTable("lineitem").PatchIndexes("l_orderkey") {
		if err := x.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// Query still runs.
	rows, err := ResultRows(mustOp(t)(ds.Q12(ModePatchIndex, nil)))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if math.IsNaN(float64(r[1].I)) {
			t.Fatal("bad aggregation")
		}
	}
}

func mustOp(t *testing.T) func(exec.Operator, error) exec.Operator {
	return func(op exec.Operator, err error) exec.Operator {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return op
	}
}

func TestModeNames(t *testing.T) {
	names := map[Mode]string{
		ModeReference:  "w/o constraint",
		ModePatchIndex: "PI",
		ModeZBP:        "PI_ZBP",
		ModeJoinIndex:  "JoinIndex",
	}
	for m, want := range names {
		if m.String() != want {
			t.Fatalf("Mode(%d) = %q, want %q", m, m.String(), want)
		}
	}
}

func TestJoinIndexModeRequiresIndex(t *testing.T) {
	ds := smallDataset(t, 0)
	if _, err := ds.Q3(ModeJoinIndex, nil); err == nil {
		t.Fatal("ModeJoinIndex without index did not error")
	}
}

// TestSnapshotQueriesUnderRefreshStream races DatabaseSnapshot-based
// queries against the RF1/RF2 refresh stream. Each refresh keeps the
// cross-table invariant "every lineitem's orderkey exists in orders" at
// every update-query boundary (RF1 inserts orders before their
// lineitems; RF2 deletes lineitems before their orders), so an atomic
// multi-table snapshot must always satisfy it — per-table snapshots
// captured at their own instants could see a lineitem batch whose
// orders are missing. On the same snapshot, the patch-indexed Q12 plan
// must agree with the full-scan reference plan. Run with -race.
func TestSnapshotQueriesUnderRefreshStream(t *testing.T) {
	ds := smallDataset(t, 0.05)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // updater: the refresh stream
		defer wg.Done()
		defer close(done)
		for r := 0; r < 12; r++ {
			if _, err := ds.RF1(4, nil); err != nil {
				t.Error(err)
				return
			}
			if _, err := ds.RF2(4, nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	wg.Add(1)
	go func() { // reader
		defer wg.Done()
		checkOnce := func() bool {
			snap := ds.Snapshot()
			q := ds.QueriesAt(snap)
			defer q.Close() // closes snap

			// Cross-table prefix consistency of the captured instant.
			collect := func(table, column string) ([]int64, error) {
				op, err := snap.Table(table).ScanAll(column)
				if err != nil {
					return nil, err
				}
				return exec.CollectInt64(op)
			}
			liKeys, err := collect("lineitem", "l_orderkey")
			if err != nil {
				t.Error(err)
				return false
			}
			ordKeys, err := collect("orders", "o_orderkey")
			if err != nil {
				t.Error(err)
				return false
			}
			ordSet := make(map[int64]bool, len(ordKeys))
			for _, k := range ordKeys {
				ordSet[k] = true
			}
			for _, k := range liKeys {
				if !ordSet[k] {
					t.Errorf("snapshot holds lineitem with orderkey %d but no such order", k)
					return false
				}
			}

			// Both plans on the same snapshot agree. (t.Fatal is not
			// legal off the test goroutine, so no mustOp here.)
			refOp, err := q.Q12(ModeReference, nil)
			if err != nil {
				t.Error(err)
				return false
			}
			want, err := ResultRows(refOp)
			if err != nil {
				t.Error(err)
				return false
			}
			piOp, err := q.Q12(ModePatchIndex, nil)
			if err != nil {
				t.Error(err)
				return false
			}
			got, err := ResultRows(piOp)
			if err != nil {
				t.Error(err)
				return false
			}
			if rowsKey(sortRows(got)) != rowsKey(sortRows(want)) {
				t.Error("Q12 plans disagree on one snapshot under refresh load")
				return false
			}
			return true
		}
		for {
			select {
			case <-done:
				return
			default:
			}
			if !checkOnce() {
				return
			}
		}
	}()
	wg.Wait()

	// The stream must have left the index consistent.
	for _, x := range ds.DB.MustTable("lineitem").PatchIndexes("l_orderkey") {
		if err := x.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConvenienceQueriesDontWedgeReorderGuard: the Dataset.Q3/Q7/Q12
// wrappers hold their ephemeral snapshot only until the returned
// operator is drained — a drained one releases its refs on its own, so
// repeated convenience queries leave none behind — and a physical
// reorder of a table an in-flight query reads proceeds without changing
// its result. An explicitly held Queries snapshot holds its refs until
// Close.
func TestConvenienceQueriesDontWedgeReorderGuard(t *testing.T) {
	ds := smallDataset(t, 0)
	orders := ds.DB.MustTable("orders")
	want, err := ds.Q12(ModePatchIndex, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantRows, err := ResultRows(want)
	if err != nil {
		t.Fatal(err)
	}
	op, err := ds.Q12(ModePatchIndex, nil)
	if err != nil {
		t.Fatal(err)
	}
	if orders.Store().LiveSnapshotRefs() == 0 {
		t.Fatal("an in-flight convenience query holds no ref")
	}
	reverse := func(part *storage.Partition) []int {
		perm := make([]int, part.NumRows())
		for i := range perm {
			perm[i] = len(perm) - 1 - i
		}
		return perm
	}
	if err := orders.ReorderStorage(reverse); err != nil {
		t.Fatalf("reorder under an in-flight convenience query: %v", err)
	}
	gotRows, err := ResultRows(op)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(gotRows) != fmt.Sprint(wantRows) {
		t.Fatal("a reorder changed the result of a query in flight")
	}
	if n := orders.Store().LiveSnapshotRefs(); n != 0 {
		t.Fatalf("%d ref(s) left after a drained convenience query", n)
	}
	q := ds.Queries()
	if orders.Store().LiveSnapshotRefs() == 0 {
		t.Fatal("an open Queries snapshot holds no ref")
	}
	q.Close()
	if n := orders.Store().LiveSnapshotRefs(); n != 0 {
		t.Fatalf("%d ref(s) left after Queries.Close", n)
	}
}

// TestJoinIndexPlanSurvivesRefreshAfterBuild: the reference columns of
// a Queries' JoinIndex plans are captured once, at the first
// JoinIndex-mode build, and pinned. Refresh maintenance (which rewrites
// ji.refs in place) after that capture must change neither a plan
// already built (drained later) nor a plan built later from the same
// Queries — both still gather through the pinned, snapshot-consistent
// references.
func TestJoinIndexPlanSurvivesRefreshAfterBuild(t *testing.T) {
	ds := smallDataset(t, 0.05)
	ji := ds.CreateJoinIndex()
	q := ds.QueriesAt(ds.Snapshot())
	defer q.Close()
	beforeOp := mustOp(t)(q.Q3(ModeJoinIndex, ji)) // captures+pins the refs
	pendingOp := mustOp(t)(q.Q3(ModeJoinIndex, ji))
	want, err := ResultRows(beforeOp) // drained before the refresh
	if err != nil {
		t.Fatal(err)
	}
	// Two refresh rounds rewrite refs in place and shift dim rowIDs.
	if _, err := ds.RF2(10, ji); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.RF1(10, ji); err != nil {
		t.Fatal(err)
	}
	got, err := ResultRows(pendingOp) // built before, drained after
	if err != nil {
		t.Fatal(err)
	}
	if rowsKey(sortRows(got)) != rowsKey(sortRows(want)) {
		t.Fatal("JoinIndex plan result changed when refresh ran between build and drain")
	}
	lateOp := mustOp(t)(q.Q3(ModeJoinIndex, ji)) // built after the refresh
	late, err := ResultRows(lateOp)
	if err != nil {
		t.Fatal(err)
	}
	if rowsKey(sortRows(late)) != rowsKey(sortRows(want)) {
		t.Fatal("JoinIndex plan built after refresh on the same snapshot disagrees")
	}

	// A FRESH Queries whose first JoinIndex capture would happen after
	// maintenance is refused via the version check rather than
	// gathering misaligned references.
	stale := ds.QueriesAt(ds.Snapshot())
	defer stale.Close()
	if _, err := ds.RF2(5, ji); err != nil {
		t.Fatal(err)
	}
	if _, err := stale.Q3(ModeJoinIndex, ji); err == nil {
		t.Fatal("stale JoinIndex capture was not refused")
	}
	if _, err := stale.Q3(ModePatchIndex, nil); err != nil {
		t.Fatalf("non-JoinIndex modes must still work on the stale-bound Queries: %v", err)
	}
}
