package patchindex

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"
)

var allModes = []PlanMode{PlanReference, PlanAuto, PlanPatchIndex}

// runRows runs p in mode and collects its rows.
func runRows(t *testing.T, db *Database, p *Plan, mode PlanMode) []Row {
	t.Helper()
	c, err := Run(db, p, QueryOptions{Mode: mode})
	if err != nil {
		t.Fatalf("mode %d: %v", mode, err)
	}
	rows, err := Collect(c.Root)
	if err != nil {
		t.Fatalf("mode %d: %v", mode, err)
	}
	return rows
}

// TestDescendingNSCAtMinInt64: a descending NSC over a column holding
// MinInt64 orders it last, in every plan mode, both when the index is
// discovered over the rows and when insert handling maintains it.
func TestDescendingNSCAtMinInt64(t *testing.T) {
	vals := []Row{{I64(math.MinInt64)}, {I64(5)}, {I64(4)}}
	for _, viaInsert := range []bool{false, true} {
		db := NewDatabase()
		tb, err := db.CreateTable("t", Schema{{Name: "v", Kind: KindInt64}}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !viaInsert {
			tb.Load(vals)
		}
		if err := tb.CreatePatchIndex("v", NearlySorted, IndexOptions{Descending: true}); err != nil {
			t.Fatal(err)
		}
		if viaInsert {
			if err := db.Insert("t", vals); err != nil {
				t.Fatal(err)
			}
		}
		for _, mode := range allModes {
			c, err := Run(db, From("t", "v").OrderBy(Desc("v")), QueryOptions{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			got, err := CollectInt64(c.Root)
			if err != nil {
				t.Fatal(err)
			}
			if want := []int64{5, 4, math.MinInt64}; !slices.Equal(got, want) {
				t.Errorf("insert=%v mode %d: ORDER BY v DESC = %v, want %v", viaInsert, mode, got, want)
			}
		}
	}
}

// TestOrderByDoubleWithNaN: ORDER BY over a DOUBLE column holding NaN
// is sorted in the documented order (NaN first), and every mode agrees.
func TestOrderByDoubleWithNaN(t *testing.T) {
	db := NewDatabase()
	tb, err := db.CreateTable("t", Schema{{Name: "f", Kind: KindFloat64}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	var rows []Row
	for _, f := range []float64{3, nan, 1, 2, nan, 0.5, 4, nan, -1} {
		rows = append(rows, Row{F64(f)})
	}
	tb.Load(rows)
	var first string
	for _, mode := range allModes {
		var got []float64
		for _, r := range runRows(t, db, From("t", "f").OrderBy(Asc("f")), mode) {
			got = append(got, r[0].F)
		}
		if len(got) != len(rows) || !slices.IsSortedFunc(got, cmp.Compare[float64]) {
			t.Fatalf("mode %d: ORDER BY f = %v, not sorted", mode, got)
		}
		if s := fmt.Sprint(got); first == "" {
			first = s
		} else if s != first {
			t.Fatalf("mode %d: %s, another mode returned %s", mode, s, first)
		}
	}
}

// TestDistinctAndGroupByDouble: DISTINCT and GROUP BY over a DOUBLE
// column work in every plan mode, with −0 grouped with 0 and every NaN
// in one group.
func TestDistinctAndGroupByDouble(t *testing.T) {
	db := NewDatabase()
	tb, err := db.CreateTable("t", Schema{{Name: "f", Kind: KindFloat64}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var rows []Row
	for _, f := range []float64{1.5, math.Copysign(0, -1), 0, math.NaN(), math.NaN(), 1.5, 2} {
		rows = append(rows, Row{F64(f)})
	}
	tb.Load(rows)
	for _, mode := range allModes {
		if n := len(runRows(t, db, From("t", "f").Distinct("f"), mode)); n != 4 {
			t.Errorf("mode %d: DISTINCT f returned %d rows, want 4", mode, n)
		}
		counts := map[string]int64{}
		for _, r := range runRows(t, db, From("t", "f").Aggregate([]string{"f"}, CountAll("n")), mode) {
			counts[fmt.Sprint(math.Abs(r[0].F))] = r[1].I
		}
		if want := map[string]int64{"1.5": 2, "0": 2, "NaN": 2, "2": 1}; fmt.Sprint(counts) != fmt.Sprint(want) {
			t.Errorf("mode %d: GROUP BY f counts = %v, want %v", mode, counts, want)
		}
	}
}
