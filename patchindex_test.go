package patchindex

import (
	"fmt"
	"sort"
	"testing"
)

// TestFacadeEndToEnd exercises the public API: table DDL, both
// constraint kinds, queries in all plan modes, and the update path.
func TestFacadeEndToEnd(t *testing.T) {
	db := NewDatabase()
	tb, err := db.CreateTable("t", Schema{
		{Name: "id", Kind: KindInt64},
		{Name: "ts", Kind: KindInt64},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, 2000)
	for i := range rows {
		id := int64(i)
		if i%100 == 99 {
			id = int64(i - 1) // duplicates
		}
		ts := int64(i)
		if i%50 == 49 {
			ts = int64(i - 40) // out of order
		}
		rows[i] = Row{I64(id), I64(ts)}
	}
	tb.Load(rows)

	if err := tb.CreatePatchIndex("id", NearlyUnique, IndexOptions{Design: DesignBitmap}); err != nil {
		t.Fatal(err)
	}
	if err := tb.CreatePatchIndex("ts", NearlySorted, IndexOptions{Design: DesignIdentifier}); err != nil {
		t.Fatal(err)
	}
	if e := tb.ExceptionRate("id"); e <= 0 || e > 0.1 {
		t.Fatalf("id exception rate = %f", e)
	}

	// Distinct in all modes agrees.
	distinctIDs := From("t", "id").Distinct("id")
	countIDs := func(mode PlanMode) int {
		t.Helper()
		c, err := Run(db, distinctIDs, QueryOptions{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		n, err := Count(c.Root)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	var want int
	for _, mode := range []PlanMode{PlanReference, PlanAuto, PlanPatchIndex} {
		n := countIDs(mode)
		if mode == PlanReference {
			want = n
		} else if n != want {
			t.Fatalf("mode %d distinct = %d, want %d", mode, n, want)
		}
	}

	// Sort query returns a sorted result.
	c, err := Run(db, From("t", "ts").OrderBy(Asc("ts")), QueryOptions{Mode: PlanPatchIndex})
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectInt64(c.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2000 || !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("sort query wrong: %d rows", len(got))
	}

	// Updates through the facade: the exclusive-lock insert, the
	// partition-parallel batched inserts, and a predicate delete.
	if err := db.Insert("t", []Row{{I64(99999), I64(99999)}}); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("t", []Row{{I64(100001), I64(100001)}, {I64(100002), I64(100002)}}); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRowsPartition("t", 1, []Row{{I64(100003), I64(100003)}}); err != nil {
		t.Fatal(err)
	}
	// A batched re-insert of an existing id must still be detected as a
	// uniqueness violation (it may live in either partition).
	if err := db.InsertRows("t", []Row{{I64(500), I64(200100)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DeleteWhereInt64("t", "id", func(v int64) bool { return v < 10 }); err != nil {
		t.Fatal(err)
	}
	if n1, n2 := countIDs(PlanPatchIndex), countIDs(PlanReference); n1 != n2 {
		t.Fatalf("plans disagree after updates: %d vs %d", n1, n2)
	}

	// Boxed value helpers.
	if I64(3).I != 3 || F64(1.5).F != 1.5 || Str("x").S != "x" {
		t.Fatal("value constructors broken")
	}
	c, err = Run(db, From("t", "id"), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rowsOut, err := Collect(c.Root)
	if err != nil || len(rowsOut) == 0 {
		t.Fatalf("Collect: %d rows, err=%v", len(rowsOut), err)
	}
}

// ExampleRun is the package-doc quickstart: an ORDER BY over a nearly
// sorted column, the access path left to the chooser.
func ExampleRun() {
	db := NewDatabase()
	t, _ := db.CreateTable("events", Schema{
		{Name: "id", Kind: KindInt64},
		{Name: "ts", Kind: KindInt64},
	}, 4)
	rows := make([]Row, 8)
	for i := range rows {
		rows[i] = Row{I64(int64(i)), I64(int64(100 + i))}
	}
	rows[5][1] = I64(42) // one late arrival
	t.Load(rows)
	t.CreatePatchIndex("ts", NearlySorted, IndexOptions{})

	c, err := Run(db, From("events", "ts").OrderBy(Asc("ts")), QueryOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	ts, _ := CollectInt64(c.Root)
	fmt.Println(ts)
	// Output:
	// [42 100 101 102 103 104 106 107]
}

// ExampleCompiled_decisions runs what the facade could not state before
// it re-exported the query layer — a predicate, a join and an aggregate
// in one plan — and reads back what the chooser decided for the join.
func ExampleCompiled_decisions() {
	db := NewDatabase()
	orders, _ := db.CreateTable("orders", Schema{
		{Name: "o_id", Kind: KindInt64},
		{Name: "o_cust", Kind: KindString},
	}, 1)
	items, _ := db.CreateTable("items", Schema{
		{Name: "i_order", Kind: KindInt64},
		{Name: "i_price", Kind: KindInt64},
	}, 2)
	var orderRows, itemRows []Row
	for o := 0; o < 100; o++ {
		orderRows = append(orderRows, Row{I64(int64(o)), Str([]string{"ann", "bob"}[o%2])})
		for k := 0; k < 3; k++ {
			itemRows = append(itemRows, Row{I64(int64(o)), I64(int64(10 + k))})
		}
	}
	itemRows[7][0] = I64(90) // a line item filed out of order
	orders.Load(orderRows)
	items.Load(itemRows)
	items.CreatePatchIndex("i_order", NearlySorted, IndexOptions{})

	revenue := From("items", "i_order", "i_price").
		Where(Lt(Col("i_order"), Int(50))).
		Join(From("orders", "o_id", "o_cust"), "i_order", "o_id").
		Aggregate([]string{"o_cust"}, Sum(Col("i_price"), "revenue")).
		OrderBy(Asc("o_cust"))
	for _, mode := range []PlanMode{PlanAuto, PlanReference} {
		c, err := Run(db, revenue, QueryOptions{Mode: mode})
		if err != nil {
			fmt.Println(err)
			return
		}
		rows, _ := Collect(c.Root)
		for _, r := range rows {
			fmt.Println(r[0].S, r[1].I)
		}
		for _, d := range c.Decisions {
			fmt.Printf("%s plan, forced=%v, over %d rows with %d patches\n", d.Access, d.Forced, d.FactRows, d.Patches)
		}
	}
	// Output:
	// ann 814
	// bob 825
	// patchindex plan, forced=false, over 300 rows with 1 patches
	// ann 814
	// bob 825
	// reference plan, forced=true, over 300 rows with 1 patches
}
