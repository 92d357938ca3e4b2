package storage

import (
	"testing"
)

func testSchema() Schema {
	return Schema{
		{Name: "key", Kind: KindInt64},
		{Name: "val", Kind: KindInt64},
		{Name: "name", Kind: KindString},
	}
}

func TestColumnAppendGetSet(t *testing.T) {
	c := NewColumn("x", KindInt64)
	for i := int64(0); i < 10; i++ {
		c.Append(I64(i * 2))
	}
	if c.Len() != 10 {
		t.Fatalf("Len = %d, want 10", c.Len())
	}
	if got := c.Get(5); got.I != 10 {
		t.Fatalf("Get(5) = %v, want 10", got)
	}
	c.Set(5, I64(-1))
	if got := c.Int64At(5); got != -1 {
		t.Fatalf("after Set, Int64At(5) = %d", got)
	}
}

func TestColumnKindMismatchPanics(t *testing.T) {
	c := NewColumn("x", KindInt64)
	defer func() {
		if recover() == nil {
			t.Fatal("appending string to int64 column did not panic")
		}
	}()
	c.Append(Str("boom"))
}

func TestColumnDeletePositions(t *testing.T) {
	c := NewColumn("x", KindInt64)
	for i := int64(0); i < 10; i++ {
		c.AppendInt64(i)
	}
	c.DeletePositions([]uint64{0, 4, 9})
	want := []int64{1, 2, 3, 5, 6, 7, 8}
	if c.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(want))
	}
	for i, w := range want {
		if c.Int64At(i) != w {
			t.Fatalf("pos %d = %d, want %d", i, c.Int64At(i), w)
		}
	}
}

func TestColumnDeletePositionsStrings(t *testing.T) {
	c := NewColumn("s", KindString)
	for _, s := range []string{"a", "b", "c", "d"} {
		c.Append(Str(s))
	}
	c.DeletePositions([]uint64{1, 2})
	if c.Len() != 2 || c.StringAt(0) != "a" || c.StringAt(1) != "d" {
		t.Fatalf("unexpected contents after delete: %v", c.Strings())
	}
}

func TestValueLessEqual(t *testing.T) {
	if !I64(1).Less(I64(2)) || I64(2).Less(I64(1)) {
		t.Fatal("int64 Less broken")
	}
	if !F64(1.5).Less(F64(2.5)) {
		t.Fatal("float64 Less broken")
	}
	if !Str("a").Less(Str("b")) {
		t.Fatal("string Less broken")
	}
	if !I64(3).Equal(I64(3)) || I64(3).Equal(I64(4)) {
		t.Fatal("Equal broken")
	}
}

func TestSchemaColumnIndex(t *testing.T) {
	s := testSchema()
	if s.ColumnIndex("val") != 1 {
		t.Fatal("ColumnIndex(val) != 1")
	}
	if s.ColumnIndex("missing") != -1 {
		t.Fatal("ColumnIndex(missing) != -1")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustColumnIndex(missing) did not panic")
		}
	}()
	s.MustColumnIndex("missing")
}

func TestPartitionAppendDelete(t *testing.T) {
	p := NewPartition(testSchema())
	for i := int64(0); i < 5; i++ {
		p.AppendRow(Row{I64(i), I64(i * 10), Str("r")})
	}
	if p.NumRows() != 5 {
		t.Fatalf("NumRows = %d, want 5", p.NumRows())
	}
	p.DeleteRows([]uint64{1, 3})
	if p.NumRows() != 3 {
		t.Fatalf("NumRows = %d, want 3", p.NumRows())
	}
	wantKeys := []int64{0, 2, 4}
	for i, w := range wantKeys {
		if got := p.Column(0).Int64At(i); got != w {
			t.Fatalf("key[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestPartitionRowWidthPanics(t *testing.T) {
	p := NewPartition(testSchema())
	defer func() {
		if recover() == nil {
			t.Fatal("short row did not panic")
		}
	}()
	p.AppendRow(Row{I64(1)})
}

func TestTableLoadRowsPartitioning(t *testing.T) {
	tb := NewTable("t", testSchema(), 4)
	rows := make([]Row, 100)
	for i := range rows {
		rows[i] = Row{I64(int64(i)), I64(0), Str("x")}
	}
	tb.LoadRows(rows)
	if tb.NumRows() != 100 {
		t.Fatalf("NumRows = %d, want 100", tb.NumRows())
	}
	for i := 0; i < 4; i++ {
		if n := tb.Partition(i).NumRows(); n != 25 {
			t.Fatalf("partition %d has %d rows, want 25", i, n)
		}
	}
	// Contiguous chunks: partition 1 starts at key 25.
	if got := tb.Partition(1).Column(0).Int64At(0); got != 25 {
		t.Fatalf("partition 1 first key = %d, want 25", got)
	}
}

// TestPermuteAndExtendBuildNewPartitions: both rewrites return a new
// partition and leave the source, and views frozen from it, as they
// were; Permute accepts only a permutation of the source's rows.
func TestPermuteAndExtendBuildNewPartitions(t *testing.T) {
	p := NewPartition(testSchema())
	for i := int64(0); i < 4; i++ {
		p.AppendRow(Row{I64(i), I64(10 * i), Str(string(rune('a' + i)))})
	}
	frozen := p.Freeze()
	q, err := p.Permute([]int{3, 1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Column(0).Int64s(); got[0] != 3 || got[1] != 1 || got[2] != 0 || got[3] != 2 {
		t.Fatalf("permuted keys = %v", got)
	}
	if q.Column(1).Int64At(0) != 30 || q.Column(2).StringAt(0) != "d" {
		t.Fatal("payload columns not permuted with the key")
	}
	for _, bad := range [][]int{{0, 1, 2}, {0, 1, 2, 2}, {0, 1, 2, 4}, {-1, 1, 2, 3}} {
		if _, err := p.Permute(bad); err == nil {
			t.Fatalf("Permute accepted %v", bad)
		}
	}
	e := p.Extend([]Row{{I64(9), I64(90), Str("z")}})
	if e.NumRows() != 5 || e.Column(2).StringAt(4) != "z" {
		t.Fatalf("extended partition has %d rows", e.NumRows())
	}
	for i := 0; i < 4; i++ {
		if p.Column(0).Int64At(i) != int64(i) || frozen.Column(0).Int64At(i) != int64(i) {
			t.Fatalf("row %d of the source changed", i)
		}
	}
	if p.NumRows() != 4 {
		t.Fatalf("source has %d rows, want 4", p.NumRows())
	}
}

func TestMinMaxBuildAndPrune(t *testing.T) {
	data := make([]int64, 3*BlockRows)
	for i := range data {
		data[i] = int64(i)
	}
	m := BuildMinMax(data)
	if m.Blocks() != 3 {
		t.Fatalf("Blocks = %d, want 3", m.Blocks())
	}
	lo, hi := m.BlockRange(1)
	if lo != int64(BlockRows) || hi != int64(2*BlockRows-1) {
		t.Fatalf("BlockRange(1) = [%d,%d]", lo, hi)
	}
	// A point range inside block 1 selects only block 1.
	blocks := m.PruneBlocks([]Range{{Min: int64(BlockRows + 5), Max: int64(BlockRows + 5)}})
	if len(blocks) != 1 || blocks[0] != 1 {
		t.Fatalf("PruneBlocks = %v, want [1]", blocks)
	}
	// Empty ranges select nothing.
	if got := m.PruneBlocks([]Range{}); len(got) != 0 {
		t.Fatalf("PruneBlocks(empty) = %v, want none", got)
	}
	// Nil means no information: all blocks.
	if got := m.PruneBlocks(nil); len(got) != 3 {
		t.Fatalf("PruneBlocks(nil) = %v, want all", got)
	}
}

func TestMinMaxSelectedRowsClipped(t *testing.T) {
	data := make([]int64, BlockRows+10)
	for i := range data {
		data[i] = int64(i)
	}
	m := BuildMinMax(data)
	rows := m.SelectedRows([]int{0, 1})
	if len(rows) != 2 {
		t.Fatalf("SelectedRows = %v", rows)
	}
	if rows[1][0] != BlockRows || rows[1][1] != BlockRows+10 {
		t.Fatalf("second interval = %v, want [%d,%d)", rows[1], BlockRows, BlockRows+10)
	}
}

// TestMinMaxIncrementalAdd extends a summary by appended rows: the
// partial last block folds them into its bounds, later blocks are new,
// and the extended prefix is left untouched.
func TestMinMaxIncrementalAdd(t *testing.T) {
	data := make([]int64, 2*BlockRows+5)
	for i := range data {
		data[i] = int64(len(data) - i)
	}
	m := BuildMinMax(data[:50])
	e := m.extend(data)
	if m.Rows() != 50 || m.Blocks() != 1 {
		t.Fatalf("extend modified its receiver: %d rows, %d blocks", m.Rows(), m.Blocks())
	}
	if lo, hi := m.BlockRange(0); lo != int64(len(data)-49) || hi != int64(len(data)) {
		t.Fatalf("receiver BlockRange = [%d,%d]", lo, hi)
	}
	if err := sameSummary(e, BuildMinMax(data)); err != nil {
		t.Fatal(err)
	}
}

func TestRangesFromValues(t *testing.T) {
	r := RangesFromValues([]int64{10, 11, 12, 50, 51, 100}, 1)
	want := []Range{{10, 12}, {50, 51}, {100, 100}}
	if len(r) != len(want) {
		t.Fatalf("ranges = %v, want %v", r, want)
	}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ranges = %v, want %v", r, want)
		}
	}
	if got := RangesFromValues(nil, 1); len(got) != 0 {
		t.Fatalf("RangesFromValues(nil) = %v", got)
	}
	// Unsorted input must be handled.
	r2 := RangesFromValues([]int64{100, 10, 11}, 1)
	if len(r2) != 2 || r2[0].Min != 10 {
		t.Fatalf("unsorted input ranges = %v", r2)
	}
}

func TestRangeHelpers(t *testing.T) {
	r := Range{Min: 5, Max: 10}
	if !r.Contains(5) || !r.Contains(10) || r.Contains(11) || r.Contains(4) {
		t.Fatal("Contains broken")
	}
	if !r.Intersects(10, 20) || r.Intersects(11, 20) {
		t.Fatal("Intersects broken")
	}
}

func TestPartitionMinMaxCaching(t *testing.T) {
	p := NewPartition(testSchema())
	for i := int64(0); i < 10; i++ {
		p.AppendRow(Row{I64(i), I64(i), Str("x")})
	}
	m1 := p.MinMax(0)
	m2 := p.MinMax(0)
	if m1 != m2 {
		t.Fatal("MinMax not cached")
	}
	p.AppendRow(Row{I64(99), I64(99), Str("x")})
	m3 := p.MinMax(0)
	if m3 == m1 {
		t.Fatal("MinMax not invalidated after append")
	}
	if _, hi := m3.BlockRange(0); hi != 99 {
		t.Fatalf("rebuilt minmax max = %d, want 99", hi)
	}
	if p.MinMax(2) != nil {
		t.Fatal("MinMax on string column should be nil")
	}
}

func TestColumnClone(t *testing.T) {
	c := NewColumn("x", KindString)
	c.Append(Str("a"))
	d := c.Clone()
	d.Set(0, Str("b"))
	if c.StringAt(0) != "a" {
		t.Fatal("Clone shares storage")
	}
}

func TestTableSizeBytes(t *testing.T) {
	tb := NewTable("t", Schema{{Name: "k", Kind: KindInt64}}, 2)
	for i := 0; i < 100; i++ {
		tb.Partition(i % 2).AppendRow(Row{I64(int64(i))})
	}
	if got := tb.SizeBytes(); got != 800 {
		t.Fatalf("SizeBytes = %d, want 800", got)
	}
}

func TestColumnFreezeIsolatedFromAppends(t *testing.T) {
	c := NewColumn("x", KindInt64)
	for i := 0; i < 4; i++ {
		c.AppendInt64(int64(i))
	}
	f := c.Freeze()
	c.AppendInt64(99)
	if f.Len() != 4 {
		t.Fatalf("frozen Len = %d, want 4", f.Len())
	}
	if c.Len() != 5 {
		t.Fatalf("live Len = %d, want 5", c.Len())
	}
	for i := 0; i < 4; i++ {
		if f.Int64At(i) != int64(i) {
			t.Fatalf("frozen value %d changed", i)
		}
	}
}

func TestPartitionFreezeAndSetPartition(t *testing.T) {
	tb := NewTable("t", Schema{{Name: "k", Kind: KindInt64}}, 1)
	for i := 0; i < 10; i++ {
		tb.Partition(0).AppendRow(Row{I64(int64(i))})
	}
	frozen := tb.Partition(0).Freeze()
	if frozen.NumRows() != 10 {
		t.Fatalf("frozen NumRows = %d, want 10", frozen.NumRows())
	}
	// Appends to the live partition are invisible to the frozen view.
	tb.Partition(0).AppendRow(Row{I64(100)})
	if frozen.NumRows() != 10 {
		t.Fatalf("frozen NumRows after append = %d, want 10", frozen.NumRows())
	}
	// Publishing a new generation leaves the frozen view untouched.
	next := tb.Partition(0).Clone()
	next.DeleteRows([]uint64{0, 1, 2})
	tb.SetPartition(0, next)
	if tb.Partition(0).NumRows() != 8 {
		t.Fatalf("live NumRows = %d, want 8", tb.Partition(0).NumRows())
	}
	if frozen.NumRows() != 10 || frozen.Column(0).Int64At(0) != 0 {
		t.Fatal("frozen view disturbed by SetPartition")
	}
	// The frozen minmax cache is independent of the live partition's.
	mm := frozen.MinMax(0)
	if mm.Rows() != 10 {
		t.Fatalf("frozen minmax rows = %d, want 10", mm.Rows())
	}
}
