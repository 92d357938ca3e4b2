package joinindex

import (
	"math/rand"
	"sort"
	"testing"

	"patchindex/internal/exec"
	"patchindex/internal/pdt"
	"patchindex/internal/storage"
)

// joinNow runs JoinOn over views captured from the tables' current
// partitions and references captured at the same instant.
func joinNow(ji *Index, fact, dim *storage.Table, factCols, dimCols []int) exec.Operator {
	views := func(t *storage.Table) []*pdt.View {
		vs := make([]*pdt.View, t.NumPartitions())
		for p := range vs {
			vs[p] = pdt.NewView(t.Partition(p), nil)
		}
		return vs
	}
	return ji.JoinOn(views(fact), views(dim), ji.CaptureRefs(), factCols, dimCols)
}

func factDim(factKeys []int64, dimKeys []int64, nparts int) (*storage.Table, *storage.Table) {
	fschema := storage.Schema{
		{Name: "fk", Kind: storage.KindInt64},
		{Name: "val", Kind: storage.KindInt64},
	}
	fact := storage.NewTable("fact", fschema, nparts)
	rows := make([]storage.Row, len(factKeys))
	for i, k := range factKeys {
		rows[i] = storage.Row{storage.I64(k), storage.I64(int64(i))}
	}
	fact.LoadRows(rows)

	dschema := storage.Schema{
		{Name: "dk", Kind: storage.KindInt64},
		{Name: "dval", Kind: storage.KindInt64},
	}
	dim := storage.NewTable("dim", dschema, 1)
	for _, k := range dimKeys {
		dim.Partition(0).AppendRow(storage.Row{storage.I64(k), storage.I64(k * 10)})
	}
	return fact, dim
}

func TestJoinMatchesHashJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	factKeys := make([]int64, 3000)
	for i := range factKeys {
		factKeys[i] = rng.Int63n(500)
	}
	dimKeys := make([]int64, 400) // keys 0..399: some fact rows dangle
	for i := range dimKeys {
		dimKeys[i] = int64(i)
	}
	fact, dim := factDim(factKeys, dimKeys, 3)
	ji := Create(fact, 0, dim, 0)

	batches, err := exec.Drain(joinNow(ji, fact, dim, []int{0, 1}, []int{1}))
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	var rows int
	for _, b := range batches {
		rows += b.Len()
		got = append(got, b.Cols[2].I64...)
	}
	// Expected: inner join drops fact keys >= 400.
	var want []int64
	var wantRows int
	for _, k := range factKeys {
		if k < 400 {
			wantRows++
			want = append(want, k*10)
		}
	}
	if rows != wantRows {
		t.Fatalf("join rows = %d, want %d", rows, wantRows)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dval mismatch at %d", i)
		}
	}
}

func TestHandleInsert(t *testing.T) {
	fact, dim := factDim([]int64{0, 1}, []int64{0, 1, 2}, 1)
	ji := Create(fact, 0, dim, 0)
	fact.Partition(0).AppendRow(storage.Row{storage.I64(2), storage.I64(99)})
	fact.Partition(0).AppendRow(storage.Row{storage.I64(77), storage.I64(99)}) // dangling
	ji.HandleInsert(0, []int64{2, 77})
	n, err := exec.Count(joinNow(ji, fact, dim, []int{0}, []int{1}))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("rows after insert = %d, want 3", n)
	}
}

func TestHandleDelete(t *testing.T) {
	fact, dim := factDim([]int64{0, 1, 2, 0}, []int64{0, 1, 2}, 1)
	ji := Create(fact, 0, dim, 0)
	fact.Partition(0).DeleteRows([]uint64{1, 2})
	ji.HandleDelete(0, []uint64{1, 2})
	n, err := exec.Count(joinNow(ji, fact, dim, []int{0}, []int{1}))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("rows after delete = %d, want 2", n)
	}
}

func TestMemoryBytes(t *testing.T) {
	fact, dim := factDim(make([]int64, 100), []int64{0}, 2)
	ji := Create(fact, 0, dim, 0)
	if got := ji.MemoryBytes(); got != 800 {
		t.Fatalf("MemoryBytes = %d, want 800", got)
	}
}
