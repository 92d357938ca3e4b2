package matview

import (
	"testing"

	"patchindex/internal/exec"
	"patchindex/internal/pdt"
	"patchindex/internal/storage"
)

func views(vals []int64, nparts int) []*pdt.View {
	schema := storage.Schema{{Name: "v", Kind: storage.KindInt64}}
	table := storage.NewTable("t", schema, nparts)
	rows := make([]storage.Row, len(vals))
	for i, v := range vals {
		rows[i] = storage.Row{storage.I64(v)}
	}
	table.LoadRows(rows)
	out := make([]*pdt.View, nparts)
	for p := range out {
		out[p] = pdt.NewView(table.Partition(p), nil)
	}
	return out
}

func TestCreateAndScan(t *testing.T) {
	v, err := Create(views([]int64{5, 1, 5, 2, 1}, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Rows() != 3 {
		t.Fatalf("Rows = %d, want 3", v.Rows())
	}
	n, err := exec.Count(v.Scan())
	if err != nil || n != 3 {
		t.Fatalf("Scan count = %d err=%v", n, err)
	}
	// Scans are replayable.
	n, _ = exec.Count(v.Scan())
	if n != 3 {
		t.Fatal("second scan broken")
	}
}

func TestRefreshCountsAndUpdates(t *testing.T) {
	in := views([]int64{1, 2, 3}, 1)
	v, _ := Create(in, 0)
	if v.Refreshes != 0 {
		t.Fatalf("fresh view Refreshes = %d", v.Refreshes)
	}
	// Simulate a base update through a delta.
	d := pdt.NewDelta(in[0].Base.Schema(), in[0].Base.NumRows())
	d.Insert(storage.Row{storage.I64(9)})
	in2 := []*pdt.View{pdt.NewView(in[0].Base, d)}
	if err := v.Refresh(in2, 0); err != nil {
		t.Fatal(err)
	}
	if v.Refreshes != 1 || v.Rows() != 4 {
		t.Fatalf("after refresh: Refreshes=%d Rows=%d", v.Refreshes, v.Rows())
	}
}

func TestMemoryBytes(t *testing.T) {
	v, _ := Create(views([]int64{1, 2, 3, 3}, 1), 0)
	if got := v.MemoryBytes(); got != 24 {
		t.Fatalf("MemoryBytes = %d, want 24", got)
	}
}

func TestStringView(t *testing.T) {
	schema := storage.Schema{{Name: "s", Kind: storage.KindString}}
	table := storage.NewTable("t", schema, 1)
	for _, s := range []string{"a", "b", "a"} {
		table.Partition(0).AppendRow(storage.Row{storage.Str(s)})
	}
	v, err := Create([]*pdt.View{pdt.NewView(table.Partition(0), nil)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Rows() != 2 {
		t.Fatalf("string view Rows = %d", v.Rows())
	}
	if v.MemoryBytes() == 0 {
		t.Fatal("string view memory = 0")
	}
}
