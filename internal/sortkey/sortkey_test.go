package sortkey

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"patchindex/internal/engine"
	"patchindex/internal/exec"
	"patchindex/internal/query"
	"patchindex/internal/storage"
)

// engineTable loads vals, each with a payload tag derived from it, into
// table "t" of a new engine database with nparts partitions.
func engineTable(t *testing.T, vals []int64, nparts int) (*engine.Database, *engine.Table) {
	t.Helper()
	db := engine.NewDatabase()
	schema := storage.Schema{
		{Name: "v", Kind: storage.KindInt64},
		{Name: "tag", Kind: storage.KindString},
	}
	tb, err := db.CreateTable("t", schema, nparts)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]storage.Row, len(vals))
	for i, v := range vals {
		rows[i] = storage.Row{storage.I64(v), storage.Str(string(rune('a' + v%26)))}
	}
	if err := tb.Load(rows); err != nil {
		t.Fatal(err)
	}
	return db, tb
}

// create is CreateEngine on column v, failing the test on error.
func create(t *testing.T, tb *engine.Table, desc bool) *SortKey {
	t.Helper()
	sk, err := CreateEngine(tb, "v", desc)
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

func TestCreateSortsAllColumns(t *testing.T) {
	_, tb := engineTable(t, []int64{3, 1, 2}, 1)
	create(t, tb, false)
	p := tb.Store().Partition(0)
	if got := p.Column(0).Int64s(); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("keys = %v", got)
	}
	// The payload column must be permuted consistently.
	if p.Column(1).StringAt(0) != "b" || p.Column(1).StringAt(2) != "d" {
		t.Fatalf("payload = %v", p.Column(1).Strings())
	}
}

// TestRawCreateInvalidatesMinMax: a summary cached before CreateEngine
// describes the old row order; after the permutation the table's
// partition must summarize the sorted column, or pruning skips blocks
// that now hold matching rows.
func TestRawCreateInvalidatesMinMax(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	vals := make([]int64, 4*storage.BlockRows+100)
	for i := range vals {
		vals[i] = rng.Int63n(1_000_000)
	}
	_, tb := engineTable(t, vals, 1)
	p := tb.Store().Partition(0)
	stale := p.MinMax(0)
	create(t, tb, false)
	p = tb.Store().Partition(0)
	got, want := p.MinMax(0), storage.BuildMinMax(p.Column(0).Int64s())
	if got == stale || got.Blocks() != want.Blocks() || got.Rows() != want.Rows() {
		t.Fatalf("summary after CreateEngine: %d blocks over %d rows (stale: %v), want %d over %d",
			got.Blocks(), got.Rows(), got == stale, want.Blocks(), want.Rows())
	}
	for b := 0; b < want.Blocks(); b++ {
		glo, ghi := got.BlockRange(b)
		wlo, whi := want.BlockRange(b)
		if glo != wlo || ghi != whi {
			t.Fatalf("block %d summarized as [%d, %d], the sorted column holds [%d, %d]", b, glo, ghi, wlo, whi)
		}
	}
}

func TestSortedScanGloballySorted(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	vals := make([]int64, 4000)
	for i := range vals {
		vals[i] = rng.Int63n(10000)
	}
	_, tb := engineTable(t, vals, 4)
	sk := create(t, tb, false)
	batches, err := exec.Drain(sk.SortedScan())
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, b := range batches {
		got = append(got, b.Cols[0].I64...)
	}
	if len(got) != len(vals) {
		t.Fatalf("scan returned %d rows", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("SortedScan not globally sorted")
	}
}

func TestDescendingSortKey(t *testing.T) {
	_, tb := engineTable(t, []int64{1, 3, 2}, 1)
	sk := create(t, tb, true)
	batches, _ := exec.Drain(sk.SortedScan())
	got := batches[0].Cols[0].I64
	if got[0] != 3 || got[2] != 1 {
		t.Fatalf("desc scan = %v", got)
	}
}

func TestRebuildAfterUpdate(t *testing.T) {
	db, tb := engineTable(t, []int64{1, 2, 3}, 1)
	sk := create(t, tb, false)
	if sk.Rebuilds != 0 {
		t.Fatalf("fresh Rebuilds = %d", sk.Rebuilds)
	}
	if err := db.Insert("t", []storage.Row{{storage.I64(0), storage.Str("z")}}); err != nil {
		t.Fatal(err)
	}
	if err := sk.RebuildChecked(); err != nil {
		t.Fatal(err)
	}
	if sk.Rebuilds != 1 {
		t.Fatalf("Rebuilds = %d", sk.Rebuilds)
	}
	if got := tb.Store().Partition(0).Column(0).Int64s(); got[0] != 0 {
		t.Fatalf("after rebuild keys = %v", got)
	}
}

func TestMemoryBytesZero(t *testing.T) {
	_, tb := engineTable(t, []int64{1}, 1)
	if create(t, tb, false).MemoryBytes() != 0 {
		t.Fatal("SortKey should have no memory overhead")
	}
}

// --- re-sorts under snapshots ---

// TestCreateEngineRefusesWithOpenSnapshot: CreateEngine and a later
// rebuild run under an open snapshot of the table, which keeps reading
// the rows it captured.
func TestCreateEngineRefusesWithOpenSnapshot(t *testing.T) {
	_, tb := engineTable(t, []int64{3, 1, 2, 5, 4, 0}, 2)
	snap := tb.Snapshot()

	sk, err := CreateEngine(tb, "v", false)
	if err != nil {
		t.Fatalf("CreateEngine under an open snapshot: %v", err)
	}
	p0 := tb.Store().Partition(0).Column(0).Int64s()
	if !sort.SliceIsSorted(p0, func(i, j int) bool { return p0[i] < p0[j] }) {
		t.Fatalf("partition 0 not sorted after guarded create: %v", p0)
	}
	if got := snap.View(0).Get(0, 0).I; got != 3 {
		t.Fatalf("snapshot row 0 = %d after the create, want 3", got)
	}
	if err := sk.RebuildChecked(); err != nil {
		t.Fatalf("RebuildChecked under an open snapshot: %v", err)
	}
	snap.Close()
	if n := tb.Store().LiveSnapshotRefs(); n != 0 {
		t.Fatalf("%d live ref(s) after Close", n)
	}
}

// TestCreateEngineDatabaseSnapshotGuard: the same holds for snapshots
// captured through the multi-table DatabaseSnapshot.
func TestCreateEngineDatabaseSnapshotGuard(t *testing.T) {
	db, tb := engineTable(t, []int64{2, 1, 0}, 2)
	snap := db.MustSnapshot("t")
	if _, err := CreateEngine(tb, "v", false); err != nil {
		t.Fatalf("CreateEngine under an open DatabaseSnapshot: %v", err)
	}
	if got := snap.Table("t").View(0).Get(0, 0).I; got != 2 {
		t.Fatalf("snapshot row 0 = %d after the create, want 2", got)
	}
	snap.Close()
}

func TestCreateEngineUnknownColumn(t *testing.T) {
	_, tb := engineTable(t, []int64{1}, 2)
	if _, err := CreateEngine(tb, "missing", false); err == nil {
		t.Fatal("unknown column accepted")
	}
}

// TestSortQueryVsRebuildRace: rebuilds run concurrently with sort
// queries, and a draining query keeps reading the partitions it
// captured, never arrays a rebuild writes — run with -race to pin the
// absence of a data race on the column arrays.
func TestSortQueryVsRebuildRace(t *testing.T) {
	// Two real threads: on a single-P runtime the reorganizer would only
	// interleave with a draining query at coarse preemption points,
	// which can miss the conflicting accesses entirely.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	// Big enough that a query spends real time reading the shared
	// column arrays (the sort plan materializes its input on the first
	// Next), so an unguarded concurrent reorder reliably overlaps it.
	const n = 1 << 16
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64((i * 2654435761) % n) // fixed pseudo-random permutation
	}
	db, tb := engineTable(t, vals, 2)
	sk, err := CreateEngine(tb, "v", false)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() { // physical reorganizer
		defer close(done)
		for i := 0; i < 20; i++ {
			if err := sk.RebuildChecked(); err != nil {
				t.Errorf("rebuild: %v", err)
				return
			}
		}
	}()
	for { // query stream
		c, err := query.Run(db, query.From("t", "v").OrderBy(query.Asc("v")), query.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := exec.CollectInt64(c.Root)
		if err != nil {
			t.Fatal(err)
		}
		// The value set never changes, so every snapshot-isolated sort
		// must return the identity permutation regardless of how often
		// the physical order changed underneath.
		if len(got) != n {
			t.Fatalf("sort query returned %d rows, want %d", len(got), n)
		}
		for i, v := range got {
			if v != int64(i) {
				t.Fatalf("sort result corrupted at %d: got %d", i, v)
			}
		}
		select {
		case <-done:
			return
		default:
		}
	}
}

// TestRebuildPartitionGating: a partition-scoped rebuild runs under a
// live capture of the same partition, which keeps reading its rows; an
// out-of-range partition errors.
func TestRebuildPartitionGating(t *testing.T) {
	db := engine.NewDatabase()
	tb, err := db.CreateTable("t", storage.Schema{{Name: "v", Kind: storage.KindInt64}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, 400)
	for i := range vals {
		vals[i] = int64(len(vals) - i)
	}
	engine.LoadColumnInt64(tb, vals)
	op, err := tb.ScanPartition(0, "v")
	if err != nil {
		t.Fatal(err)
	}
	sk, err := CreateEngine(tb, "v", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := sk.RebuildPartitionChecked(0); err != nil {
		t.Fatalf("partition rebuild under a live capture: %v", err)
	}
	got, err := exec.CollectInt64(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 || got[0] != 400 || got[99] != 301 {
		t.Fatalf("captured partition 0 read %d rows from %d to %d, want 100 from 400 to 301", len(got), got[0], got[len(got)-1])
	}
	if err := sk.RebuildPartitionChecked(9); err == nil {
		t.Fatal("out-of-range partition rebuild did not error")
	}

}

// TestPartitionRebuildVsSiblingDrainRace pins the tentpole's headline
// under -race: a SortKey rebuild of one partition proceeds, repeatedly
// and concurrently, while queries drain partition-scoped captures of a
// DIFFERENT partition — and the drained partition's data is never
// touched by the reorders next door.
func TestPartitionRebuildVsSiblingDrainRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 1 << 14
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64((i * 2654435761) % n)
	}
	db := engine.NewDatabase()
	tb, err := db.CreateTable("t", storage.Schema{{Name: "v", Kind: storage.KindInt64}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	engine.LoadColumnInt64(tb, vals)
	sk, err := CreateEngine(tb, "v", false)
	if err != nil {
		t.Fatal(err)
	}
	perPart := n / 4

	done := make(chan struct{})
	go func() { // rebuilds partitions 1-3, never 0
		defer close(done)
		for i := 0; i < 60; i++ {
			if err := sk.RebuildPartitionChecked(1 + i%3); err != nil {
				t.Errorf("sibling rebuild: %v", err)
				return
			}
		}
	}()
	for { // drains partition 0 over and over
		op, err := tb.ScanPartition(0, "v")
		if err != nil {
			t.Fatal(err)
		}
		got, err := exec.CollectInt64(op)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != perPart {
			t.Fatalf("partition 0 scan returned %d rows, want %d", len(got), perPart)
		}
		// Partition 0 was sorted once by CreateEngine and no rebuild
		// targets it, so every drain must see it ascending — any
		// cross-partition interference would break the order.
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				t.Fatalf("partition 0 order corrupted at %d", i)
			}
		}
		select {
		case <-done:
			return
		default:
		}
	}
}
