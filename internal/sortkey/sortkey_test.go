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

func table(vals []int64, nparts int) *storage.Table {
	schema := storage.Schema{
		{Name: "v", Kind: storage.KindInt64},
		{Name: "tag", Kind: storage.KindString},
	}
	t := storage.NewTable("t", schema, nparts)
	rows := make([]storage.Row, len(vals))
	for i, v := range vals {
		rows[i] = storage.Row{storage.I64(v), storage.Str(string(rune('a' + v%26)))}
	}
	t.LoadRows(rows)
	return t
}

func TestCreateSortsAllColumns(t *testing.T) {
	tb := table([]int64{3, 1, 2}, 1)
	Create(tb, 0, false)
	p := tb.Partition(0)
	if got := p.Column(0).Int64s(); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("keys = %v", got)
	}
	// The payload column must be permuted consistently.
	if p.Column(1).StringAt(0) != "b" || p.Column(1).StringAt(2) != "d" {
		t.Fatalf("payload = %v", p.Column(1).Strings())
	}
}

// TestRawCreateInvalidatesMinMax: a summary cached before a raw Create
// describes the old row order; after the permutation the table's
// partition must summarize the sorted column, or pruning skips blocks
// that now hold matching rows.
func TestRawCreateInvalidatesMinMax(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	vals := make([]int64, 4*storage.BlockRows+100)
	for i := range vals {
		vals[i] = rng.Int63n(1_000_000)
	}
	tb := table(vals, 1)
	p := tb.Partition(0)
	stale := p.MinMax(0)
	Create(tb, 0, false)
	p = tb.Partition(0)
	got, want := p.MinMax(0), storage.BuildMinMax(p.Column(0).Int64s())
	if got == stale || got.Blocks() != want.Blocks() || got.Rows() != want.Rows() {
		t.Fatalf("summary after Create: %d blocks over %d rows (stale: %v), want %d over %d",
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
	tb := table(vals, 4)
	sk := Create(tb, 0, false)
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
	tb := table([]int64{1, 3, 2}, 1)
	sk := Create(tb, 0, true)
	batches, _ := exec.Drain(sk.SortedScan())
	got := batches[0].Cols[0].I64
	if got[0] != 3 || got[2] != 1 {
		t.Fatalf("desc scan = %v", got)
	}
}

func TestRebuildAfterUpdate(t *testing.T) {
	tb := table([]int64{1, 2, 3}, 1)
	sk := Create(tb, 0, false)
	if sk.Rebuilds != 0 {
		t.Fatalf("fresh Rebuilds = %d", sk.Rebuilds)
	}
	tb.Partition(0).AppendRow(storage.Row{storage.I64(0), storage.Str("z")})
	sk.Rebuild()
	if sk.Rebuilds != 1 {
		t.Fatalf("Rebuilds = %d", sk.Rebuilds)
	}
	if got := tb.Partition(0).Column(0).Int64s(); got[0] != 0 {
		t.Fatalf("after rebuild keys = %v", got)
	}
}

func TestMemoryBytesZero(t *testing.T) {
	sk := Create(table([]int64{1}, 1), 0, false)
	if sk.MemoryBytes() != 0 {
		t.Fatal("SortKey should have no memory overhead")
	}
}

// --- re-sorts under snapshots ---

func engineTable(t *testing.T, vals []int64) (*engine.Database, *engine.Table) {
	t.Helper()
	db := engine.NewDatabase()
	tb, err := db.CreateTable("t", storage.Schema{{Name: "v", Kind: storage.KindInt64}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	engine.LoadColumnInt64(tb, vals)
	return db, tb
}

// TestCreateEngineRefusesWithOpenSnapshot: CreateEngine and a later
// rebuild run under an open snapshot of the table, which keeps reading
// the rows it captured.
func TestCreateEngineRefusesWithOpenSnapshot(t *testing.T) {
	_, tb := engineTable(t, []int64{3, 1, 2, 5, 4, 0})
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
	db, tb := engineTable(t, []int64{2, 1, 0})
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
	_, tb := engineTable(t, []int64{1})
	if _, err := CreateEngine(tb, "missing", false); err == nil {
		t.Fatal("unknown column accepted")
	}
}

// TestRawCreateRefusesLiveSnapshotRefs: the storage-level Create and a
// raw SortKey's rebuild run under a live snapshot ref, and the snapshot
// keeps reading its pre-sort rows.
func TestRawCreateRefusesLiveSnapshotRefs(t *testing.T) {
	_, tb := engineTable(t, []int64{3, 1, 2})
	snap := tb.Snapshot()
	sk := Create(tb.Store(), 0, false)
	if got := tb.Store().Partition(0).Column(0).Int64s(); got[0] != 1 {
		t.Fatalf("raw create did not sort partition 0: %v", got)
	}
	if got := snap.View(0).Get(0, 0).I; got != 3 {
		t.Fatalf("snapshot row 0 = %d after the raw create, want 3", got)
	}
	if err := sk.RebuildChecked(); err != nil {
		t.Fatalf("raw RebuildChecked under a live ref: %v", err)
	}
	snap.Close()
	if n := tb.Store().LiveSnapshotRefs(); n != 0 {
		t.Fatalf("%d live ref(s) after Close", n)
	}
}

// TestEphemeralQueryGatesRawCreate: a storage-level Create while an
// engine query is in flight leaves the query's result as it was.
func TestEphemeralQueryGatesRawCreate(t *testing.T) {
	db, tb := engineTable(t, []int64{5, 4, 3, 2, 1, 0})
	c, err := query.Run(db, query.From("t", "v").Where(query.Lt(query.Col("v"), query.Int(9))), query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	Create(tb.Store(), 0, false)
	got, err := exec.CollectInt64(c.Root)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != int64(5-i) {
			t.Fatalf("in-flight scan row %d = %d after a raw create, want %d", i, v, 5-i)
		}
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
	db, tb := engineTable(t, vals)
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
// live capture of the same partition, which keeps reading its rows, for
// the engine-guarded and the raw storage path alike; an out-of-range
// partition errors on both.
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

	// Raw storage-level SortKeys publish through SetPartition.
	st := table([]int64{5, 3, 8, 1, 9, 2, 7, 4}, 2)
	raw := Create(st, 0, false)
	ref := st.RetainPartitions(1)
	st.Partition(1).AppendRow(storage.Row{storage.I64(0), storage.Str("a")})
	if err := raw.RebuildPartitionChecked(1); err != nil {
		t.Fatalf("raw partition rebuild on a retained partition: %v", err)
	}
	if got := st.Partition(1).Column(0).Int64At(0); got != 0 {
		t.Fatalf("raw rebuild left %d first, want 0", got)
	}
	if st.PartitionRetained(1) {
		t.Fatal("the rebuilt partition's new generation is held by the older ref")
	}
	ref.Release()
	if err := raw.RebuildPartitionChecked(-1); err == nil {
		t.Fatal("raw out-of-range rebuild did not error")
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
