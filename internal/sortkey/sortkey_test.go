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
// describes the old row order; after the permutation the partition's
// summary must be the one the sorted column yields, or pruning skips
// blocks that now hold matching rows.
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

// --- the snapshot guard (the SortKey gap from the ROADMAP) ---

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

// TestCreateEngineRefusesWithOpenSnapshot: physically reordering storage
// while a live snapshot references the table would corrupt the
// snapshot's frozen views in place; the guarded entry point must refuse
// until the snapshot is closed.
func TestCreateEngineRefusesWithOpenSnapshot(t *testing.T) {
	_, tb := engineTable(t, []int64{3, 1, 2, 5, 4, 0})
	snap := tb.Snapshot()

	if _, err := CreateEngine(tb, "v", false); err == nil {
		t.Fatal("CreateEngine ran while a snapshot was open")
	}
	// The refused create must not have reordered anything.
	if got := tb.Store().Partition(0).Column(0).Int64s(); got[0] != 3 {
		t.Fatalf("refused create still reordered storage: %v", got)
	}
	before := snap.NumRows()

	snap.Close()
	sk, err := CreateEngine(tb, "v", false)
	if err != nil {
		t.Fatalf("CreateEngine after Close: %v", err)
	}
	if sk == nil || snap.NumRows() != before {
		t.Fatal("guarded create broke the closed snapshot's bookkeeping")
	}
	p0 := tb.Store().Partition(0).Column(0).Int64s()
	if !sort.SliceIsSorted(p0, func(i, j int) bool { return p0[i] < p0[j] }) {
		t.Fatalf("partition 0 not sorted after guarded create: %v", p0)
	}

	// Rebuild goes through the same guard.
	snap2 := tb.Snapshot()
	if err := sk.RebuildChecked(); err == nil {
		t.Fatal("RebuildChecked ran while a snapshot was open")
	}
	snap2.Close()
	if err := sk.RebuildChecked(); err != nil {
		t.Fatalf("RebuildChecked after Close: %v", err)
	}
}

// TestCreateEngineDatabaseSnapshotGuard: snapshots captured through the
// multi-table DatabaseSnapshot hold the guard too.
func TestCreateEngineDatabaseSnapshotGuard(t *testing.T) {
	db, tb := engineTable(t, []int64{2, 1, 0})
	snap := db.MustSnapshot("t")
	if _, err := CreateEngine(tb, "v", false); err == nil {
		t.Fatal("CreateEngine ran under an open DatabaseSnapshot")
	}
	snap.Close()
	if _, err := CreateEngine(tb, "v", false); err != nil {
		t.Fatal(err)
	}
}

func TestCreateEngineUnknownColumn(t *testing.T) {
	_, tb := engineTable(t, []int64{1})
	if _, err := CreateEngine(tb, "missing", false); err == nil {
		t.Fatal("unknown column accepted")
	}
}

// TestRawCreateRefusesLiveSnapshotRefs: the storage-level Create used
// to bypass the engine guard entirely; it now consults the snapshot
// registry and panics rather than physically reorder arrays a live
// snapshot still references.
func TestRawCreateRefusesLiveSnapshotRefs(t *testing.T) {
	_, tb := engineTable(t, []int64{3, 1, 2})
	snap := tb.Snapshot()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("raw Create ran with a live snapshot ref")
			}
		}()
		Create(tb.Store(), 0, false)
	}()
	// The refused create must not have reordered anything.
	if got := tb.Store().Partition(0).Column(0).Int64s(); got[0] != 3 {
		t.Fatalf("refused raw create still reordered storage: %v", got)
	}

	// A raw SortKey's unguarded rebuild path refuses too (with an error
	// via RebuildChecked, with a panic via Rebuild).
	snap.Close()
	sk := Create(tb.Store(), 0, false)
	snap2 := tb.Snapshot()
	if err := sk.RebuildChecked(); err == nil {
		t.Fatal("raw RebuildChecked ran with a live snapshot ref")
	}
	snap2.Close()
	if err := sk.RebuildChecked(); err != nil {
		t.Fatalf("raw RebuildChecked after Close: %v", err)
	}
}

// TestEphemeralQueryGatesRawCreate: query-internal snapshots count as
// live refs for the raw path as well — an in-flight engine query must
// block a storage-level Create until it drains.
func TestEphemeralQueryGatesRawCreate(t *testing.T) {
	db, tb := engineTable(t, []int64{5, 4, 3, 2, 1, 0})
	c, err := query.Run(db, query.From("t", "v").OrderBy(query.Asc("v")), query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("raw Create ran while a query was in flight")
			}
		}()
		Create(tb.Store(), 0, false)
	}()
	if _, err := exec.CollectInt64(c.Root); err != nil {
		t.Fatal(err)
	}
	Create(tb.Store(), 0, false) // drained: allowed again
}

// TestSortQueryVsRebuildRace is the regression test for the unguarded
// reorder hole: a sort query's internal ephemeral snapshot was
// invisible to the reorder guard, so RebuildChecked could physically
// permute a partition out from under a running query — a data race on
// the shared column arrays and garbage results. With the snapshot
// registry, the rebuild refuses while any query is draining; run with
// -race to pin the absence of the race.
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
	go func() { // physical reorganizer: retries, accepting refusals
		defer close(done)
		for i := 0; i < 20; i++ {
			_ = sk.RebuildChecked()
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

// TestRebuildPartitionGating: the partition-scoped rebuild refuses
// exactly while a snapshot ref holds the target partition's current
// generation — a capture of partition 0 blocks partition 0's rebuild
// and nobody else's, for the engine-guarded and the raw storage path
// alike.
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
	sk, err := CreateEngine(tb, "v", false)
	if err != nil {
		t.Fatal(err)
	}

	op, err := tb.ScanPartition(0, "v")
	if err != nil {
		t.Fatal(err)
	}
	if err := sk.RebuildPartitionChecked(0); err == nil {
		t.Fatal("partition rebuild ran under a live capture of the same partition")
	}
	if err := sk.RebuildPartitionChecked(3); err != nil {
		t.Fatalf("sibling partition rebuild refused: %v", err)
	}
	if err := sk.RebuildChecked(); err == nil {
		t.Fatal("whole-table rebuild ran with a live partition-scoped ref")
	}
	if _, err := exec.CollectInt64(op); err != nil {
		t.Fatal(err)
	}
	if err := sk.RebuildPartitionChecked(0); err != nil {
		t.Fatalf("drained capture still gates the partition rebuild: %v", err)
	}
	if err := sk.RebuildPartitionChecked(9); err == nil {
		t.Fatal("out-of-range partition rebuild did not error")
	}

	// Raw storage-level SortKeys go through the registry directly.
	st := table([]int64{5, 3, 8, 1, 9, 2, 7, 4}, 2)
	raw := Create(st, 0, false)
	ref := st.RetainPartitions(1)
	if err := raw.RebuildPartitionChecked(1); err == nil {
		t.Fatal("raw partition rebuild ran on a retained partition")
	}
	if err := raw.RebuildPartitionChecked(0); err != nil {
		t.Fatalf("raw sibling rebuild refused: %v", err)
	}
	ref.Release()
	if err := raw.RebuildPartitionChecked(1); err != nil {
		t.Fatalf("released ref still gates the raw rebuild: %v", err)
	}
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
				t.Errorf("sibling rebuild refused: %v", err)
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
