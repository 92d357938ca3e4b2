package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"patchindex/internal/core"
	"patchindex/internal/exec"
	"patchindex/internal/storage"
	"patchindex/internal/wal"
)

// nucTable creates an n-partition table with one NUC-indexed BIGINT
// column "v" loaded contiguously with vals (partition p holds the p-th
// contiguous chunk).
func nucTable(t *testing.T, db *Database, name string, vals []int64, parts int) *Table {
	t.Helper()
	tb := singleColTable(t, db, name, vals, parts)
	if err := tb.CreatePatchIndex("v", core.NearlyUnique, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	return tb
}

func i64Rows(vals ...int64) []storage.Row {
	rows := make([]storage.Row, len(vals))
	for i, v := range vals {
		rows[i] = storage.Row{storage.I64(v)}
	}
	return rows
}

// partitionValues reads partition p's merged "v" column.
func partitionValues(t *testing.T, tb *Table, p int) []int64 {
	t.Helper()
	return tb.ReadInt64Column(p, "v")
}

// assertPatchAt checks whether rowID of partition p is (or is not) a
// patch of the frozen index.
func assertPatchAt(t *testing.T, tb *Table, column string, p int, rowID uint64, want bool) {
	t.Helper()
	idx := tb.PatchIndexes(column)
	if idx == nil {
		t.Fatalf("no PatchIndex on %s", column)
	}
	if got := idx[p].IsPatch(rowID); got != want {
		t.Fatalf("partition %d rowID %d: IsPatch = %v, want %v", p, rowID, got, want)
	}
}

// TestInsertRowsMatchesInsert: the partition-parallel path and the
// exclusive-lock path produce identical tables and identical patch sets
// for the same (deterministic) workload, including intra-batch and
// cross-batch duplicates.
func TestInsertRowsMatchesInsert(t *testing.T) {
	const parts = 3
	base := []int64{10, 11, 12, 13, 14, 15}
	batches := [][]int64{
		{100, 101, 102, 103},
		{104, 100, 105},      // duplicates a prior batch value
		{106, 106, 107},      // intra-batch duplicate
		{11, 108},            // duplicates a loaded value
		{109, 110, 111, 112}, // all fresh
	}

	run := func(useRows bool) *Table {
		db := newDB(t)
		tb := nucTable(t, db, "t", base, parts)
		for _, b := range batches {
			var err error
			if useRows {
				err = db.InsertRows("t", i64Rows(b...))
			} else {
				err = db.Insert("t", i64Rows(b...))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return tb
	}

	want := run(false)
	got := run(true)
	for p := 0; p < parts; p++ {
		wv, gv := partitionValues(t, want, p), partitionValues(t, got, p)
		if len(wv) != len(gv) {
			t.Fatalf("partition %d row counts diverge: %d vs %d", p, len(gv), len(wv))
		}
		for i := range wv {
			if wv[i] != gv[i] {
				t.Fatalf("partition %d row %d: %d vs %d", p, i, gv[i], wv[i])
			}
		}
	}
	wIdx, gIdx := want.PatchIndexes("v"), got.PatchIndexes("v")
	for p := 0; p < parts; p++ {
		if err := gIdx[p].Validate(); err != nil {
			t.Fatal(err)
		}
		wp, gp := wIdx[p].Patches(), gIdx[p].Patches()
		if len(wp) != len(gp) {
			t.Fatalf("partition %d patch counts diverge: %v vs %v", p, gp, wp)
		}
		for i := range wp {
			if wp[i] != gp[i] {
				t.Fatalf("partition %d patches diverge: %v vs %v", p, gp, wp)
			}
		}
	}
}

// TestCrossPartitionNUCCollision: inserting a value that already lives
// in a DIFFERENT partition must still be detected — the directory lookup
// finds it in a partition the chunk does not hold, the chunk widens its
// lock set to that partition, and both sides become patches.
func TestCrossPartitionNUCCollision(t *testing.T) {
	db := newDB(t)
	tb := nucTable(t, db, "t", seqVals(400), 4) // partition p holds [100p, 100p+100)

	// 250 lives in partition 2 at local rowID 50. Insert it into
	// partition 0.
	if err := db.InsertRowsPartition("t", 0, i64Rows(250)); err != nil {
		t.Fatal(err)
	}
	if fast, fallback := tb.InsertStats(); fallback != 1 || fast != 0 {
		t.Fatalf("cross-partition collision stats: fast=%d fallback=%d, want 0/1", fast, fallback)
	}
	assertPatchAt(t, tb, "v", 0, 100, true) // the new row
	assertPatchAt(t, tb, "v", 2, 50, true)  // the existing occurrence
	assertPatchAt(t, tb, "v", 2, 49, false)

	// 250 is now a sealed exception: a third occurrence inserted into
	// yet another partition needs no lookup (every existing occurrence
	// is already a patch), keeps to its own partition lock and patches
	// only itself.
	if err := db.InsertRowsPartition("t", 1, i64Rows(250)); err != nil {
		t.Fatal(err)
	}
	if fast, fallback := tb.InsertStats(); fast != 1 || fallback != 1 {
		t.Fatalf("sealed-exception insert stats: fast=%d fallback=%d, want 1/1", fast, fallback)
	}
	assertPatchAt(t, tb, "v", 1, 100, true)
	for _, x := range tb.PatchIndexes("v") {
		if err := x.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentSameValueInsertsDetected: two goroutines racing the
// SAME fresh value into different partitions must never both miss the
// collision — the directory records each chunk's values in the lookup's
// critical section, so the later chunk sees the earlier one's
// reservation and widens to its partition. Every duplicated value must
// end up with all its occurrences patched, no matter how the schedules
// interleave.
func TestConcurrentSameValueInsertsDetected(t *testing.T) {
	const rounds = 60
	db := newDB(t)
	tb := nucTable(t, db, "t", seqVals(100), 4)

	var wg sync.WaitGroup
	errc := make(chan error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Both goroutines insert value 1000+r in the same
				// round, each into its own partition.
				if err := db.InsertRowsPartition("t", g, i64Rows(int64(1000+r))); err != nil {
					errc <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Every raced value occurs exactly twice; all occurrences must be
	// patches.
	idx := tb.PatchIndexes("v")
	for r := 0; r < rounds; r++ {
		v := int64(1000 + r)
		found := 0
		for p := 0; p < tb.NumPartitions(); p++ {
			for rid, pv := range partitionValues(t, tb, p) {
				if pv != v {
					continue
				}
				found++
				if !idx[p].IsPatch(uint64(rid)) {
					t.Fatalf("occurrence of raced value %d at partition %d row %d is not a patch", v, p, rid)
				}
			}
		}
		if found != 2 {
			t.Fatalf("raced value %d occurs %d times, want 2", v, found)
		}
	}
	for _, x := range idx {
		if err := x.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelInsertDisjointPartitions is the tentpole's -race
// contract: batches directed at disjoint partitions of a NUC-indexed
// table run concurrently under the shared structure lock plus their
// partition lock, while snapshot queries stream against the same
// table, and the table converges to exactly the expected state with no
// spurious patches.
func TestParallelInsertDisjointPartitions(t *testing.T) {
	const (
		parts   = 4
		perPart = 500
		rounds  = 40
		batch   = 10
	)
	db := newDB(t)
	tb := nucTable(t, db, "t", seqVals(parts*perPart), parts)

	var wg sync.WaitGroup
	errc := make(chan error, parts+1)
	for w := 0; w < parts; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			next := int64(1_000_000 * (w + 1)) // disjoint per-worker id ranges
			for r := 0; r < rounds; r++ {
				vals := make([]int64, batch)
				for i := range vals {
					vals[i] = next
					next++
				}
				if err := db.InsertRowsPartition("t", w, i64Rows(vals...)); err != nil {
					errc <- fmt.Errorf("worker %d round %d: %w", w, r, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			snap := tb.Snapshot()
			if n := snap.NumRows(); (n-parts*perPart)%batch != 0 {
				errc <- fmt.Errorf("snapshot saw a torn batch: %d rows", n)
				snap.Close()
				return
			}
			snap.Close()
			op, err := tb.ScanPartition(i%parts, "v")
			if err != nil {
				errc <- err
				return
			}
			if _, err := exec.CollectInt64(op); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	if got, want := tb.NumRows(), parts*perPart+parts*rounds*batch; got != want {
		t.Fatalf("rows after parallel inserts = %d, want %d", got, want)
	}
	var patches uint64
	for _, x := range tb.PatchIndexes("v") {
		if err := x.Validate(); err != nil {
			t.Fatal(err)
		}
		patches += x.NumPatches()
	}
	if patches != 0 {
		t.Fatalf("disjoint unique inserts produced %d spurious patches", patches)
	}
	// The maintained distinct plan agrees with the reference plan.
	refOp, err := distinctQuery(db, "t", "v", refPlan)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := exec.CollectInt64(refOp)
	if err != nil {
		t.Fatal(err)
	}
	piOp, err := distinctQuery(db, "t", "v", patchPlan)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := exec.CollectInt64(piOp)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != len(pi) {
		t.Fatalf("distinct plans diverge: %d vs %d values", len(pi), len(ref))
	}
}

// TestInsertRowsLocalDuplicateStaysFast: a duplicate confined to the
// target partition is handled under that partition's lock alone — no
// widening — and both occurrences become patches.
func TestInsertRowsLocalDuplicateStaysFast(t *testing.T) {
	db := newDB(t)
	tb := nucTable(t, db, "t", seqVals(400), 4)

	// 42 lives in partition 0 at rowID 42; insert it into partition 0.
	if err := db.InsertRowsPartition("t", 0, i64Rows(42)); err != nil {
		t.Fatal(err)
	}
	if fast, fallback := tb.InsertStats(); fast != 1 || fallback != 0 {
		t.Fatalf("local duplicate stats: fast=%d fallback=%d, want 1/0", fast, fallback)
	}
	assertPatchAt(t, tb, "v", 0, 42, true)
	assertPatchAt(t, tb, "v", 0, 100, true)
	assertPatchAt(t, tb, "v", 0, 41, false)

	// An intra-batch duplicate of a fresh value is also local: both new
	// rows are patches, still no widening.
	if err := db.InsertRowsPartition("t", 3, i64Rows(7777, 7777)); err != nil {
		t.Fatal(err)
	}
	if fast, fallback := tb.InsertStats(); fast != 2 || fallback != 0 {
		t.Fatalf("intra-batch duplicate stats: fast=%d fallback=%d, want 2/0", fast, fallback)
	}
	assertPatchAt(t, tb, "v", 3, 100, true)
	assertPatchAt(t, tb, "v", 3, 101, true)
	for _, x := range tb.PatchIndexes("v") {
		if err := x.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInsertRowsRoundRobinDuplicate: the round-robin entry point
// spreads an intra-batch duplicate across two partitions; the first
// chunk patches and seals it as a batch duplicate, so the second chunk
// patches its occurrence without widening either.
func TestInsertRowsRoundRobinDuplicate(t *testing.T) {
	db := newDB(t)
	tb := nucTable(t, db, "t", seqVals(40), 2)

	// Batch rows alternate partitions: 9000 lands in partition 0 (index
	// 0) and partition 1 (index 1).
	if err := db.InsertRows("t", i64Rows(9000, 9000)); err != nil {
		t.Fatal(err)
	}
	if fast, fallback := tb.InsertStats(); fast != 1 || fallback != 0 {
		t.Fatalf("round-robin duplicate stats: fast=%d fallback=%d, want 1/0", fast, fallback)
	}
	assertPatchAt(t, tb, "v", 0, 20, true)
	assertPatchAt(t, tb, "v", 1, 20, true)

	// And the sealed exception keeps later inserts of the value fast.
	if err := db.InsertRowsPartition("t", 0, i64Rows(9000)); err != nil {
		t.Fatal(err)
	}
	if fast, fallback := tb.InsertStats(); fast != 2 || fallback != 0 {
		t.Fatalf("post-seal stats: fast=%d fallback=%d, want 2/0", fast, fallback)
	}
	assertPatchAt(t, tb, "v", 0, 21, true)
}

// TestInsertRowsNoNUCFullyParallel: a table without NUC indexes has no
// directory to consult and never widens.
func TestInsertRowsNoNUCFullyParallel(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", seqVals(100), 4)
	if err := tb.CreatePatchIndex("v", core.NearlySorted, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		if err := db.InsertRows("t", i64Rows(int64(100+4*r), int64(101+4*r), int64(102+4*r), int64(103+4*r))); err != nil {
			t.Fatal(err)
		}
	}
	if fast, fallback := tb.InsertStats(); fast != 8 || fallback != 0 {
		t.Fatalf("NSC-only table stats: fast=%d fallback=%d, want 8/0", fast, fallback)
	}
	if got, want := tb.NumRows(), 132; got != want {
		t.Fatalf("rows = %d, want %d", got, want)
	}
	for _, x := range tb.PatchIndexes("v") {
		if err := x.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInsertRowsStringNUC: the directory handles string NUC columns
// (keyed by the exact string) — local duplicates stay on their own
// partition lock, cross-partition duplicates widen and are detected.
func TestInsertRowsStringNUC(t *testing.T) {
	db := newDB(t)
	tb, err := db.CreateTable("t", storage.Schema{{Name: "s", Kind: storage.KindString}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]storage.Row, 20)
	for i := range rows {
		rows[i] = storage.Row{storage.Str(fmt.Sprintf("key-%02d", i))}
	}
	tb.Load(rows)
	if err := tb.CreatePatchIndex("s", core.NearlyUnique, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}

	// key-03 lives in partition 0 (contiguous load, 10 per partition);
	// inserting it into partition 1 is a cross-partition collision.
	if err := db.InsertRowsPartition("t", 1, []storage.Row{{storage.Str("key-03")}}); err != nil {
		t.Fatal(err)
	}
	if fast, fallback := tb.InsertStats(); fallback != 1 {
		t.Fatalf("string cross-partition stats: fast=%d fallback=%d, want fallback 1", fast, fallback)
	}
	assertPatchAt(t, tb, "s", 0, 3, true)
	assertPatchAt(t, tb, "s", 1, 10, true)

	// A fresh string value stays on the fast path.
	if err := db.InsertRowsPartition("t", 0, []storage.Row{{storage.Str("key-99")}}); err != nil {
		t.Fatal(err)
	}
	if fast, _ := tb.InsertStats(); fast != 1 {
		t.Fatalf("fresh string insert did not take the fast path")
	}
	for _, x := range tb.PatchIndexes("s") {
		if err := x.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInsertRowsErrors: every insert entry point refuses an unknown
// table, an out-of-range partition and a malformed row BEFORE anything
// is logged or changed — no WAL record (the table's LSN stands still),
// no mutation, and the directory still recovers to the same contents.
func TestInsertRowsErrors(t *testing.T) {
	dir := t.TempDir()
	db := newDB(t)
	tb := nucTable(t, db, "t", seqVals(10), 2)
	if err := db.EnableWAL(dir, wal.SyncNone); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("t", i64Rows(100, 101, 102)); err != nil {
		t.Fatal(err)
	}
	want := tableContents(tb)
	logged := tb.wal.lsn.Load()

	wide := []storage.Row{{storage.I64(1)}, {storage.I64(2), storage.I64(3)}}
	entries := []struct {
		name   string
		scoped bool // takes a partition argument
		insert func(table string, partition int, rows []storage.Row) error
	}{
		{"Insert", false, func(table string, _ int, rows []storage.Row) error { return db.Insert(table, rows) }},
		{"InsertRows", false, func(table string, _ int, rows []storage.Row) error { return db.InsertRows(table, rows) }},
		{"InsertRowsPartition", true, db.InsertRowsPartition},
	}
	bad := []struct {
		name      string
		table     string
		partition int // a bad one concerns scoped entry points only
		rows      []storage.Row
	}{
		{"unknown table", "missing", 0, i64Rows(1)},
		{"wrong width", "t", 0, wide},
		{"partition beyond the table", "t", 5, i64Rows(1)},
		{"negative partition", "t", -1, i64Rows(1)},
	}
	for _, e := range entries {
		for _, c := range bad {
			if c.partition != 0 && !e.scoped {
				continue
			}
			if err := e.insert(c.table, c.partition, c.rows); err == nil {
				t.Fatalf("%s, %s: no error", e.name, c.name)
			}
			if got := tb.wal.lsn.Load(); got != logged {
				t.Fatalf("%s, %s: the refused insert appended %d WAL record(s)", e.name, c.name, got-logged)
			}
		}
	}
	comparePartitions(t, "after refused inserts", tableContents(tb), want)
	got, _ := recoveredContents(t, dir, "t", "v")
	comparePartitions(t, "recovered", got, want)
}

// TestInsertEmptyBatchLogsNothing: an Insert without rows is a no-op
// like an InsertRows without rows — it appends no WAL record and burns
// no LSN.
func TestInsertEmptyBatchLogsNothing(t *testing.T) {
	dir := t.TempDir()
	db := newDB(t)
	tb := singleColTable(t, db, "t", seqVals(10), 2)
	if err := db.EnableWAL(dir, wal.SyncNone); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("t", i64Rows(100)); err != nil {
		t.Fatal(err)
	}
	want := tableContents(tb)
	logged := tb.wal.lsn.Load()
	for _, rows := range [][]storage.Row{nil, {}} {
		if err := db.Insert("t", rows); err != nil {
			t.Fatal(err)
		}
		if err := db.InsertRows("t", rows); err != nil {
			t.Fatal(err)
		}
	}
	if got := tb.wal.lsn.Load(); got != logged {
		t.Fatalf("empty inserts appended %d WAL record(s)", got-logged)
	}
	got, stats := recoveredContents(t, dir, "t", "")
	comparePartitions(t, "recovered", got, want)
	if stats.Applied != 1 {
		t.Fatalf("recovery applied %d records, want the one real insert", stats.Applied)
	}
}

// TestInsertTeachesPartitionFilters: Insert runs under the exclusive
// structure lock, but it must still record its values in the collision
// directory — the partition-parallel path proves freshness from it. A
// value Insert put into partition p and a later batch carries into
// q != p must widen that chunk's lock set to p, after which both rows
// are patches and the value is sealed.
func TestInsertTeachesPartitionFilters(t *testing.T) {
	for _, k := range nucKinds {
		t.Run(k.name, func(t *testing.T) {
			db := newDB(t)
			tb, err := db.CreateTable("t", storage.Schema{{Name: "v", Kind: k.kind}}, 2)
			if err != nil {
				t.Fatal(err)
			}
			rows := make([]storage.Row, 20)
			for i := range rows {
				rows[i] = storage.Row{k.mk(i)}
			}
			if err := tb.Load(rows); err != nil {
				t.Fatal(err)
			}
			if err := tb.CreatePatchIndex("v", core.NearlyUnique, tinyOpts(core.DesignBitmap)); err != nil {
				t.Fatal(err)
			}
			// Round-robin puts a one-row batch into partition 0, at rowID 10.
			if err := db.Insert("t", []storage.Row{{k.mk(7777)}}); err != nil {
				t.Fatal(err)
			}
			assertPatchAt(t, tb, "v", 0, 10, false)
			if err := db.InsertRowsPartition("t", 1, []storage.Row{{k.mk(7777)}}); err != nil {
				t.Fatal(err)
			}
			if fast, fallback := tb.InsertStats(); fast != 0 || fallback != 1 {
				t.Fatalf("stats after re-inserting an Insert-ed value elsewhere: fast=%d fallback=%d, want 0/1", fast, fallback)
			}
			assertPatchAt(t, tb, "v", 0, 10, true)
			assertPatchAt(t, tb, "v", 1, 10, true)
			if v := k.mk(7777); !nucSealed(tb, v) {
				t.Fatalf("%v not sealed after its cross-partition collision", v)
			}
		})
	}
}

// TestBloomFilterSkipsCollisionJoins: the exact collision directory
// proves fresh values collision-free, so batches of them — after Inserts
// recorded plenty of other values — keep to their own partition locks,
// while a real collision is still caught.
func TestBloomFilterSkipsCollisionJoins(t *testing.T) {
	db := newDB(t)
	tb := nucTable(t, db, "t", seqVals(5000), 2)
	// Fresh values far outside the existing domain.
	for i := 0; i < 5; i++ {
		if err := db.Insert("t", i64Rows(int64(1_000_000+i*2), int64(1_000_001+i*2))); err != nil {
			t.Fatal(err)
		}
		if err := db.InsertRows("t", i64Rows(int64(2_000_000+i*2), int64(2_000_001+i*2))); err != nil {
			t.Fatal(err)
		}
	}
	if fast, fallback := tb.InsertStats(); fast != 5 || fallback != 0 {
		t.Fatalf("fresh batches: fast=%d fallback=%d, want 5/0", fast, fallback)
	}
	patches := func() (n uint64) {
		for _, x := range tb.PatchIndexes("v") {
			n += x.NumPatches()
		}
		return n
	}
	if n := patches(); n != 0 {
		t.Fatalf("fresh inserts produced %d patches", n)
	}
	// A real collision must still be caught.
	if err := db.Insert("t", i64Rows(42)); err != nil {
		t.Fatal(err)
	}
	if n := patches(); n != 2 {
		t.Fatalf("patches after colliding insert = %d, want 2 (both 42s)", n)
	}
	// Results stay correct.
	op, _ := distinctQuery(db, "t", "v", patchPlan)
	ref, _ := distinctQuery(db, "t", "v", refPlan)
	n1, _ := exec.CollectInt64(op)
	n2, _ := exec.CollectInt64(ref)
	if len(n1) != len(n2) {
		t.Fatalf("plans disagree: %d vs %d", len(n1), len(n2))
	}
}

// TestBloomFilterCatchesDuplicateWithinBatch: two equal fresh values in
// one Insert collide with each other although the directory does not
// know the value yet.
func TestBloomFilterCatchesDuplicateWithinBatch(t *testing.T) {
	db := newDB(t)
	tb := nucTable(t, db, "t", seqVals(100), 1)
	if err := db.Insert("t", i64Rows(7777, 7777)); err != nil {
		t.Fatal(err)
	}
	x := tb.PatchIndexes("v")[0]
	if x.NumPatches() != 2 {
		t.Fatalf("patches = %d, want 2", x.NumPatches())
	}
	if !nucSealed(tb, storage.I64(7777)) {
		t.Fatal("in-batch duplicate not sealed")
	}
}

// TestBloomFilterModifyPath: a NUC-column Modify records its new value
// in the directory, so a parallel batch carrying that value into another
// partition finds the collision and widens to the modified partition.
func TestBloomFilterModifyPath(t *testing.T) {
	db := newDB(t)
	tb := nucTable(t, db, "t", seqVals(100), 2)
	if err := db.Modify("t", 0, []uint64{5}, "v", []storage.Value{storage.I64(99999)}); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRowsPartition("t", 1, i64Rows(99999)); err != nil {
		t.Fatal(err)
	}
	if fast, fallback := tb.InsertStats(); fast != 0 || fallback != 1 {
		t.Fatalf("insert of a modified-in value: fast=%d fallback=%d, want 0/1", fast, fallback)
	}
	assertPatchAt(t, tb, "v", 0, 5, true)
	assertPatchAt(t, tb, "v", 1, 50, true)
	// Modify to an existing value: collision detected, also across
	// partitions.
	if err := db.Modify("t", 0, []uint64{6}, "v", []storage.Value{storage.I64(60)}); err != nil {
		t.Fatal(err)
	}
	assertPatchAt(t, tb, "v", 0, 6, true)
	assertPatchAt(t, tb, "v", 1, 10, true)
}

// TestSealedValueErosionReinsert: the sealed-exception shortcut stays
// sound across the erosion cycle — seal a value, delete ALL its
// occurrences, re-insert it once through the exclusive path (the
// collision join finds nothing, so the row must be force-patched to
// keep "every live occurrence of a sealed value is a patch"), then
// insert it again through the parallel path: BOTH live occurrences
// must be patches, exactly as the all-exclusive control produces.
func TestSealedValueErosionReinsert(t *testing.T) {
	run := func(reinsertRows bool) *Table {
		db := newDB(t)
		tb := nucTable(t, db, "t", []int64{10, 11, 12, 13}, 2)
		// Seal 5: insert it twice (both patched).
		if err := db.InsertRowsPartition("t", 0, i64Rows(5, 5)); err != nil {
			t.Fatal(err)
		}
		// Erode: delete both occurrences (rowIDs 2,3 of partition 0).
		if err := db.DeleteRowIDs("t", 0, []uint64{2, 3}); err != nil {
			t.Fatal(err)
		}
		// Re-insert once via the exclusive path; 5 is unique again, but
		// stays sealed, so the row must come out patched.
		if err := db.Insert("t", i64Rows(5)); err != nil {
			t.Fatal(err)
		}
		// And once more — via the path under test.
		var err error
		if reinsertRows {
			err = db.InsertRowsPartition("t", 1, i64Rows(5))
		} else {
			err = db.Insert("t", i64Rows(5))
		}
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	control := run(false) // all-exclusive
	fast := run(true)     // final insert through the parallel path
	for _, tb := range []*Table{control, fast} {
		idx := tb.PatchIndexes("v")
		found := 0
		for p := 0; p < tb.NumPartitions(); p++ {
			for rid, v := range partitionValues(t, tb, p) {
				if v != 5 {
					continue
				}
				found++
				if !idx[p].IsPatch(uint64(rid)) {
					t.Fatalf("occurrence of eroded-and-reinserted value 5 at partition %d row %d is not a patch", p, rid)
				}
			}
			if err := idx[p].Validate(); err != nil {
				t.Fatal(err)
			}
		}
		if found != 2 {
			t.Fatalf("value 5 occurs %d times, want 2", found)
		}
	}
	// Modify-to-a-sealed-value closes the same hole: modifying a row to
	// hold an eroded sealed value must patch it.
	db := newDB(t)
	tb := nucTable(t, db, "t", []int64{10, 11, 12, 13}, 2)
	if err := db.InsertRowsPartition("t", 0, i64Rows(5, 5)); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteRowIDs("t", 0, []uint64{2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := db.Modify("t", 1, []uint64{0}, "v", []storage.Value{storage.I64(5)}); err != nil {
		t.Fatal(err)
	}
	if !tb.PatchIndexes("v")[1].IsPatch(0) {
		t.Fatal("row modified to an eroded sealed value is not a patch")
	}
}

// TestModifyRejectsDuplicateRowIDs: Modify enforces the same
// strictly-ascending rowID contract as DeleteRowIDs — a duplicated
// rowID would fold one physical row into the NUC collision counts
// twice, wrongly sealing its new value forever.
func TestModifyRejectsDuplicateRowIDs(t *testing.T) {
	db := newDB(t)
	tb := nucTable(t, db, "t", seqVals(40), 2)

	if err := db.Modify("t", 0, []uint64{5, 5}, "v", []storage.Value{storage.I64(777), storage.I64(777)}); err == nil {
		t.Fatal("duplicate modify rowIDs did not error")
	}
	if err := db.Modify("t", 0, []uint64{7, 3}, "v", []storage.Value{storage.I64(1), storage.I64(2)}); err == nil {
		t.Fatal("descending modify rowIDs did not error")
	}
	// The rejected calls must not have touched the collision state: a
	// later legitimate insert of 777 into the sibling partition is NOT
	// a duplicate and must stay patch-free.
	if err := db.InsertRowsPartition("t", 1, i64Rows(777)); err != nil {
		t.Fatal(err)
	}
	for _, x := range tb.PatchIndexes("v") {
		if err := x.Validate(); err != nil {
			t.Fatal(err)
		}
		if x.NumPatches() != 0 {
			t.Fatalf("rejected Modify leaked collision state: %d patches", x.NumPatches())
		}
	}
}

// TestInsertRowsNeverTakesExclusiveLock: a chunk whose value already
// lives in another partition widens its partition lock set instead of
// taking the exclusive structure lock, so it completes while a reader
// holds the structure lock shared — and patches both occurrences.
func TestInsertRowsNeverTakesExclusiveLock(t *testing.T) {
	db := newDB(t)
	tb := nucTable(t, db, "t", seqVals(400), 4) // partition p holds [100p, 100p+100)

	done := make(chan error, 1)
	insertUnderSharedLock := func() (finished bool, err error) {
		tb.mu.RLock()
		defer tb.mu.RUnlock()
		go func() { done <- db.InsertRowsPartition("t", 0, i64Rows(250)) }()
		//pilint:ignore lockblock the test holds the structure lock shared on purpose: the insert must finish without the exclusive lock
		select {
		case err = <-done:
			return true, err
		case <-time.After(10 * time.Second):
			return false, nil
		}
	}
	finished, err := insertUnderSharedLock()
	if !finished {
		<-done
		t.Fatal("InsertRowsPartition waited for the exclusive structure lock while a reader held it shared")
	}
	if err != nil {
		t.Fatal(err)
	}
	if fast, fallback := tb.InsertStats(); fast != 0 || fallback != 1 {
		t.Fatalf("stats: fast=%d fallback=%d, want 0/1 (one widened chunk)", fast, fallback)
	}
	assertPatchAt(t, tb, "v", 0, 100, true) // the new row
	assertPatchAt(t, tb, "v", 2, 50, true)  // 250's existing occurrence
	if !nucSealed(tb, storage.I64(250)) {
		t.Fatal("the cross-partition duplicate 250 is not sealed")
	}
}

// TestSnapshotCloseIdempotentAfterDrain: draining query operators
// derived from an explicit snapshot, then closing the snapshot twice,
// releases its registry refs exactly once — reorganization becomes
// possible again and the ref count never goes negative.
func TestSnapshotCloseIdempotentAfterDrain(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", seqVals(100), 2)

	// An ephemeral query snapshot releases itself on drain; Close on an
	// explicit snapshot after that must not double-release.
	op, err := distinctQuery(db, "t", "v", refPlan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.CollectInt64(op); err != nil { // drained: ref auto-released
		t.Fatal(err)
	}
	snap := tb.Snapshot()
	if _, err := exec.CollectInt64(distinctOn(snap, "v", refPlan)); err != nil {
		t.Fatal(err)
	}
	snap.Close()
	snap.Close() //pilint:ignore closeowner deliberate double close: the test asserts Close is idempotent
	if n := tb.Store().LiveSnapshotRefs(); n != 0 {
		t.Fatalf("live refs after double close = %d, want 0", n)
	}
}
