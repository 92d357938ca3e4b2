package engine

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"patchindex/internal/core"
	"patchindex/internal/storage"
	"patchindex/internal/wal"
)

// Crash-injection coverage knobs, mirroring the model suite's flags: CI
// runs a longer seeded pass (-crash.ops) on top of the default quick one.
var (
	crashSeed = flag.Int64("crash.seed", 1, "seed for the randomized crash-injection workload")
	crashOps  = flag.Int("crash.ops", 30, "operations in the randomized crash-injection workload")
)

func durSchema() storage.Schema {
	return storage.Schema{
		{Name: "k", Kind: storage.KindInt64},
		{Name: "s", Kind: storage.KindString},
	}
}

func durRow(k int64) storage.Row {
	return storage.Row{storage.I64(k), storage.Str(fmt.Sprintf("s%d", k))}
}

// valKey canonicalizes a value for comparison across the engine's view
// accessors and the reference model's decoded rows.
func valKey(v storage.Value) string {
	switch v.Kind {
	case storage.KindInt64:
		return fmt.Sprintf("i%d", v.I)
	case storage.KindFloat64:
		return fmt.Sprintf("f%x", v.F)
	default:
		return "s" + v.S
	}
}

func rowKey(r storage.Row) string {
	s := ""
	for _, v := range r {
		s += "|" + valKey(v)
	}
	return s
}

// tableContents materializes every partition of a live table.
func tableContents(tb *Table) [][]storage.Row {
	schema := tb.Schema()
	snap := tb.Snapshot()
	defer snap.Close()
	out := make([][]storage.Row, tb.NumPartitions())
	for p := range out {
		v := snap.View(p)
		rows := make([]storage.Row, v.NumRows())
		for i := range rows {
			row := make(storage.Row, len(schema))
			for c := range schema {
				row[c] = v.Get(i, c)
			}
			rows[i] = row
		}
		out[p] = rows
	}
	return out
}

// partitionRows boxes one storage partition into rows.
func partitionRows(part *storage.Partition) []storage.Row {
	rows := make([]storage.Row, part.NumRows())
	for i := range rows {
		row := make(storage.Row, len(part.Schema()))
		for c := range row {
			row[c] = part.Column(c).Get(i)
		}
		rows[i] = row
	}
	return rows
}

func comparePartitions(t *testing.T, label string, got, want [][]storage.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d partitions, want %d", label, len(got), len(want))
	}
	for p := range want {
		if len(got[p]) != len(want[p]) {
			t.Fatalf("%s: partition %d has %d rows, want %d", label, p, len(got[p]), len(want[p]))
		}
		for i := range want[p] {
			if rowKey(got[p][i]) != rowKey(want[p][i]) {
				t.Fatalf("%s: partition %d row %d = %s, want %s", label, p, i, rowKey(got[p][i]), rowKey(want[p][i]))
			}
		}
	}
}

func validateIndexes(t *testing.T, tb *Table, column string) {
	t.Helper()
	for p, x := range tb.PatchIndexes(column) {
		if err := x.Validate(); err != nil {
			t.Fatalf("recovered index slot %d: %v", p, err)
		}
	}
}

// walRefModel replays decoded WAL records onto plain row slices — an
// independent reference for what a legal recovered state must contain.
type walRefModel struct {
	schema storage.Schema
	parts  [][]storage.Row
}

func newWALRefModel(schema storage.Schema, base [][]storage.Row) *walRefModel {
	m := &walRefModel{schema: schema, parts: make([][]storage.Row, len(base))}
	for p := range base {
		m.parts[p] = append([]storage.Row(nil), base[p]...)
	}
	return m
}

func (m *walRefModel) apply(t *testing.T, rec wal.Record) {
	t.Helper()
	d := &walDec{b: rec.Body}
	switch rec.Op {
	case walOpInsertChunk:
		p := int(d.u32())
		m.parts[p] = append(m.parts[p], d.rows(m.schema)...)
	case walOpInsertExcl:
		n := int(d.u32())
		for p := 0; p < n; p++ {
			m.parts[p] = append(m.parts[p], d.rows(m.schema)...)
		}
	case walOpDelete:
		p := int(d.u32())
		n := int(d.u32())
		ids := make([]int, 0, n)
		for i := 0; i < n; i++ {
			ids = append(ids, int(d.u64()))
		}
		sort.Sort(sort.Reverse(sort.IntSlice(ids)))
		for _, id := range ids {
			m.parts[p] = append(m.parts[p][:id], m.parts[p][id+1:]...)
		}
	case walOpModify:
		p := int(d.u32())
		column := d.str()
		n := int(d.u32())
		ids := make([]int, 0, n)
		for i := 0; i < n; i++ {
			ids = append(ids, int(d.u64()))
		}
		col := m.schema.MustColumnIndex(column)
		for _, id := range ids {
			var v storage.Value
			switch m.schema[col].Kind {
			case storage.KindInt64:
				v = storage.I64(int64(d.u64()))
			case storage.KindFloat64:
				v = storage.F64(math.Float64frombits(d.u64()))
			default:
				v = storage.Str(d.str())
			}
			row := append(storage.Row(nil), m.parts[p][id]...)
			row[col] = v
			m.parts[p][id] = row
		}
	case walOpRewrite:
		p := int(d.u32())
		m.parts[p] = d.rows(m.schema)
	default:
		t.Fatalf("model: unknown WAL op %d", rec.Op)
	}
	if err := d.finish(); err != nil {
		t.Fatalf("model: decoding op %d: %v", rec.Op, err)
	}
}

// copyTree clones a recovery directory so each injected crash starts
// from the same on-disk state.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		sp, dp := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			copyTree(t, sp, dp)
			continue
		}
		data, err := os.ReadFile(sp)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dp, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// recoveredContents recovers dir into a fresh database and returns the
// table's contents plus the stats.
func recoveredContents(t *testing.T, dir, table, column string) ([][]storage.Row, *RecoverStats) {
	t.Helper()
	db := NewDatabase()
	stats, err := db.Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	tb := db.MustTable(table)
	if column != "" {
		validateIndexes(t, tb, column)
	}
	return tableContents(tb), stats
}

// expectedAfterCrash builds the reference state for a crash image: the
// checkpointed base plus every surviving record above the checkpoint
// LSN, merged across segments in LSN order — exactly the legal
// chunk-prefix state recovery must land on.
func expectedAfterCrash(t *testing.T, dir, table string, nparts int) [][]storage.Row {
	t.Helper()
	ck, err := readCheckpointFile(filepath.Join(dir, table+".ckpt"))
	if err != nil {
		t.Fatalf("reading checkpoint: %v", err)
	}
	base := make([][]storage.Row, len(ck.parts))
	for p, part := range ck.parts {
		base[p] = partitionRows(part)
	}
	m := newWALRefModel(ck.schema, base)
	var recs []wal.Record
	paths := make([]string, 0, nparts+1)
	for p := 0; p < nparts; p++ {
		paths = append(paths, walSegPath(dir, table, p))
	}
	paths = append(paths, walExclPath(dir, table))
	for _, path := range paths {
		rs, _, err := wal.ReadSegment(path)
		if err != nil {
			t.Fatalf("reading segment %s: %v", path, err)
		}
		recs = append(recs, rs...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].LSN < recs[j].LSN })
	for _, rec := range recs {
		if rec.LSN <= ck.cpLSN {
			continue
		}
		m.apply(t, rec)
	}
	return m.parts
}

// mixedWorkload runs inserts, deletes, and modifies against table "t"
// after WAL logging is on, leaving committed records in the segments.
func mixedWorkload(t *testing.T, db *Database) {
	t.Helper()
	var rows []storage.Row
	for k := int64(100); k < 112; k++ {
		rows = append(rows, durRow(k))
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("t", []storage.Row{durRow(200), durRow(201)}); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteRowIDs("t", 0, []uint64{1, 3}); err != nil {
		t.Fatal(err)
	}
	if err := db.Modify("t", 0, []uint64{0}, "s", []storage.Value{storage.Str("patched")}); err != nil {
		t.Fatal(err)
	}
	if err := db.Modify("t", 0, []uint64{2}, "k", []storage.Value{storage.I64(7)}); err != nil {
		t.Fatal(err)
	}
}

// newWALTable builds a WAL-enabled database: table "t" with an NSC
// PatchIndex on k, seeded with a few rows before the baseline
// checkpoint so recovery exercises checkpoint + replay, not replay
// alone.
func newWALTable(t *testing.T, parts int, dir string) (*Database, *Table) {
	t.Helper()
	db := NewDatabase()
	tb, err := db.CreateTable("t", durSchema(), parts)
	if err != nil {
		t.Fatal(err)
	}
	var seed []storage.Row
	for k := int64(0); k < 8; k++ {
		seed = append(seed, durRow(k))
	}
	if err := tb.Load(seed); err != nil {
		t.Fatal(err)
	}
	if err := tb.CreatePatchIndex("k", core.NearlySorted, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	if err := db.EnableWAL(dir, wal.SyncNone); err != nil {
		t.Fatal(err)
	}
	return db, tb
}

func TestRecoverRoundtrip(t *testing.T) {
	dir := t.TempDir()
	db, tb := newWALTable(t, 3, dir)
	mixedWorkload(t, db)
	want := tableContents(tb)

	// Kill -9: db is simply abandoned — nothing is flushed or closed.
	got, stats := recoveredContents(t, dir, "t", "k")
	comparePartitions(t, "recovered", got, want)
	if stats.Tables != 1 || stats.Applied == 0 || stats.TornSegments != 0 {
		t.Fatalf("unexpected stats: %+v", stats)
	}

	// The recovered database must keep logging: write more, recover
	// again, and the second recovery must see the post-recovery writes.
	db2 := NewDatabase()
	if _, err := db2.Recover(dir); err != nil {
		t.Fatal(err)
	}
	if err := db2.InsertRows("t", []storage.Row{durRow(300), durRow(301)}); err != nil {
		t.Fatal(err)
	}
	want2 := tableContents(db2.MustTable("t"))
	got2, _ := recoveredContents(t, dir, "t", "k")
	comparePartitions(t, "second recovery", got2, want2)
}

func TestRecoverAfterCheckpointTruncation(t *testing.T) {
	dir := t.TempDir()
	db, tb := newWALTable(t, 2, dir)
	mixedWorkload(t, db)
	if err := db.CheckpointToDisk(dir); err != nil {
		t.Fatal(err)
	}
	want := tableContents(tb)
	got, stats := recoveredContents(t, dir, "t", "k")
	comparePartitions(t, "post-checkpoint recovery", got, want)
	// The checkpoint truncated every segment, so nothing replays.
	if stats.Applied != 0 || stats.Skipped != 0 {
		t.Fatalf("records survived checkpoint truncation: %+v", stats)
	}
}

func TestRecoverRequiresEmptyDatabase(t *testing.T) {
	dir := t.TempDir()
	db, _ := newWALTable(t, 2, dir)
	if _, err := db.Recover(dir); err == nil {
		t.Fatal("Recover on a populated database did not error")
	}
	db2 := NewDatabase()
	if _, err := db2.Recover(t.TempDir()); err == nil {
		t.Fatal("Recover without a manifest did not error")
	}
}

func TestMaintainerPeriodicCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, _ := newWALTable(t, 2, dir)
	mixedWorkload(t, db)
	m, err := db.StartMaintainer(MaintainerConfig{CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Sweep()
	if got := m.Stats().Checkpoints; got != 1 {
		t.Fatalf("Checkpoints = %d, want 1", got)
	}
	// The sweep's checkpoint covered every record: recovery replays none.
	_, stats := recoveredContents(t, dir, "t", "k")
	if stats.Applied != 0 {
		t.Fatalf("records survived the maintainer checkpoint: %+v", stats)
	}
}

// TestCrashInjectionEveryByte is the kill-point test: a committed
// workload's WAL image, truncated at EVERY byte offset of every
// segment, must recover to exactly the reference state of the record
// prefix surviving the cut.
func TestCrashInjectionEveryByte(t *testing.T) {
	dir := t.TempDir()
	db, _ := newWALTable(t, 1, dir)
	mixedWorkload(t, db)
	_ = db

	segs := []string{walSegPath(dir, "t", 0), walExclPath(dir, "t")}
	for _, seg := range segs {
		full, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(dir, seg)
		for cut := 0; cut <= len(full); cut++ {
			crash := t.TempDir()
			copyTree(t, dir, crash)
			if err := os.WriteFile(filepath.Join(crash, rel), full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			want := expectedAfterCrash(t, crash, "t", 1)
			got, _ := recoveredContents(t, crash, "t", "k")
			comparePartitions(t, fmt.Sprintf("%s cut at %d/%d", rel, cut, len(full)), got, want)
		}
	}
}

// TestCrashInjectionBitFlips corrupts one byte inside every record of a
// committed segment: replay must stop cleanly at the corrupt record —
// the surviving records are a strict prefix — and recovery must land on
// that prefix's reference state.
func TestCrashInjectionBitFlips(t *testing.T) {
	dir := t.TempDir()
	db, _ := newWALTable(t, 1, dir)
	mixedWorkload(t, db)
	_ = db

	seg := walSegPath(dir, "t", 0)
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	orig, clean, err := wal.ReadSegment(seg)
	if err != nil || !clean {
		t.Fatalf("baseline segment unreadable: %v clean=%v", err, clean)
	}
	rel, _ := filepath.Rel(dir, seg)
	// Offset of each record's CRC field within the file.
	off := 0
	for ri, rec := range orig {
		crash := t.TempDir()
		copyTree(t, dir, crash)
		flipped := append([]byte(nil), full...)
		flipped[off+4] ^= 0x10 // one bit of the record's stored CRC
		if err := os.WriteFile(filepath.Join(crash, rel), flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		// The flipped segment must decode to exactly the records before
		// this one.
		got, clean, err := wal.ReadSegment(filepath.Join(crash, rel))
		if err != nil {
			t.Fatal(err)
		}
		if clean || len(got) != ri {
			t.Fatalf("record %d flip: %d records survive (clean=%v), want %d", ri, len(got), clean, ri)
		}
		want := expectedAfterCrash(t, crash, "t", 1)
		rows, stats := recoveredContents(t, crash, "t", "k")
		if stats.TornSegments == 0 {
			t.Fatalf("record %d flip: torn segment not reported: %+v", ri, stats)
		}
		comparePartitions(t, fmt.Sprintf("record %d flipped", ri), rows, want)
		off += frameSizeOf(rec)
	}
}

func frameSizeOf(rec wal.Record) int {
	return 8 + 9 + len(rec.Body) // frame header + payload header + body
}

// TestCrashInjectionSeeded drives a randomized multi-partition workload
// and injects a crash at every record boundary (and one byte before it,
// mid-record) of every segment. CI runs a longer pass via -crash.ops.
func TestCrashInjectionSeeded(t *testing.T) {
	rng := rand.New(rand.NewSource(*crashSeed))
	dir := t.TempDir()
	db, tb := newWALTable(t, 3, dir)
	next := int64(1000)
	for i := 0; i < *crashOps; i++ {
		switch rng.Intn(4) {
		case 0, 1:
			n := 1 + rng.Intn(6)
			var rows []storage.Row
			for j := 0; j < n; j++ {
				rows = append(rows, durRow(next))
				next++
			}
			if err := db.InsertRows("t", rows); err != nil {
				t.Fatal(err)
			}
		case 2:
			p := rng.Intn(3)
			if n := len(tb.ReadInt64Column(p, "k")); n > 0 {
				if err := db.DeleteRowIDs("t", p, []uint64{uint64(rng.Intn(n))}); err != nil {
					t.Fatal(err)
				}
			}
		default:
			p := rng.Intn(3)
			if n := len(tb.ReadInt64Column(p, "k")); n > 0 {
				id := uint64(rng.Intn(n))
				if err := db.Modify("t", p, []uint64{id}, "s", []storage.Value{storage.Str(fmt.Sprintf("m%d", i))}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	var segs []string
	for p := 0; p < 3; p++ {
		segs = append(segs, walSegPath(dir, "t", p))
	}
	segs = append(segs, walExclPath(dir, "t"))
	for _, seg := range segs {
		full, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		recs, _, err := wal.ReadSegment(seg)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(dir, seg)
		cuts := []int{0}
		off := 0
		for _, rec := range recs {
			off += frameSizeOf(rec)
			cuts = append(cuts, off, off-1)
		}
		for _, cut := range cuts {
			if cut < 0 || cut > len(full) {
				continue
			}
			crash := t.TempDir()
			copyTree(t, dir, crash)
			if err := os.WriteFile(filepath.Join(crash, rel), full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			want := expectedAfterCrash(t, crash, "t", 3)
			got, _ := recoveredContents(t, crash, "t", "k")
			comparePartitions(t, fmt.Sprintf("%s cut at %d", rel, cut), got, want)
		}
	}
}

// BenchmarkInsertWALOverhead measures the write-path cost of logging:
// the same batched insert stream with WAL off and on (SyncNone, the
// kill -9 durability point). The acceptance bar for the PR is <= 25%
// overhead with WAL on.
func BenchmarkInsertWALOverhead(b *testing.B) {
	run := func(b *testing.B, enable bool) {
		db := NewDatabase()
		tb, err := db.CreateTable("t", durSchema(), 4)
		if err != nil {
			b.Fatal(err)
		}
		if err := tb.CreatePatchIndex("k", core.NearlySorted, tinyOpts(core.DesignBitmap)); err != nil {
			b.Fatal(err)
		}
		if enable {
			if err := db.EnableWAL(b.TempDir(), wal.SyncNone); err != nil {
				b.Fatal(err)
			}
		}
		const batch = 64
		rows := make([]storage.Row, batch)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range rows {
				rows[j] = durRow(int64(i*batch + j))
			}
			if err := db.InsertRows("t", rows); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("wal=off", func(b *testing.B) { run(b, false) })
	b.Run("wal=on", func(b *testing.B) { run(b, true) })
}

// TestModifyValidatesBeforeLogging: a Modify the engine must refuse — a
// rowID beyond the partition, a value of another kind than the column's,
// an unknown column — returns an error BEFORE its record reaches the WAL.
// Logged first, the record panicked in the delta on every later replay
// ("pdt: logical position 9999 out of range"): an unrecoverable
// directory. Both lock modes are covered: k is NSC-indexed
// (partition-scoped), s NUC-indexed (exclusive).
func TestModifyValidatesBeforeLogging(t *testing.T) {
	dir := t.TempDir()
	db := NewDatabase()
	tb, err := db.CreateTable("t", durSchema(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var seed []storage.Row
	for k := int64(0); k < 8; k++ {
		seed = append(seed, durRow(k))
	}
	if err := tb.Load(seed); err != nil {
		t.Fatal(err)
	}
	if err := tb.CreatePatchIndex("k", core.NearlySorted, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	if err := tb.CreatePatchIndex("s", core.NearlyUnique, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	if err := db.EnableWAL(dir, wal.SyncNone); err != nil {
		t.Fatal(err)
	}
	mixedWorkload(t, db)
	want := tableContents(tb)
	logged := tb.wal.lsn.Load()

	bad := []struct {
		name   string
		rowIDs []uint64
		column string
		values []storage.Value
	}{
		{"rowID out of range, NSC column", []uint64{0, 9999}, "k", []storage.Value{storage.I64(1), storage.I64(2)}},
		{"rowID out of range, NUC column", []uint64{9999}, "s", []storage.Value{storage.Str("x")}},
		{"string into BIGINT column", []uint64{0}, "k", []storage.Value{storage.Str("x")}},
		{"int into string column", []uint64{0}, "s", []storage.Value{storage.I64(1)}},
		{"unknown column", []uint64{0}, "nope", []storage.Value{storage.I64(1)}},
	}
	for _, c := range bad {
		if err := db.Modify("t", 0, c.rowIDs, c.column, c.values); err == nil {
			t.Fatalf("%s: Modify returned no error", c.name)
		}
		if got := tb.wal.lsn.Load(); got != logged {
			t.Fatalf("%s: the refused Modify appended %d WAL record(s)", c.name, got-logged)
		}
	}
	comparePartitions(t, "after refused modifies", tableContents(tb), want)
	got, _ := recoveredContents(t, dir, "t", "k")
	comparePartitions(t, "recovered", got, want)
}

// TestLoadKeepsPendingUpdates loads into a table whose deltas still hold
// inserts, deletes and a modify (AutoCheckpoint off): Load must fold them
// into base storage before appending, live and after WAL recovery.
func TestLoadKeepsPendingUpdates(t *testing.T) {
	dir := t.TempDir()
	db := NewDatabase()
	db.AutoCheckpoint = false
	tb, err := db.CreateTable("t", durSchema(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var load []storage.Row
	for k := int64(0); k < 10; k++ {
		load = append(load, durRow(k))
	}
	if err := tb.Load(load); err != nil {
		t.Fatal(err)
	}
	if err := tb.CreatePatchIndex("k", core.NearlySorted, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	if err := db.EnableWAL(dir, wal.SyncNone); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.InsertRowsPartition("t", 0, []storage.Row{durRow(100), durRow(101), durRow(102)}))
	must(db.DeleteRowIDs("t", 1, []uint64{0, 2}))
	must(db.Modify("t", 1, []uint64{1}, "k", []storage.Value{storage.I64(60)}))

	// The model: rowIDs are positions in the current view, so the
	// delete drops 5 and 7 and the modify then rewrites the key of 8.
	var want [][]storage.Row
	want = append(want, []storage.Row{durRow(0), durRow(1), durRow(2), durRow(3), durRow(4), durRow(100), durRow(101), durRow(102)})
	want = append(want, []storage.Row{durRow(6), {storage.I64(60), storage.Str("s8")}, durRow(9)})
	comparePartitions(t, "before Load", tableContents(tb), want)

	more := []storage.Row{durRow(200), durRow(201)}
	must(tb.Load(more))
	want[0] = append(want[0], more[0])
	want[1] = append(want[1], more[1])
	comparePartitions(t, "after Load", tableContents(tb), want)
	validateIndexes(t, tb, "k")

	got, _ := recoveredContents(t, dir, "t", "k")
	comparePartitions(t, "recovered", got, want)
}
