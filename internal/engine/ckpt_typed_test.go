package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"patchindex/internal/core"
	"patchindex/internal/pdt"
	"patchindex/internal/storage"
	"patchindex/internal/wal"
)

// requireSameColumns fails unless every partition of got holds exactly
// want's logical columns (pending deltas included), floats compared by
// bit pattern.
func requireSameColumns(t *testing.T, label string, got, want *Table) {
	t.Helper()
	if got.NumPartitions() != want.NumPartitions() {
		t.Fatalf("%s: %d partitions, want %d", label, got.NumPartitions(), want.NumPartitions())
	}
	gs, ws := got.Snapshot(), want.Snapshot()
	defer gs.Close()
	defer ws.Close()
	for p := 0; p < want.NumPartitions(); p++ {
		gv, wv := gs.View(p), ws.View(p)
		requireSameView(t, fmt.Sprintf("%s: partition %d", label, p), want.Schema(), gv, wv)
	}
}

func requireSameView(t *testing.T, label string, schema storage.Schema, got, want *pdt.View) {
	t.Helper()
	if got.NumRows() != want.NumRows() {
		t.Fatalf("%s: %d rows, want %d", label, got.NumRows(), want.NumRows())
	}
	for c, def := range schema {
		var same bool
		switch def.Kind {
		case storage.KindInt64:
			same = slices.Equal(got.MaterializeInt64(c), want.MaterializeInt64(c))
		case storage.KindFloat64:
			same = slices.EqualFunc(got.MaterializeFloat64(c), want.MaterializeFloat64(c), func(a, b float64) bool {
				return math.Float64bits(a) == math.Float64bits(b)
			})
		default:
			same = slices.Equal(got.MaterializeString(c), want.MaterializeString(c))
		}
		if !same {
			t.Fatalf("%s: column %q differs", label, def.Name)
		}
	}
}

// requireIndexesValid checks every index slot on the named columns.
func requireIndexesValid(t *testing.T, tb *Table, columns ...string) {
	t.Helper()
	for _, column := range columns {
		xs := tb.PatchIndexes(column)
		if len(xs) != tb.NumPartitions() {
			t.Fatalf("column %q: %d index slots for %d partitions", column, len(xs), tb.NumPartitions())
		}
		for p, x := range xs {
			if err := x.Validate(); err != nil {
				t.Fatalf("column %q slot %d: %v", column, p, err)
			}
		}
	}
}

// recoverCopy recovers a copy of dir (Recover re-attaches the WAL to
// the directory it reads) into a fresh database.
func recoverCopy(t *testing.T, dir string) (*Database, *RecoverStats) {
	t.Helper()
	crash := filepath.Join(t.TempDir(), "crash")
	copyTree(t, dir, crash)
	db := NewDatabase()
	stats, err := db.Recover(crash)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return db, stats
}

// TestCheckpointRoundTripTyped recovers seeded tables with one column
// of each kind — NaN payloads, negative zero, empty strings, an empty
// partition, and inserts, deletes and modifies still pending in the
// deltas when the checkpoint is taken — and requires the recovered
// partitions to equal the live ones column by column, first from the
// checkpoint alone and then with rewrite images replayed on top.
func TestCheckpointRoundTripTyped(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		db := NewDatabase()
		tb, err := db.CreateTable("t", typedSchema(), 4)
		if err != nil {
			t.Fatal(err)
		}
		var k int64
		for p := 0; p < 3; p++ {
			if err := db.InsertRowsPartition("t", p, typedRows(rng, &k, 10+rng.Intn(40))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tb.CreatePatchIndex("i", core.NearlySorted, tinyOpts(core.DesignBitmap)); err != nil {
			t.Fatal(err)
		}
		if err := tb.CreatePatchIndex("s", core.NearlyUnique, tinyOpts(core.DesignIdentifier)); err != nil {
			t.Fatal(err)
		}
		if err := db.EnableWAL(dir, wal.SyncNone); err != nil {
			t.Fatal(err)
		}
		db.AutoCheckpoint = false
		pendingTypedOps(t, db, rng, &k)
		if tb.delta[0].Empty() || tb.delta[1].Empty() {
			t.Fatal("the pending operations were folded into base storage before the checkpoint")
		}
		if err := db.CheckpointToDisk(dir); err != nil {
			t.Fatal(err)
		}

		label := fmt.Sprintf("seed %d, checkpoint only", seed)
		rec, stats := recoverCopy(t, dir)
		if stats.Applied != 0 {
			t.Fatalf("%s: %d records replayed, want 0", label, stats.Applied)
		}
		requireSameColumns(t, label, rec.MustTable("t"), tb)
		requireIndexesValid(t, rec.MustTable("t"), "i", "s")

		// Rewrite images above the checkpoint: one partition reordered,
		// then a bulk load that reaches the empty partition.
		if err := tb.ReorderPartition(1, reversePartition(1)); err != nil {
			t.Fatal(err)
		}
		// Load re-derives both indexes itself.
		if err := tb.Load(typedRows(rng, &k, 8)); err != nil {
			t.Fatal(err)
		}
		if err := db.CheckpointToDisk(dir); err != nil {
			t.Fatal(err)
		}
		if err := tb.ReorderPartition(3, reversePartition(3)); err != nil {
			t.Fatal(err)
		}
		label = fmt.Sprintf("seed %d, checkpoint plus rewrite", seed)
		rec, stats = recoverCopy(t, dir)
		if stats.Applied != 1 {
			t.Fatalf("%s: %d records replayed, want the one rewrite", label, stats.Applied)
		}
		requireSameColumns(t, label, rec.MustTable("t"), tb)
		requireIndexesValid(t, rec.MustTable("t"), "i", "s")
	}
}

// encodeRewriteRows is the row-based rewrite encoder the typed one
// replaced: it boxes the view into rows and encodes them with
// encodeRows. It stays here to pin the WAL format.
func encodeRewriteRows(schema storage.Schema, p int, v *pdt.View) []byte {
	rows := make([]storage.Row, v.NumRows())
	for i := range rows {
		row := make(storage.Row, len(schema))
		for c := range schema {
			row[c] = v.Get(i, c)
		}
		rows[i] = row
	}
	return encodeRows(appendU32(nil, uint32(p)), schema, rows)
}

// TestRewriteImageFormat requires the typed rewrite encoder to produce
// the row-based encoder's bytes, for partitions with and without
// pending deltas and an empty one, and the typed decoder to read them
// back into the same columns.
func TestRewriteImageFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := NewDatabase()
	tb, err := db.CreateTable("t", typedSchema(), 3)
	if err != nil {
		t.Fatal(err)
	}
	var k int64
	for p := 0; p < 2; p++ {
		if err := db.InsertRowsPartition("t", p, typedRows(rng, &k, 30)); err != nil {
			t.Fatal(err)
		}
	}
	db.AutoCheckpoint = false
	pendingTypedOps(t, db, rng, &k)
	schema := tb.Schema()
	snap := tb.Snapshot()
	defer snap.Close()
	for p := 0; p < tb.NumPartitions(); p++ {
		v := snap.View(p)
		got, want := encodeRewrite(schema, p, v), encodeRewriteRows(schema, p, v)
		if !bytes.Equal(got, want) {
			t.Fatalf("partition %d: typed rewrite image (%d bytes) differs from the row-based one (%d bytes)", p, len(got), len(want))
		}
		d := &walDec{b: got}
		if q := d.u32(); q != uint32(p) {
			t.Fatalf("partition %d: image names partition %d", p, q)
		}
		part := d.rewriteImage(schema)
		if err := d.finish(); err != nil {
			t.Fatalf("partition %d: decoding the image: %v", p, err)
		}
		requireSameView(t, fmt.Sprintf("partition %d decoded", p), schema, pdt.NewView(part, nil), v)
	}
}

// TestRecoverCheckpointWrittenBeforeTypedLoad recovers testdata/ckpt_v1,
// a checkpoint directory written by the row-based loader's tree (see
// buildCkptFixture and logCkptFixtureTail), and requires the state the
// same build reaches live today. Building it again here must also write
// the same checkpoint and WAL bytes: the format did not move.
func TestRecoverCheckpointWrittenBeforeTypedLoad(t *testing.T) {
	fixture := filepath.Join("testdata", "ckpt_v1")
	fresh := t.TempDir()
	live := NewDatabase()
	buildCkptFixture(t, live, fresh)
	logCkptFixtureTail(t, live)
	for _, name := range []string{"MANIFEST", "t.ckpt", "wal/t.p0.wal", "wal/t.p1.wal", "wal/t.p2.wal", "wal/t.x.wal"} {
		old, err := os.ReadFile(filepath.Join(fixture, name))
		if err != nil {
			t.Fatal(err)
		}
		now, err := os.ReadFile(filepath.Join(fresh, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(old, now) {
			t.Errorf("%s: %d bytes written today differ from the committed %d", name, len(now), len(old))
		}
	}
	rec, stats := recoverCopy(t, fixture)
	if stats.Tables != 1 || stats.Applied != 3 || stats.TornSegments != 0 {
		t.Fatalf("unexpected stats: %+v", stats)
	}
	requireSameColumns(t, "recovered fixture", rec.MustTable("t"), live.MustTable("t"))
	requireIndexesValid(t, rec.MustTable("t"), "i", "s")
}

// TestCheckpointRowCountBoundedByBytes feeds a CRC-valid checkpoint
// with 1 000 BIGINT columns whose one partition declares as many rows
// as the file has bytes. The loader must refuse it as a checkpoint
// error before allocating the partition.
func TestCheckpointRowCountBoundedByBytes(t *testing.T) {
	b := appendU64(appendU32(appendU32(nil, magicCheckpoint), 1), 0)
	b = appendU32(b, 1000)
	for c := 0; c < 1000; c++ {
		b = append(appendStr(b, fmt.Sprintf("c%d", c)), byte(storage.KindInt64))
	}
	b = appendU32(b, 1)                  // partitions
	b = appendU64(b, uint64(len(b)+8+4)) // rows: the body's length
	b = appendU32(b, 0)                  // indexes
	b = appendU32(b, crc32.ChecksumIEEE(b))
	path := filepath.Join(t.TempDir(), "t.ckpt")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := readCheckpointFile(path)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a checkpoint declaring more rows than its bytes hold was accepted")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("refusing a %d-byte checkpoint allocated %d bytes", len(b), alloc)
	}
	if msg := err.Error(); !strings.Contains(msg, "checkpoint") || strings.Contains(msg, "WAL") {
		t.Fatalf("error does not name the checkpoint: %v", err)
	}
	// A truncated section is a truncated checkpoint, not a WAL record.
	short := appendU64(appendU32(appendU32(nil, magicCheckpoint), 1), 0)
	short = appendU32(appendU32(appendU32(short, 0), 0), 1) // no columns or partitions, one index without a name
	short = appendU32(short, crc32.ChecksumIEEE(short))
	if _, err := decodeCheckpoint(short, path); err == nil || !strings.Contains(err.Error(), "truncated checkpoint") {
		t.Fatalf("truncated index section: %v", err)
	}
}

// smallCheckpoint writes a checkpoint of table t — one column of each
// kind, two partitions (the second empty), an NSC index on i — and
// returns its bytes.
func smallCheckpoint(tb testing.TB) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(3))
	db := NewDatabase()
	t, err := db.CreateTable("t", typedSchema(), 2)
	if err != nil {
		tb.Fatal(err)
	}
	var k int64
	if err := db.InsertRowsPartition("t", 0, typedRows(rng, &k, 6)); err != nil {
		tb.Fatal(err)
	}
	if err := t.CreatePatchIndex("i", core.NearlySorted, tinyOpts(core.DesignBitmap)); err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	if err := db.CheckpointToDisk(dir); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "t.ckpt"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzReadCheckpointFile feeds mutated checkpoints to the loader. The
// harness rewrites the CRC trailer so mutations reach the decoder;
// every input must end in an error or in equally long columns and
// Validate-clean index slots, one per partition — never a panic.
func FuzzReadCheckpointFile(f *testing.F) {
	seed := smallCheckpoint(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	// The first partition's row count, past the header and schema.
	off := 4 + 4 + 8 + 4 + 4
	for _, def := range typedSchema() {
		off += 4 + len(def.Name) + 1
	}
	huge := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint64(huge[off:], 1<<40)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 4 {
			data = append([]byte(nil), data...)
			binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
		}
		ck, err := decodeCheckpoint(data, "fuzz.ckpt")
		if err != nil {
			return
		}
		for p, part := range ck.parts {
			if len(part.Schema()) != len(ck.schema) {
				t.Fatalf("partition %d: schema width %d, want %d", p, len(part.Schema()), len(ck.schema))
			}
			for c := range ck.schema {
				if n := part.Column(c).Len(); n != part.NumRows() {
					t.Fatalf("partition %d column %d: %d values, partition has %d rows", p, c, n, part.NumRows())
				}
			}
		}
		for column, xs := range ck.indexes {
			if len(xs) != len(ck.parts) {
				t.Fatalf("index %q: %d slots for %d partitions", column, len(xs), len(ck.parts))
			}
			for p, x := range xs {
				if err := x.Validate(); err != nil {
					t.Fatalf("index %q slot %d accepted but invalid: %v", column, p, err)
				}
			}
		}
	})
}
