package engine

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"patchindex/internal/core"
	"patchindex/internal/pdt"
	"patchindex/internal/storage"
	"patchindex/internal/wal"
)

// Durability plumbing: the logging half of the paper's recovery story
// (Section 3.4 — checkpoints "in combination with logging of subsequent
// update operations"). See the package comment's "# Durability" section
// for the contract; this file owns the mechanics:
//
//   - tableWAL: one wal.Segment per partition plus one for
//     exclusive-lock operations, and the per-table LSN counter.
//   - the logical record codec (encode*/decode*): rows, deletes,
//     modifies, and partition rewrite images, encoded against the
//     table schema. Whole-partition images (rewrite records and
//     checkpoint partitions) are encoded from and decoded into typed
//     columns (colBuf, partBuilder), never into storage.Row values.
//   - Database.EnableWAL / CheckpointToDisk / Recover: turn logging
//     on, persist a consistent snapshot and truncate the logs behind
//     it, and rebuild a database from checkpoint + surviving records.

// WAL op codes. The body layouts are documented on their encoders.
const (
	walOpInsertChunk byte = 1 // one partition chunk of a parallel insert
	walOpInsertExcl  byte = 2 // an exclusive-lock insert (all partitions)
	walOpDelete      byte = 3 // DeleteRowIDs on one partition
	walOpModify      byte = 4 // Modify on one partition
	walOpRewrite     byte = 5 // full partition image after a physical rewrite
)

// tableWAL is one table's write-ahead state. segs[p] is appended to only
// while partition p is held (its partition lock, or the exclusive
// structure lock); excl only under the exclusive structure lock. The LSN
// counter is table-global and assigned inside the op's critical section,
// so LSNs are strictly increasing within every segment and replaying the
// union of all segments in LSN order reproduces a legal serialization.
type tableWAL struct {
	lsn  atomic.Uint64
	segs []*wal.Segment
	excl *wal.Segment
}

// logWAL assigns the next table LSN and appends one logical record to
// seg — BEFORE the op mutates anything, so a record's presence in the
// log is implied by the op having published (write-ahead). The caller
// holds the engine lock that owns seg's appends; assigning the LSN under
// that same lock is what keeps per-segment LSNs monotonic.
func (t *Table) logWAL(seg *wal.Segment, op byte, body []byte) error {
	lsn := t.wal.lsn.Add(1)
	err := seg.Append(lsn, op, body)
	putWALBody(body)
	if err != nil {
		return fmt.Errorf("engine: WAL append for table %q: %w", t.name, err)
	}
	return nil
}

// walBodyPool recycles record-body buffers. A body is built by an
// encoder, framed into the segment's write buffer by Append, and then
// dead — pooling the backing arrays keeps a multi-KB allocation (and
// its garbage) off every logged write path.
var walBodyPool sync.Pool

// getWALBody returns an empty buffer with at least the given capacity,
// reusing a pooled backing array when one is large enough.
func getWALBody(capacity int) []byte {
	if v := walBodyPool.Get(); v != nil {
		if b := *(v.(*[]byte)); cap(b) >= capacity {
			return b[:0]
		}
	}
	return make([]byte, 0, capacity)
}

// putWALBody returns a buffer to the pool. Callers hand bodies to
// logWAL, which owns this call — a body must not be used after logging.
func putWALBody(b []byte) {
	walBodyPool.Put(&b)
}

// --- logical record codec -------------------------------------------

// rowsSize returns the exact encoded size of rows, so encoders can
// allocate a record body once instead of growing it append by append —
// the encode cost sits on every logged write path.
func rowsSize(schema storage.Schema, rows []storage.Row) int {
	n := 4
	for _, r := range rows {
		for c, def := range schema {
			if def.Kind == storage.KindString {
				n += 4 + len(r[c].S)
			} else {
				n += 8
			}
		}
	}
	return n
}

// encodeRows appends the schema-shaped encoding of rows: u32 count, then
// per row per column int64/float64 as 8 LE bytes and strings as u32
// length + bytes.
func encodeRows(b []byte, schema storage.Schema, rows []storage.Row) []byte {
	b = appendU32(b, uint32(len(rows)))
	for _, r := range rows {
		for c, def := range schema {
			switch def.Kind {
			case storage.KindInt64:
				b = appendU64(b, uint64(r[c].I))
			case storage.KindFloat64:
				b = appendU64(b, math.Float64bits(r[c].F))
			default:
				b = appendStr(b, r[c].S)
			}
		}
	}
	return b
}

func (d *walDec) rows(schema storage.Schema) []storage.Row {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	rows := make([]storage.Row, 0, minInt(int(n), 1<<16))
	for i := uint32(0); i < n && d.err == nil; i++ {
		row := make(storage.Row, len(schema))
		for c, def := range schema {
			switch def.Kind {
			case storage.KindInt64:
				row[c] = storage.I64(int64(d.u64()))
			case storage.KindFloat64:
				row[c] = storage.F64(math.Float64frombits(d.u64()))
			default:
				row[c] = storage.Str(d.str())
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// encodeInsertChunk: u32 partition | rows.
func encodeInsertChunk(schema storage.Schema, p int, rows []storage.Row) []byte {
	b := getWALBody(4 + rowsSize(schema, rows))
	return encodeRows(appendU32(b, uint32(p)), schema, rows)
}

// encodePerPart: u32 nparts | rows per partition (walOpInsertExcl).
func encodePerPart(schema storage.Schema, perPart [][]storage.Row) []byte {
	size := 4
	for _, rows := range perPart {
		size += rowsSize(schema, rows)
	}
	b := appendU32(getWALBody(size), uint32(len(perPart)))
	for _, rows := range perPart {
		b = encodeRows(b, schema, rows)
	}
	return b
}

// encodeDelete: u32 partition | u32 count | rowIDs as u64s.
func encodeDelete(p int, rowIDs []uint64) []byte {
	b := appendU32(appendU32(getWALBody(8+8*len(rowIDs)), uint32(p)), uint32(len(rowIDs)))
	for _, r := range rowIDs {
		b = appendU64(b, r)
	}
	return b
}

// encodeModify: u32 partition | column name | u32 count | rowIDs |
// values (by the column's kind).
func encodeModify(schema storage.Schema, p int, column string, rowIDs []uint64, values []storage.Value) []byte {
	b := appendStr(appendU32(getWALBody(12+len(column)+16*len(rowIDs)), uint32(p)), column)
	b = appendU32(b, uint32(len(rowIDs)))
	for _, r := range rowIDs {
		b = appendU64(b, r)
	}
	kind := schema[schema.MustColumnIndex(column)].Kind
	for _, v := range values {
		switch kind {
		case storage.KindInt64:
			b = appendU64(b, uint64(v.I))
		case storage.KindFloat64:
			b = appendU64(b, math.Float64bits(v.F))
		default:
			b = appendStr(b, v.S)
		}
	}
	return b
}

// encodeRewrite: u32 partition | rows — the partition's full logical
// image after a physical rewrite (reorder, bulk load), taken from view
// v. Positional records logged before the rewrite refer to the
// pre-rewrite order, so the image re-baselines replay exactly like the
// rewrite re-anchored the live metadata. The rows are encoded straight
// from the view's typed columns, in the same row-major layout as
// encodeRows.
func encodeRewrite(schema storage.Schema, p int, v *pdt.View) []byte {
	cols := make([]colBuf, len(schema))
	n := v.NumRows()
	size := 8
	for c, def := range schema {
		switch def.Kind {
		case storage.KindInt64:
			cols[c].ints = v.MaterializeInt64(c)
			size += 8 * n
		case storage.KindFloat64:
			cols[c].floats = v.MaterializeFloat64(c)
			size += 8 * n
		default:
			cols[c].strs = v.MaterializeString(c)
			for _, s := range cols[c].strs {
				size += 4 + len(s)
			}
		}
	}
	b := appendU32(appendU32(getWALBody(size), uint32(p)), uint32(n))
	for r := 0; r < n; r++ {
		for c, def := range schema {
			switch def.Kind {
			case storage.KindInt64:
				b = appendU64(b, uint64(cols[c].ints[r]))
			case storage.KindFloat64:
				b = appendU64(b, math.Float64bits(cols[c].floats[r]))
			default:
				b = appendStr(b, cols[c].strs[r])
			}
		}
	}
	return b
}

// colBuf holds one column's values in the typed slice its kind selects
// — the unboxed form whole-partition images are encoded from and
// decoded into.
type colBuf struct {
	ints   []int64
	floats []float64
	strs   []string
}

// partBuilder decodes one whole partition (a checkpoint partition or a
// rewrite image) into typed columns preallocated to its row count, then
// hands them to storage without a second copy.
type partBuilder struct {
	schema storage.Schema
	cols   []colBuf
}

func newPartBuilder(schema storage.Schema, n int) *partBuilder {
	b := &partBuilder{schema: schema, cols: make([]colBuf, len(schema))}
	for c, def := range schema {
		switch def.Kind {
		case storage.KindInt64:
			b.cols[c].ints = make([]int64, n)
		case storage.KindFloat64:
			b.cols[c].floats = make([]float64, n)
		default:
			b.cols[c].strs = make([]string, n)
		}
	}
	return b
}

// block decodes rows [0, n) of column c from a checkpoint column
// block, where they lie one after another.
func (b *partBuilder) block(d *walDec, c, n int) {
	col := &b.cols[c]
	switch b.schema[c].Kind {
	case storage.KindInt64:
		raw := d.take(8 * n)
		for i := range len(raw) / 8 {
			col.ints[i] = int64(leU64(raw[8*i:]))
		}
	case storage.KindFloat64:
		raw := d.take(8 * n)
		for i := range len(raw) / 8 {
			col.floats[i] = math.Float64frombits(leU64(raw[8*i:]))
		}
	default:
		for i := 0; i < n && d.err == nil; i++ {
			col.strs[i] = d.str()
		}
	}
}

// cell decodes one value of column c into row r (row-major images).
func (b *partBuilder) cell(d *walDec, c, r int) {
	switch b.schema[c].Kind {
	case storage.KindInt64:
		b.cols[c].ints[r] = int64(d.u64())
	case storage.KindFloat64:
		b.cols[c].floats[r] = math.Float64frombits(d.u64())
	default:
		b.cols[c].strs[r] = d.str()
	}
}

// partition publishes the decoded columns as a storage partition.
func (b *partBuilder) partition() *storage.Partition {
	cols := make([]*storage.Column, len(b.schema))
	for c, def := range b.schema {
		switch def.Kind {
		case storage.KindInt64:
			cols[c] = storage.ColumnOf(def.Name, b.cols[c].ints)
		case storage.KindFloat64:
			cols[c] = storage.ColumnOf(def.Name, b.cols[c].floats)
		default:
			cols[c] = storage.ColumnOf(def.Name, b.cols[c].strs)
		}
	}
	return storage.NewPartitionFromColumns(b.schema, cols)
}

// rowsFit reports whether n rows of schema can fit in the undecoded
// bytes: a numeric cell takes 8 bytes and a string cell at least its
// 4-byte length. It bounds every allocation sized by a decoded row
// count, so a short input fails before it allocates, not after.
func (d *walDec) rowsFit(schema storage.Schema, n uint64) bool {
	var perRow uint64
	for _, def := range schema {
		if def.Kind == storage.KindString {
			perRow += 4
		} else {
			perRow += 8
		}
	}
	if perRow == 0 {
		return n == 0
	}
	return n <= uint64(len(d.b)-d.off)/perRow
}

// rewriteImage decodes a rewrite record's rows (u32 count, then
// row-major cells) into a partition.
func (d *walDec) rewriteImage(schema storage.Schema) *storage.Partition {
	n := d.u32()
	if d.err != nil || !d.rowsFit(schema, uint64(n)) {
		d.fail()
		return nil
	}
	b := newPartBuilder(schema, int(n))
	for r := 0; r < int(n); r++ {
		for c := range schema {
			b.cell(d, c, r)
		}
	}
	return b.partition()
}

// walDec is a cursor over a record body (or, with what set, another
// encoded image). Reads past the end set err and return zero values;
// finish() reports the first error and rejects trailing bytes.
type walDec struct {
	b    []byte
	off  int
	err  error
	what string // names the input in errors; "" means a WAL record body
}

func (d *walDec) name() string {
	if d.what == "" {
		return "WAL record body"
	}
	return d.what
}

// take returns the next n bytes, or nil (failing d) when fewer remain.
func (d *walDec) take(n int) []byte {
	if d.err != nil || n < 0 || n > len(d.b)-d.off {
		d.fail()
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

func (d *walDec) u32() uint32 {
	if b := d.take(4); b != nil {
		return leU32(b)
	}
	return 0
}

func (d *walDec) u64() uint64 {
	if b := d.take(8); b != nil {
		return leU64(b)
	}
	return 0
}

func (d *walDec) str() string {
	return string(d.take(int(d.u32())))
}

func (d *walDec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("engine: truncated %s", d.name())
	}
}

func (d *walDec) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("engine: %d trailing bytes in %s", len(d.b)-d.off, d.name())
	}
	return nil
}

// --- enabling, logging lifecycle ------------------------------------

// walSegPath returns the per-partition segment path for table under dir.
func walSegPath(dir, table string, p int) string {
	return filepath.Join(dir, "wal", fmt.Sprintf("%s.p%d.wal", table, p))
}

// walExclPath returns the exclusive-op segment path for table under dir.
func walExclPath(dir, table string) string {
	return filepath.Join(dir, "wal", table+".x.wal")
}

// openTableWAL opens (creating as needed) every segment of one table and
// returns the assembled tableWAL with its LSN counter set past every
// surviving record and floorLSN.
func openTableWAL(dir, table string, nparts int, policy wal.SyncPolicy, floorLSN uint64) (*tableWAL, error) {
	w := &tableWAL{segs: make([]*wal.Segment, nparts)}
	maxLSN := floorLSN
	closeAll := func() {
		for _, s := range w.segs {
			if s != nil {
				s.Close()
			}
		}
	}
	for p := range w.segs {
		seg, err := wal.OpenSegment(walSegPath(dir, table, p), policy)
		if err != nil {
			closeAll()
			return nil, err
		}
		w.segs[p] = seg
		if l := seg.LastLSN(); l > maxLSN {
			maxLSN = l
		}
	}
	excl, err := wal.OpenSegment(walExclPath(dir, table), policy)
	if err != nil {
		closeAll()
		return nil, err
	}
	w.excl = excl
	if l := excl.LastLSN(); l > maxLSN {
		maxLSN = l
	}
	w.lsn.Store(maxLSN)
	return w, nil
}

// EnableWAL turns write-ahead logging on for every current and future
// table of the database. Segments live under dir/wal; checkpoints and
// the manifest under dir. The segments are attached FIRST and the
// baseline checkpoint written second, so there is no window in which an
// update could publish unlogged: any record racing the baseline
// checkpoint either folds into its snapshot (LSN at or below the
// checkpoint LSN) or survives in the log above it.
//
// DDL (CreateTable, CreatePatchIndex, Load of a table created after the
// last checkpoint) is not logged — call CheckpointToDisk after DDL to
// make it durable. With SyncNone every update that returned survives a
// process kill; SyncEach extends that to power loss.
func (db *Database) EnableWAL(dir string, policy wal.SyncPolicy) error {
	if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
		return err
	}
	if err := func() error {
		db.tablesMu.Lock()
		defer db.tablesMu.Unlock()
		if db.walDir != "" {
			return fmt.Errorf("engine: WAL already enabled at %q", db.walDir)
		}
		db.walDir = dir
		db.walSync = policy
		return nil
	}(); err != nil {
		return err
	}
	for _, t := range db.tablesSnapshot() {
		w, err := openTableWAL(dir, t.name, t.store.NumPartitions(), policy, 0)
		if err != nil {
			return err
		}
		t.mu.Lock()
		t.wal = w
		t.mu.Unlock()
	}
	return db.CheckpointToDisk(dir)
}

// WALDir returns the directory WAL segments and checkpoints live under,
// or "" when logging is disabled.
func (db *Database) WALDir() string {
	db.tablesMu.RLock()
	defer db.tablesMu.RUnlock()
	return db.walDir
}

// --- checkpoint files -----------------------------------------------

const magicCheckpoint = 0x50494331 // "PIC1"

// manifestName is the file that makes a checkpoint set visible to
// Recover; it is written (tmp+rename) only after every table's
// checkpoint file is in place, so a crash mid-checkpoint leaves the
// previous manifest — and the WAL records it still needs — intact.
const manifestName = "MANIFEST"

const manifestHeader = "patchindex-manifest v1"

// CheckpointToDisk persists a consistent snapshot of every table under
// dir and truncates each table's WAL segments past its checkpoint LSN.
// Each table is captured atomically (all partition locks briefly held,
// the same capture Snapshot uses); the checkpoint LSN is read under
// those locks, so the snapshot holds exactly the operations with LSN at
// or below it. Files are written to temporaries and renamed; the
// manifest flips last; truncation runs only after the manifest rename,
// so every crash window leaves a recoverable (checkpoint, log-suffix)
// pair on disk.
func (db *Database) CheckpointToDisk(dir string) error {
	db.cpMu.Lock()
	defer db.cpMu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type pendingTruncate struct {
		w     *tableWAL
		cpLSN uint64
	}
	var names []string
	var pending []pendingTruncate
	for _, t := range db.tablesSnapshot() {
		t.lockAllPartitions()
		snap := t.snapshotLocked()
		w := t.wal
		var cpLSN uint64
		if w != nil {
			cpLSN = w.lsn.Load()
		}
		t.unlockAllPartitions()
		err := writeCheckpointFile(dir, t.name, snap, cpLSN)
		snap.Close()
		if err != nil {
			return fmt.Errorf("engine: checkpointing table %q: %w", t.name, err)
		}
		names = append(names, t.name)
		if w != nil {
			pending = append(pending, pendingTruncate{w: w, cpLSN: cpLSN})
		}
	}
	if err := writeManifest(dir, names); err != nil {
		return err
	}
	for _, pt := range pending {
		for _, seg := range pt.w.segs {
			if err := seg.TruncateThrough(pt.cpLSN); err != nil {
				return err
			}
		}
		if err := pt.w.excl.TruncateThrough(pt.cpLSN); err != nil {
			return err
		}
	}
	return nil
}

func writeManifest(dir string, names []string) error {
	tmp, err := os.CreateTemp(dir, ".manifest-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	var b strings.Builder
	b.WriteString(manifestHeader + "\n")
	for _, n := range names {
		b.WriteString(n + "\n")
	}
	if _, err := tmp.WriteString(b.String()); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, manifestName))
}

func readManifest(dir string) ([]string, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) == 0 || lines[0] != manifestHeader {
		return nil, fmt.Errorf("engine: bad manifest header in %s", dir)
	}
	return lines[1:], nil
}

// writeCheckpointFile persists one table snapshot as dir/<name>.ckpt
// (tmp+rename): a PIC1 header with the checkpoint LSN, the schema, the
// logical column data of every partition, every PatchIndex via
// core.Index.WriteTo, and a whole-file CRC32 trailer.
func writeCheckpointFile(dir, name string, snap *TableSnapshot, cpLSN uint64) error {
	tmp, err := os.CreateTemp(dir, "."+name+".ckpt-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	h := crc32.NewIEEE()
	w := io.MultiWriter(tmp, h)

	schema := snap.Schema()
	b := appendU32(nil, magicCheckpoint)
	b = appendU32(b, 1) // version
	b = appendU64(b, cpLSN)
	b = appendU32(b, uint32(len(schema)))
	for _, def := range schema {
		b = appendStr(b, def.Name)
		b = append(b, byte(def.Kind))
	}
	b = appendU32(b, uint32(snap.NumPartitions()))
	if _, err := w.Write(b); err != nil {
		tmp.Close()
		return err
	}
	for p := 0; p < snap.NumPartitions(); p++ {
		v := snap.View(p)
		b = appendU64(b[:0], uint64(v.NumRows()))
		for c, def := range schema {
			switch def.Kind {
			case storage.KindInt64:
				for _, x := range v.MaterializeInt64(c) {
					b = appendU64(b, uint64(x))
				}
			case storage.KindFloat64:
				for _, x := range v.MaterializeFloat64(c) {
					b = appendU64(b, math.Float64bits(x))
				}
			default:
				for _, s := range v.MaterializeString(c) {
					b = appendStr(b, s)
				}
			}
		}
		if _, err := w.Write(b); err != nil {
			tmp.Close()
			return err
		}
	}
	var cols []string
	for column := range snap.indexes {
		if snap.indexes[column] != nil {
			cols = append(cols, column)
		}
	}
	sort.Strings(cols)
	if _, err := w.Write(appendU32(b[:0], uint32(len(cols)))); err != nil {
		tmp.Close()
		return err
	}
	for _, column := range cols {
		if _, err := w.Write(appendStr(b[:0], column)); err != nil {
			tmp.Close()
			return err
		}
		for _, x := range snap.indexes[column] {
			if _, err := x.WriteTo(w); err != nil {
				tmp.Close()
				return err
			}
		}
	}
	// Trailer: the CRC itself is written to the file only.
	if _, err := tmp.Write(appendU32(b[:0], h.Sum32())); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, name+".ckpt"))
}

// ckptTable is one parsed checkpoint file.
type ckptTable struct {
	cpLSN   uint64
	schema  storage.Schema
	parts   []*storage.Partition
	indexes map[string][]*core.Index
}

// IndexRowsError reports a checkpoint index slot that covers a different
// number of rows than its partition holds.
type IndexRowsError struct {
	Path, Column        string
	Partition           int
	IndexRows, PartRows uint64
}

func (e *IndexRowsError) Error() string {
	return fmt.Sprintf("engine: index %q partition %d in checkpoint %s covers %d rows, the partition holds %d",
		e.Column, e.Partition, e.Path, e.IndexRows, e.PartRows)
}

// readCheckpointFile parses and verifies one checkpoint file. The whole
// file is checked against its CRC trailer first; then each partition's
// column blocks — one column after another, a column's values one after
// another — are decoded straight into typed columns preallocated to the
// partition's row count, once the remaining bytes are known to be able
// to hold that many rows. Every index slot must pass core.Index.Validate
// and cover exactly its partition's rows (*IndexRowsError otherwise).
func readCheckpointFile(path string) (*ckptTable, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeCheckpoint(data, path)
}

// decodeCheckpoint is readCheckpointFile on the file's bytes; path only
// names the file in errors.
func decodeCheckpoint(data []byte, path string) (*ckptTable, error) {
	if len(data) < 24 {
		return nil, fmt.Errorf("engine: checkpoint %s truncated", path)
	}
	body := data[:len(data)-4]
	if crc32.ChecksumIEEE(body) != leU32(data[len(data)-4:]) {
		return nil, fmt.Errorf("engine: checkpoint %s fails its checksum", path)
	}
	d := &walDec{b: body, what: "checkpoint"}
	if d.u32() != magicCheckpoint {
		return nil, fmt.Errorf("engine: bad magic in checkpoint %s", path)
	}
	if v := d.u32(); v != 1 {
		return nil, fmt.Errorf("engine: unsupported checkpoint version %d in %s", v, path)
	}
	ck := &ckptTable{cpLSN: d.u64(), indexes: make(map[string][]*core.Index)}
	ncols := d.u32()
	for i := uint32(0); i < ncols && d.err == nil; i++ {
		name := d.str()
		if d.off >= len(d.b) {
			d.fail()
			break
		}
		kind := storage.Kind(d.b[d.off])
		d.off++
		if kind > storage.KindString {
			return nil, fmt.Errorf("engine: bad column kind %d in checkpoint %s", kind, path)
		}
		ck.schema = append(ck.schema, storage.ColumnDef{Name: name, Kind: kind})
	}
	nparts := d.u32()
	if d.err == nil && nparts > uint32(len(d.b)) {
		return nil, fmt.Errorf("engine: implausible partition count %d in checkpoint %s", nparts, path)
	}
	for p := uint32(0); p < nparts && d.err == nil; p++ {
		nrows := d.u64()
		if d.err == nil && !d.rowsFit(ck.schema, nrows) {
			return nil, fmt.Errorf("engine: partition %d of checkpoint %s declares %d rows, more than its remaining %d bytes hold", p, path, nrows, len(d.b)-d.off)
		}
		n := int(nrows)
		b := newPartBuilder(ck.schema, n)
		for c := range ck.schema {
			b.block(d, c, n)
		}
		ck.parts = append(ck.parts, b.partition())
	}
	nidx := d.u32()
	for i := uint32(0); i < nidx && d.err == nil; i++ {
		column := d.str()
		if d.err != nil {
			break
		}
		idxs := make([]*core.Index, len(ck.parts))
		for p := range idxs {
			x := &core.Index{}
			r := bytes.NewReader(d.b[d.off:])
			n, err := x.ReadFrom(r)
			if err != nil {
				return nil, fmt.Errorf("engine: index %q partition %d in checkpoint %s: %w", column, p, path, err)
			}
			d.off += int(n)
			if err := x.Validate(); err != nil {
				return nil, fmt.Errorf("engine: index %q partition %d in checkpoint %s: %w", column, p, path, err)
			}
			if rows := uint64(ck.parts[p].NumRows()); x.Rows() != rows {
				return nil, &IndexRowsError{Path: path, Column: column, Partition: p, IndexRows: x.Rows(), PartRows: rows}
			}
			idxs[p] = x
		}
		ck.indexes[column] = idxs
	}
	if err := d.finish(); err != nil {
		return nil, fmt.Errorf("engine: checkpoint %s: %w", path, err)
	}
	return ck, nil
}

// --- recovery --------------------------------------------------------

// RecoverStats reports what Recover rebuilt.
type RecoverStats struct {
	// Tables restored from checkpoint files.
	Tables int
	// Applied counts WAL records replayed on top of the checkpoints.
	Applied int
	// Skipped counts surviving records already covered by a checkpoint
	// (LSN at or below the checkpoint LSN — present when a crash landed
	// between the manifest rename and the segment truncation).
	Skipped int
	// TornSegments counts segments whose tail stopped at a torn or
	// corrupt record; the records before the tear replayed normally.
	TornSegments int
	// UnknownSegments counts WAL files that match no manifest table
	// (a table created after the last checkpoint — its DDL was never
	// made durable, so its records cannot be interpreted).
	UnknownSegments int
}

// Recover rebuilds the database from dir: every manifest table is
// restored from its checkpoint file — each partition's column blocks
// decoded straight into typed columns that become the table's
// partitions as persisted, with no per-row or per-cell boxing, and the
// PatchIndexes read back via core.Index.ReadFrom and validated — then
// each table's surviving WAL records above the checkpoint LSN are
// replayed in LSN order through the ordinary update entry points — so
// index maintenance, collision directories, and auto-checkpointing re-run
// exactly as they would live. A rewrite record's image is decoded into
// typed columns the same way and replaces its partition wholesale. A
// torn or corrupt segment tail stops that segment's replay at the last
// intact record; because records are written before their op
// publishes, the lost suffix corresponds to operations that never
// returned, and the recovered state is a legal chunk-prefix state of
// the original history.
//
// The database must be empty. On success WAL logging is re-attached
// (SyncNone) so the recovered database keeps its durability.
func (db *Database) Recover(dir string) (*RecoverStats, error) {
	db.tablesMu.RLock()
	populated := len(db.tables) > 0 || db.walDir != ""
	db.tablesMu.RUnlock()
	if populated {
		return nil, errors.New("engine: Recover requires an empty database without WAL enabled")
	}
	names, err := readManifest(dir)
	if err != nil {
		return nil, fmt.Errorf("engine: reading manifest: %w", err)
	}
	stats := &RecoverStats{}
	known := map[string]bool{filepath.Join(dir, "wal"): true}
	for _, name := range names {
		ck, err := readCheckpointFile(filepath.Join(dir, name+".ckpt"))
		if err != nil {
			return nil, err
		}
		t, err := db.CreateTable(name, ck.schema, len(ck.parts))
		if err != nil {
			return nil, err
		}
		t.loadPartitionsExact(ck.parts)
		var cols []string
		for column := range ck.indexes {
			cols = append(cols, column)
		}
		sort.Strings(cols)
		for _, column := range cols {
			t.RestorePatchIndexes(column, ck.indexes[column])
		}
		stats.Tables++

		recs, torn, err := readTableWAL(dir, name, len(ck.parts))
		if err != nil {
			return nil, err
		}
		stats.TornSegments += torn
		for p := 0; p < len(ck.parts); p++ {
			known[walSegPath(dir, name, p)] = true
		}
		known[walExclPath(dir, name)] = true
		for _, rec := range recs {
			if rec.LSN <= ck.cpLSN {
				stats.Skipped++
				continue
			}
			if err := t.applyWALRecord(db, rec); err != nil {
				return nil, fmt.Errorf("engine: replaying LSN %d (op %d) of table %q: %w", rec.LSN, rec.Op, name, err)
			}
			stats.Applied++
		}

		w, err := openTableWAL(dir, name, len(ck.parts), wal.SyncNone, ck.cpLSN)
		if err != nil {
			return nil, err
		}
		t.mu.Lock()
		t.wal = w
		t.mu.Unlock()
	}
	if ents, err := os.ReadDir(filepath.Join(dir, "wal")); err == nil {
		for _, e := range ents {
			if !known[filepath.Join(dir, "wal", e.Name())] {
				stats.UnknownSegments++
			}
		}
	}
	db.tablesMu.Lock()
	db.walDir = dir
	db.walSync = wal.SyncNone
	db.tablesMu.Unlock()
	return stats, nil
}

// readTableWAL reads the valid record prefix of every segment of one
// table and returns the union ordered by LSN, plus how many segments
// ended in a torn or corrupt record.
func readTableWAL(dir, name string, nparts int) ([]wal.Record, int, error) {
	var all []wal.Record
	var torn int
	read := func(path string) error {
		recs, clean, err := wal.ReadSegment(path)
		if err != nil {
			return err
		}
		if !clean {
			torn++
		}
		all = append(all, recs...)
		return nil
	}
	for p := 0; p < nparts; p++ {
		if err := read(walSegPath(dir, name, p)); err != nil {
			return nil, torn, err
		}
	}
	if err := read(walExclPath(dir, name)); err != nil {
		return nil, torn, err
	}
	sort.Slice(all, func(i, j int) bool { return all[i].LSN < all[j].LSN })
	return all, torn, nil
}

// loadPartitionsExact publishes the checkpoint's decoded partitions
// exactly as persisted (no redistribution) — the recovery loader, run
// before any index is restored. The partitions' columns become the
// table's own.
func (t *Table) loadPartitionsExact(parts []*storage.Partition) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for p, part := range parts {
		t.publishPartitionLocked(p, part)
	}
}

// applyWALRecord replays one logical record through the ordinary update
// entry points. The caller replays in LSN order with WAL logging not yet
// attached (t.wal nil), so nothing is re-logged.
func (t *Table) applyWALRecord(db *Database, rec wal.Record) error {
	d := &walDec{b: rec.Body}
	schema := t.store.Schema()
	switch rec.Op {
	case walOpInsertChunk:
		p := int(d.u32())
		rows := d.rows(schema)
		if err := d.finish(); err != nil {
			return err
		}
		return db.InsertRowsPartition(t.name, p, rows)
	case walOpInsertExcl:
		nparts := int(d.u32())
		if d.err == nil && nparts != t.store.NumPartitions() {
			return fmt.Errorf("engine: insert record for %d partitions, table has %d", nparts, t.store.NumPartitions())
		}
		perPart := make([][]storage.Row, t.store.NumPartitions())
		for p := range perPart {
			perPart[p] = d.rows(schema)
		}
		if err := d.finish(); err != nil {
			return err
		}
		return t.replayInsertExclusive(db, perPart)
	case walOpDelete:
		p := int(d.u32())
		n := d.u32()
		rowIDs := make([]uint64, 0, minInt(int(n), 1<<16))
		for i := uint32(0); i < n && d.err == nil; i++ {
			rowIDs = append(rowIDs, d.u64())
		}
		if err := d.finish(); err != nil {
			return err
		}
		return db.DeleteRowIDs(t.name, p, rowIDs)
	case walOpModify:
		p := int(d.u32())
		column := d.str()
		n := d.u32()
		rowIDs := make([]uint64, 0, minInt(int(n), 1<<16))
		for i := uint32(0); i < n && d.err == nil; i++ {
			rowIDs = append(rowIDs, d.u64())
		}
		col := schema.ColumnIndex(column)
		if col < 0 {
			return fmt.Errorf("engine: modify record for unknown column %q", column)
		}
		values := make([]storage.Value, 0, len(rowIDs))
		for i := uint32(0); i < n && d.err == nil; i++ {
			switch schema[col].Kind {
			case storage.KindInt64:
				values = append(values, storage.I64(int64(d.u64())))
			case storage.KindFloat64:
				values = append(values, storage.F64(math.Float64frombits(d.u64())))
			default:
				values = append(values, storage.Str(d.str()))
			}
		}
		if err := d.finish(); err != nil {
			return err
		}
		return db.Modify(t.name, p, rowIDs, column, values)
	case walOpRewrite:
		p := int(d.u32())
		part := d.rewriteImage(schema)
		if err := d.finish(); err != nil {
			return err
		}
		return t.replayRewrite(p, part)
	default:
		return fmt.Errorf("engine: unknown WAL op %d", rec.Op)
	}
}

// replayInsertExclusive re-runs one logged exclusive insert under the
// structure lock — scoped to its own function so the lock covers exactly
// this record's application.
func (t *Table) replayInsertExclusive(db *Database, perPart [][]storage.Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	//pilint:ignore lockblock replay is single-threaded with t.wal nil, so the logging path inside cannot reach a segment append
	return t.insertExclusiveLocked(db, perPart)
}

// replayRewrite publishes a logged rewrite image as partition p, the
// way the original rewrite did, and re-derives the NUC columns
// (rederiveNUCLocked). It takes the exclusive structure lock (replay is
// single-threaded, so coarse is fine): rebuilding a collision directory
// reads all partitions.
func (t *Table) replayRewrite(p int, fresh *storage.Partition) error {
	if p < 0 || p >= t.store.NumPartitions() {
		return fmt.Errorf("engine: rewrite record for unknown partition %d", p)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.publishPartitionLocked(p, fresh)
	t.rederiveNUCLocked()
	return nil
}

// --- little-endian helpers ------------------------------------------

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func appendStr(b []byte, s string) []byte {
	return append(appendU32(b, uint32(len(s))), s...)
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func leU64(b []byte) uint64 {
	return uint64(leU32(b)) | uint64(leU32(b[4:]))<<32
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
