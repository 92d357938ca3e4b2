package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Partition is one horizontal slice of a table: a set of equally long
// columns plus lazily built minmax summaries. The paper's system creates
// PatchIndexes partition-locally; our engine mirrors that.
//
// Summaries outlive snapshots. A stored *MinMax is never modified, so
// Freeze hands the live partition's summaries to the frozen view by
// pointer, and a summary a frozen view builds is published back to the
// partition it was frozen from — unless that partition has mutated
// since, which the mutation counter tells. Appends keep a summary: it
// stays a valid prefix, and the next MinMax extends it. Deletes,
// overwrites and reorders drop it and count a mutation.
type Partition struct {
	schema Schema
	cols   []*Column

	mmMu sync.Mutex // lock-rank: 50 — orders summary-cache writes: frozen views publish into their source while its writer mutates
	// minmax holds one summary per column (int64 columns only, nil until
	// built). Entries are written under mmMu and read with atomic loads,
	// so Freeze copies them without the lock.
	minmax []atomic.Pointer[MinMax]
	// mutations counts the writes that dropped summaries; it changes only
	// under mmMu.
	mutations atomic.Uint64

	// A frozen view's source partition and the source's mutation count
	// when the view was frozen; src is nil on a live partition.
	src     *Partition
	srcMuts uint64
}

// NewPartition returns an empty partition with the given schema.
func NewPartition(schema Schema) *Partition {
	cols := make([]*Column, len(schema))
	for i, def := range schema {
		cols[i] = NewColumn(def.Name, def.Kind)
	}
	return NewPartitionFromColumns(schema, cols)
}

// NewPartitionFromColumns returns a partition that takes ownership of
// cols, one per schema slot and all equally long, without copying or
// boxing a value — the constructor recovery and rewrite replay publish
// decoded columns through.
func NewPartitionFromColumns(schema Schema, cols []*Column) *Partition {
	if len(cols) != len(schema) {
		panic(fmt.Sprintf("storage: %d columns for schema width %d", len(cols), len(schema)))
	}
	for i, c := range cols {
		if c.Kind != schema[i].Kind || c.Len() != cols[0].Len() {
			panic(fmt.Sprintf("storage: column %d (%v, %d rows) does not fit schema slot %v with %d rows", i, c.Kind, c.Len(), schema[i].Kind, cols[0].Len()))
		}
	}
	return &Partition{schema: schema, cols: cols, minmax: make([]atomic.Pointer[MinMax], len(schema))}
}

// Schema returns the partition's schema.
func (p *Partition) Schema() Schema { return p.schema }

// NumRows returns the number of rows stored in the partition.
func (p *Partition) NumRows() int {
	if len(p.cols) == 0 {
		return 0
	}
	return p.cols[0].Len()
}

// Column returns the column at schema position i.
func (p *Partition) Column(i int) *Column { return p.cols[i] }

// AppendRow appends one tuple. Cached summaries stay: they describe a
// prefix of the grown columns, and MinMax extends them on next use.
func (p *Partition) AppendRow(row Row) {
	if len(row) != len(p.cols) {
		panic(fmt.Sprintf("storage: row width %d != schema width %d", len(row), len(p.cols)))
	}
	for i, v := range row {
		p.cols[i].Append(v)
	}
}

// AppendColumns appends whole same-kind columns (one per schema slot,
// all equally long) without boxing a single value — the path checkpoint
// publication takes to move an insert buffer into base storage. Appends
// never disturb frozen views (their column headers are length-capped),
// so a partition-lock holder may call it without any whole-table
// coordination. Like AppendRow it keeps the cached summaries.
func (p *Partition) AppendColumns(cols []*Column) {
	if len(cols) != len(p.cols) {
		panic(fmt.Sprintf("storage: AppendColumns width %d != schema width %d", len(cols), len(p.cols)))
	}
	for i := 1; i < len(cols); i++ {
		if cols[i].Len() != cols[0].Len() {
			panic(fmt.Sprintf("storage: AppendColumns column lengths diverge (%d vs %d)", cols[i].Len(), cols[0].Len()))
		}
	}
	for i, c := range p.cols {
		c.AppendColumn(cols[i])
	}
}

// SetValue overwrites one cell and drops that column's summary.
func (p *Partition) SetValue(row, col int, v Value) {
	p.cols[col].Set(row, v)
	p.dropMinMax(col)
}

// DeleteRows removes the rows at the given strictly ascending positions
// from all columns and drops every summary. Duplicate positions are
// rejected like unsorted ones: DeletePositions compacts by walking the
// sorted list once, so a repeated position would silently drop the
// wrong trailing rows.
func (p *Partition) DeleteRows(positions []uint64) {
	if len(positions) == 0 {
		return
	}
	for i := 1; i < len(positions); i++ {
		if positions[i] <= positions[i-1] {
			panic("storage: DeleteRows positions must be strictly ascending (sorted, no duplicates)")
		}
	}
	for _, c := range p.cols {
		c.DeletePositions(positions)
	}
	p.dropMinMax(-1)
}

// MinMax returns the minmax summary for the int64 column at schema
// position col, or nil for other columns. A cached summary is returned
// as is; a shorter one (rows appended since) is extended, and a missing
// one built. What a frozen view builds it also publishes to the
// partition it was frozen from, so the next snapshot starts with it.
func (p *Partition) MinMax(col int) *MinMax {
	if p.schema[col].Kind != KindInt64 {
		return nil
	}
	m, built := p.summarize(col)
	if built && p.src != nil {
		p.src.publish(col, m, p.srcMuts)
	}
	return m
}

// summarize returns col's summary, building or extending it first when
// the cache does not cover every row; built reports that it did.
func (p *Partition) summarize(col int) (m *MinMax, built bool) {
	p.mmMu.Lock()
	defer p.mmMu.Unlock()
	data := p.cols[col].Int64s()
	switch m = p.minmax[col].Load(); {
	case m != nil && m.Rows() == len(data):
		return m, false
	case m != nil && m.Rows() < len(data):
		m = m.extend(data)
	default:
		m = BuildMinMax(data)
	}
	p.minmax[col].Store(m)
	return m, true
}

// publish stores m, built by a view frozen from p when p's mutation
// count was muts, as p's summary of col — unless p has mutated since or
// already holds a summary at least as long.
func (p *Partition) publish(col int, m *MinMax, muts uint64) {
	p.mmMu.Lock()
	defer p.mmMu.Unlock()
	if p.mutations.Load() != muts {
		return
	}
	if old := p.minmax[col].Load(); old != nil && old.Rows() >= m.Rows() {
		return
	}
	p.minmax[col].Store(m)
}

// dropMinMax drops col's summary (every summary for col < 0) and counts
// a mutation, so views frozen before it stop publishing.
func (p *Partition) dropMinMax(col int) {
	p.mmMu.Lock()
	defer p.mmMu.Unlock()
	for i := range p.minmax {
		if col < 0 || i == col {
			p.minmax[i].Store(nil)
		}
	}
	p.mutations.Add(1)
}

// InvalidateMinMax drops the cached minmax summaries. Physical reorders
// permute rows in place without changing the row count, so nothing else
// tells a cached summary that it describes the old row order — the
// reorderer must invalidate explicitly or block pruning would consult
// stale bounds.
func (p *Partition) InvalidateMinMax() { p.dropMinMax(-1) }

// SizeBytes estimates the memory consumed by the partition's columns.
func (p *Partition) SizeBytes() uint64 {
	var sz uint64
	for _, c := range p.cols {
		sz += c.SizeBytes()
	}
	return sz
}

// Clone returns a deep copy of the partition with no summaries (used by
// SortKey, which physically reorders data, and by the engine's
// copy-on-write checkpoint path when a live snapshot references the
// current generation).
func (p *Partition) Clone() *Partition {
	n := &Partition{schema: p.schema, cols: make([]*Column, len(p.cols)), minmax: make([]atomic.Pointer[MinMax], len(p.cols))}
	for i, c := range p.cols {
		n.cols[i] = c.Clone()
	}
	return n
}

// Freeze returns an immutable snapshot view of the partition: fresh
// column headers capped at the current row count, sharing the backing
// arrays and the cached summaries with the live partition. A frozen
// partition stays valid while the live one receives appends; any
// in-place overwrite or compaction of the live partition must go through
// Clone + swap instead (the engine enforces this via its generation
// tracking). The caller must exclude the partition's writer, as for any
// write; Freeze may race frozen views publishing into the partition.
func (p *Partition) Freeze() *Partition {
	n := &Partition{schema: p.schema, cols: make([]*Column, len(p.cols)), minmax: make([]atomic.Pointer[MinMax], len(p.cols)), src: p, srcMuts: p.mutations.Load()}
	for i, c := range p.cols {
		n.cols[i] = c.Freeze()
		n.minmax[i].Store(p.minmax[i].Load())
	}
	return n
}

// Table is a named, horizontally partitioned collection of columns.
//
// Every partition slot carries a generation number, bumped each time
// SetPartition publishes a replacement partition object. The snapshot
// registry (Retain/RetainPartitions) refcounts exactly the generations
// a snapshot captured — one refcount class, every ref released by its
// holder — so writers can ask two cheap questions: "does any live
// snapshot reference partition p's current backing arrays?"
// (PartitionRetained — decides clone-and-swap vs in-place mutation at a
// checkpoint and gates partition-granular reorganization, so a reorder
// of one partition can proceed while a query drains a sibling) and "is
// any snapshot of this table still live?" (LiveSnapshotRefs — gates
// whole-table in-place physical reorganization).
type Table struct {
	Name   string
	schema Schema
	parts  []*Partition

	// Snapshot registry. regMu is independent of any engine-level table
	// lock: snapshot holders release their refs from reader goroutines
	// without contending on the writer's locks. It also guards parts and
	// gens, so SetPartition may race Retain/Release at the storage
	// level; readers of a partition's *contents* still need the engine's
	// partition lock (or exclusive ownership) to serialize with swaps.
	// It ranks below the engine's locks and must never be held while
	// calling back up into the engine.
	regMu sync.Mutex // lock-rank: 40
	gens  []uint64   // current generation per partition slot
	// snaps holds the snapshot refcounts per partition: generation ->
	// refcount.
	snaps    []map[uint64]int
	liveRefs int // unreleased TableRefs (Retain minus Release)
}

// NewTable returns a table with numPartitions empty partitions.
func NewTable(name string, schema Schema, numPartitions int) *Table {
	if numPartitions < 1 {
		numPartitions = 1
	}
	t := &Table{Name: name, schema: schema}
	for i := 0; i < numPartitions; i++ {
		t.parts = append(t.parts, NewPartition(schema))
	}
	t.gens = make([]uint64, numPartitions)
	t.snaps = make([]map[uint64]int, numPartitions)
	return t
}

// Schema returns the table schema.
func (t *Table) Schema() Schema { return t.schema }

// NumPartitions returns the partition count.
func (t *Table) NumPartitions() int { return len(t.parts) }

// Partition returns partition i.
func (t *Table) Partition(i int) *Partition { return t.parts[i] }

// SetPartition atomically publishes a new generation of partition i.
// The old partition object is left untouched, so snapshot views that
// froze it remain valid; its generation number stays referenced in the
// registry until the last snapshot holding it releases. The swap itself
// runs under the registry lock, so it may race Retain/Release and
// SetPartition on *other* partitions; callers must still serialize it
// with mutations of the same partition (the engine holds the partition
// lock).
func (t *Table) SetPartition(i int, p *Partition) {
	if len(p.schema) != len(t.schema) {
		panic(fmt.Sprintf("storage: SetPartition schema mismatch on table %q", t.Name))
	}
	t.regMu.Lock()
	t.parts[i] = p
	t.gens[i]++
	t.regMu.Unlock()
}

// Generation returns partition i's current generation number.
func (t *Table) Generation(i int) uint64 {
	t.regMu.Lock()
	defer t.regMu.Unlock()
	return t.gens[i]
}

// TableRef is one snapshot's hold on the table: one refcount on the
// exact generation of every retained partition at Retain time. Release
// drops the refcounts; it is idempotent, so the "released exactly once"
// invariant holds even when a query-end hook and an explicit Close both
// fire.
type TableRef struct {
	t        *Table
	parts    []int    // retained partition slots
	gens     []uint64 // generation of parts[i] at retain time
	released bool
}

// Retain registers a snapshot: the current generation of every
// partition gets one refcount, and the table's live-snapshot count
// rises until the returned ref is released. The registration itself is
// atomic under the registry lock; capturing a *consistent* set of
// partition contents additionally requires the engine's partition
// locks (the engine captures with all of them held).
func (t *Table) Retain() *TableRef {
	all := make([]int, len(t.parts))
	for i := range all {
		all[i] = i
	}
	return t.RetainPartitions(all...)
}

// RetainPartitions registers a snapshot of just the given partition
// slots: only their current generations get a refcount, so a
// checkpoint or partition-granular reorganization of any *other*
// partition owes the ref nothing. The ref still counts as one live
// snapshot of the table (whole-table reorganization stays refused).
func (t *Table) RetainPartitions(parts ...int) *TableRef {
	if len(parts) == 0 {
		panic("storage: RetainPartitions needs at least one partition")
	}
	t.regMu.Lock()
	defer t.regMu.Unlock()
	ps := append([]int(nil), parts...)
	gens := make([]uint64, len(ps))
	for i, p := range ps {
		gens[i] = t.gens[p]
		if t.snaps[p] == nil {
			t.snaps[p] = make(map[uint64]int, 1)
		}
		t.snaps[p][gens[i]]++
	}
	t.liveRefs++
	return &TableRef{t: t, parts: ps, gens: gens}
}

// Release drops the ref's generation refcounts (idempotent, safe on a
// nil ref). It takes only the registry mutex, never an engine lock.
func (r *TableRef) Release() {
	if r == nil {
		return
	}
	t := r.t
	t.regMu.Lock()
	defer t.regMu.Unlock()
	if r.released {
		return
	}
	r.released = true
	for i, p := range r.parts {
		g := r.gens[i]
		if n := t.snaps[p][g]; n <= 1 {
			delete(t.snaps[p], g)
		} else {
			t.snaps[p][g] = n - 1
		}
	}
	t.liveRefs--
}

// LiveSnapshotRefs returns the number of retained, not-yet-released
// snapshot refs (partition-scoped refs included). Whole-table in-place
// reorganization must refuse while it is non-zero; use Exclusive to
// make the check atomic with the work.
func (t *Table) LiveSnapshotRefs() int {
	t.regMu.Lock()
	defer t.regMu.Unlock()
	return t.liveRefs
}

// PartitionRetained reports whether any live snapshot ref holds
// partition i's *current* generation. While it does, an in-place
// delete/modify of the partition's backing arrays must clone-and-swap
// instead, and partition-granular reorganization must refuse (use
// ExclusivePartition to make that check atomic with the work). Refs on
// retired generations of i read from the old partition object and are
// unaffected by either, so they do not count.
func (t *Table) PartitionRetained(i int) bool {
	t.regMu.Lock()
	defer t.regMu.Unlock()
	return t.snaps[i][t.gens[i]] > 0
}

// Exclusive runs fn only if no snapshot ref is live, holding the
// registry lock throughout so no new ref can be retained mid-fn — the
// storage-level equivalent of the engine's ExclusiveStorage guard, for
// raw whole-table in-place reorganization (sortkey.Create on a table
// the caller owns). A concurrent Retain blocks until fn returns and
// then captures the reorganized state; fn must not touch the registry
// itself.
func (t *Table) Exclusive(fn func() error) error {
	t.regMu.Lock()
	defer t.regMu.Unlock()
	if t.liveRefs > 0 {
		return fmt.Errorf("storage: table %q has %d live snapshot ref(s); close/drain them before in-place reorganization", t.Name, t.liveRefs)
	}
	return fn()
}

// ExclusivePartition runs fn only if no snapshot ref holds
// partition i's current generation, holding the registry lock
// throughout so no new ref can be retained mid-fn — the
// partition-granular form of Exclusive, for in-place reorganization of
// one partition (sortkey rebuilds of a single partition) while sibling
// partitions keep serving snapshot readers. fn must not touch the
// registry itself.
func (t *Table) ExclusivePartition(i int, fn func() error) error {
	t.regMu.Lock()
	defer t.regMu.Unlock()
	if n := t.snaps[i][t.gens[i]]; n > 0 {
		return fmt.Errorf("storage: partition %d of table %q has %d live snapshot ref(s) on its current generation; close/drain them before in-place reorganization", i, t.Name, n)
	}
	return fn()
}

// NumRows returns the total row count across partitions.
func (t *Table) NumRows() int {
	var n int
	for _, p := range t.parts {
		n += p.NumRows()
	}
	return n
}

// LoadRows distributes rows over partitions in contiguous, nearly equal
// chunks — matching the paper's generator, which partitions on a dense
// unique key so partitions have nearly equal size.
func (t *Table) LoadRows(rows []Row) {
	per := (len(rows) + len(t.parts) - 1) / len(t.parts)
	for i, row := range rows {
		p := i / per
		if p >= len(t.parts) {
			p = len(t.parts) - 1
		}
		t.parts[p].AppendRow(row)
	}
}

// SizeBytes estimates total memory consumed by the table data.
func (t *Table) SizeBytes() uint64 {
	var sz uint64
	for _, p := range t.parts {
		sz += p.SizeBytes()
	}
	return sz
}
