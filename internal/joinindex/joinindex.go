// Package joinindex implements the JoinIndex comparator of the paper's
// evaluation (Section 6.3, Valduriez 1987): a foreign-key join is
// materialized as an additional fact-table column holding the rowID of
// the join partner in the dimension table. Join queries become scans
// with a positional gather (JoinOn), always over partition views and
// references captured at one instant, never over the live tables. The
// extra column costs storage and a small additional scan effort — which
// is why PatchIndex plans with zero-branch pruning end up slightly
// faster (Fig. 10) — and creation requires computing the full join
// once.
package joinindex

import (
	"patchindex/internal/exec"
	"patchindex/internal/pdt"
	"patchindex/internal/storage"
	"sort"
)

// Index materializes fact.factCol = dim.dimCol as per-partition rowID
// reference columns into the dimension table.
type Index struct {
	fact    *storage.Table
	dim     *storage.Table
	factCol int
	dimCol  int
	// refs[p][i] = global dimension rowID joining fact partition p row i,
	// or -1 when no partner exists.
	refs [][]int64
	// lookup caches dim key -> global rowID so per-insert maintenance is
	// O(inserted keys) instead of O(dim) (updates handled in-memory,
	// Section 6.3).
	lookup map[int64]int64
	// version counts maintenance calls; snapshot-bound plans use it to
	// detect (and refuse) references captured after later maintenance.
	version uint64
}

// Version returns the maintenance counter: it increments on every
// rebuild and Handle* call, so a caller pairing CaptureRefs with an
// engine snapshot can detect that maintenance ran in between.
func (ji *Index) Version() uint64 { return ji.version }

// Create computes the join index (the expensive full-join
// materialization the paper times at ~600s vs ~100s for the PatchIndex).
func Create(fact *storage.Table, factCol int, dim *storage.Table, dimCol int) *Index {
	ji := &Index{fact: fact, dim: dim, factCol: factCol, dimCol: dimCol}
	ji.rebuild()
	return ji
}

// dimLookup builds the dimension key -> global rowID map.
func (ji *Index) dimLookup() map[int64]int64 {
	lookup := make(map[int64]int64, ji.dim.NumRows())
	var base int64
	for p := 0; p < ji.dim.NumPartitions(); p++ {
		keys := ji.dim.Partition(p).Column(ji.dimCol).Int64s()
		for i, k := range keys {
			lookup[k] = base + int64(i)
		}
		base += int64(len(keys))
	}
	return lookup
}

func (ji *Index) rebuild() {
	ji.version++
	ji.lookup = ji.dimLookup()
	lookup := ji.lookup
	ji.refs = make([][]int64, ji.fact.NumPartitions())
	for p := 0; p < ji.fact.NumPartitions(); p++ {
		keys := ji.fact.Partition(p).Column(ji.factCol).Int64s()
		refs := make([]int64, len(keys))
		for i, k := range keys {
			if r, ok := lookup[k]; ok {
				refs[i] = r
			} else {
				refs[i] = -1
			}
		}
		ji.refs[p] = refs
	}
}

// HandleDimInsert registers dimension rows appended at the global end of
// the dimension table, keeping the cached key lookup current.
func (ji *Index) HandleDimInsert(keys []int64, firstGlobalRowID int64) {
	ji.version++
	for i, k := range keys {
		ji.lookup[k] = firstGlobalRowID + int64(i)
	}
}

// HandleInsert extends partition p's references for rows appended at the
// end of the fact partition (updates handled in-memory, Section 6.3).
func (ji *Index) HandleInsert(p int, keys []int64) {
	ji.version++
	lookup := ji.lookup
	for _, k := range keys {
		if r, ok := lookup[k]; ok {
			ji.refs[p] = append(ji.refs[p], r)
		} else {
			ji.refs[p] = append(ji.refs[p], -1)
		}
	}
}

// HandleDelete drops the references of the deleted fact rows (ascending
// positions within partition p).
func (ji *Index) HandleDelete(p int, positions []uint64) {
	ji.version++
	refs := ji.refs[p]
	w := int(positions[0])
	pi := 0
	for r := w; r < len(refs); r++ {
		if pi < len(positions) && uint64(r) == positions[pi] {
			pi++
			continue
		}
		refs[w] = refs[r]
		w++
	}
	ji.refs[p] = refs[:w]
}

// HandleDimDelete adjusts the references after rows were deleted from
// the DIMENSION table (ascending global dim rowIDs): references to
// deleted dimension rows become dangling (-1), surviving references
// shift down by the number of deleted rows below them.
func (ji *Index) HandleDimDelete(deleted []uint64) {
	ji.version++
	if len(deleted) == 0 {
		return
	}
	for _, refs := range ji.refs {
		for i, r := range refs {
			if r < 0 {
				continue
			}
			k := sort.Search(len(deleted), func(j int) bool { return deleted[j] >= uint64(r) })
			if k < len(deleted) && deleted[k] == uint64(r) {
				refs[i] = -1
				continue
			}
			refs[i] = r - int64(k)
		}
	}
	// Global rowIDs shifted; refresh the cached lookup from the (already
	// compacted) dimension table.
	ji.lookup = ji.dimLookup()
}

// CaptureRefs returns a deep copy of the per-partition reference
// columns at the current instant. Capture them together with the
// snapshot views the join will run over (the Index holds no lock, so
// the capture must be serialized with maintenance calls by the driver,
// exactly like the maintenance calls themselves); subsequent in-place
// maintenance (HandleDelete/HandleDimDelete rewrite refs in place)
// cannot disturb the captured copy.
func (ji *Index) CaptureRefs() [][]int64 {
	out := make([][]int64, len(ji.refs))
	for p, r := range ji.refs {
		out[p] = append([]int64(nil), r...)
	}
	return out
}

// JoinOn builds the join-index plan over captured partition views —
// the frozen views of an engine DatabaseSnapshot, so the fact scan and
// the dimension gather observe the same multi-table instant as the rest
// of the query. factViews and dimViews hold one view per fact and
// dimension partition; refs must be a CaptureRefs copy taken at the
// views' instant. The plan scans the fact columns and gathers the
// requested dimension int64 columns through the references; unmatched
// fact rows are dropped (inner join semantics).
//
// References that do not line up with the views — fact rows beyond the
// captured references, or references beyond the captured dimension
// rows — are treated as unmatched.
func (ji *Index) JoinOn(factViews []*pdt.View, dimViews []*pdt.View, refs [][]int64, factCols, dimCols []int) exec.Operator {
	// The references encode base-storage global rowIDs (that is how
	// dimLookup and all maintenance compute them), so the gather array
	// and the stale-reference bound must come from the views' frozen
	// BASE partitions. Merging pending deltas in would shift every later
	// partition's positions and silently gather wrong tuples;
	// delta-pending dimension rows have no references yet and stay
	// unmatched by construction.
	var dimRows int64
	for _, v := range dimViews {
		dimRows += int64(v.Base.NumRows())
	}
	dimData := make([][]int64, len(dimCols))
	dimSchema := make(storage.Schema, len(dimCols))
	for i, c := range dimCols {
		col := make([]int64, 0, dimRows)
		for _, v := range dimViews {
			col = append(col, v.Base.Column(c).Int64s()...)
		}
		dimData[i] = col
		dimSchema[i] = ji.dim.Schema()[c]
	}
	parts := make([]exec.Operator, len(factViews))
	for p := range factViews {
		scan := exec.NewScan(factViews[p], factCols)
		parts[p] = &gather{
			scan:      scan,
			refs:      refs[p],
			dimData:   dimData,
			dimRows:   dimRows,
			schema:    append(append(storage.Schema{}, scan.Schema()...), dimSchema...),
			factWidth: len(factCols),
		}
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return exec.NewUnion(parts...)
}

// MemoryBytes is the materialized reference-column footprint.
func (ji *Index) MemoryBytes() uint64 {
	var n uint64
	for _, r := range ji.refs {
		n += uint64(len(r)) * 8
	}
	return n
}

// gather streams fact tuples and appends dimension columns fetched by
// materialized rowID references.
type gather struct {
	scan      *exec.Scan
	refs      []int64
	dimData   [][]int64
	dimRows   int64 // rows per dimData column
	schema    storage.Schema
	factWidth int
	out       *exec.Batch
}

func (g *gather) Schema() storage.Schema { return g.schema }

func (g *gather) Next() (*exec.Batch, error) {
	in, err := g.scan.Next()
	if err != nil || in == nil {
		return nil, err
	}
	if g.out == nil {
		g.out = exec.NewBatch(g.schema)
	}
	g.out.Reset()
	n := in.Len()
	for i := 0; i < n; i++ {
		rid := in.RowIDs[i]
		if int(rid) >= len(g.refs) {
			// A snapshot view can extend past the captured references
			// when fact rows were appended after the capture; those rows
			// have no reference yet and stay unmatched.
			continue
		}
		ref := g.refs[rid]
		if ref < 0 || ref >= g.dimRows {
			continue
		}
		for c := 0; c < g.factWidth; c++ {
			g.out.Cols[c].Append(&in.Cols[c], i)
		}
		for d := range g.dimData {
			g.out.Cols[g.factWidth+d].I64 = append(g.out.Cols[g.factWidth+d].I64, g.dimData[d][ref])
		}
	}
	return g.out, nil
}

func (g *gather) Close() { g.scan.Close() }
