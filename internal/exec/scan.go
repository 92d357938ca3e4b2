package exec

import (
	"patchindex/internal/storage"

	"patchindex/internal/pdt"
)

// Scan produces the tuples of one partition view (base storage merged
// with its positional delta), emitting partition-local rowIDs. A scan can
// be restricted by value ranges on one int64 column: the partition's
// minmax index prunes whole blocks (Section 5, "summary tables"), which
// is how dynamic range propagation avoids full table scans during
// PatchIndex insert handling (Section 5.1, Fig. 5).
type Scan struct {
	view     *pdt.View
	cols     []int
	schema   storage.Schema
	pruneCol int             // schema position of the range column, -1 = none
	ranges   []storage.Range // nil = no pruning information

	started   bool
	intervals [][2]int
	cur       int   // current interval
	pos       int   // next row within current interval
	data      []Vec // the materialized view's columns
	out       Batch // reused by every Next: windows into data, rowIDs in a BatchSize buffer

	// RowsVisited counts rows actually visited; exposed for tests and
	// benchmarks measuring the effect of range propagation.
	RowsVisited int
}

// NewScan returns a scan over view producing the given schema columns
// (positions into the view's schema).
func NewScan(view *pdt.View, cols []int) *Scan {
	schema := make(storage.Schema, len(cols))
	for i, c := range cols {
		schema[i] = view.Base.Schema()[c]
	}
	return &Scan{view: view, cols: cols, schema: schema, pruneCol: -1}
}

// SetPruneColumn declares which view column subsequent SetRanges calls
// refer to. The column must be int64.
func (s *Scan) SetPruneColumn(viewCol int) {
	mustInt64Col(s.view.Base.Schema(), viewCol, "Scan range pruning")
	s.pruneCol = viewCol
}

// SetRanges installs the value ranges used for block pruning. It may be
// called after construction but before the first Next — exactly the
// dynamic range propagation hook: the build phase of a HashJoin installs
// ranges on the probe-side scan once the build keys are known.
func (s *Scan) SetRanges(ranges []storage.Range) { s.ranges = ranges }

// Schema implements Operator.
func (s *Scan) Schema() storage.Schema { return s.schema }

func (s *Scan) open() {
	s.started = true
	n := s.view.NumRows()
	s.data = make([]Vec, len(s.cols))
	for i, c := range s.cols {
		kind := s.view.Base.Schema()[c].Kind
		v := Vec{Kind: kind}
		switch kind {
		case storage.KindInt64:
			v.I64 = s.view.MaterializeInt64(c)
		case storage.KindFloat64:
			v.F64 = s.view.MaterializeFloat64(c)
		default:
			v.Str = s.view.MaterializeString(c)
		}
		s.data[i] = v
	}
	// Block pruning applies when the delta is empty or holds only
	// inserts: the minmax summary describes base storage, and pending
	// deletes/modifies would shift or invalidate base positions. With an
	// inserts-only delta the pruned base intervals stay valid and the
	// insert tail is scanned in full — exactly the situation of the
	// insert handling query (Fig. 5), which must see both the table and
	// the fresh inserts.
	usePruning := s.pruneCol >= 0 && s.ranges != nil &&
		(s.view.Delta == nil || s.view.Delta.InsertsOnly())
	if usePruning {
		mm := s.view.Base.MinMax(s.pruneCol)
		s.intervals = mm.SelectedRows(mm.PruneBlocks(s.ranges))
		if s.view.Delta != nil && s.view.Delta.NumInserts() > 0 {
			base := s.view.Delta.BaseRows()
			s.intervals = append(s.intervals, [2]int{base, n})
		}
	} else {
		if n > 0 {
			s.intervals = [][2]int{{0, n}}
		}
	}
	if len(s.intervals) > 0 {
		s.pos = s.intervals[0][0]
	}
}

// Next implements Operator. A batch's columns are zero-copy windows into
// the materialized view and its rowIDs the window's positions; one batch
// covers at most one pruning interval. The batch is overwritten by the
// next call (consumers that keep rows copy them, as Gather, Drain and
// Sort do), so a scan allocates one BatchSize rowID buffer, not one
// rowID per partition row.
func (s *Scan) Next() (*Batch, error) {
	if !s.started {
		s.open()
	}
	for s.cur < len(s.intervals) {
		iv := s.intervals[s.cur]
		if s.pos >= iv[1] {
			s.cur++
			if s.cur < len(s.intervals) {
				s.pos = s.intervals[s.cur][0]
			}
			continue
		}
		take := BatchSize
		if rem := iv[1] - s.pos; take > rem {
			take = rem
		}
		if s.out.RowIDs == nil {
			// Allocated at the first batch: a scan pruned to nothing allocates none.
			s.out = Batch{Schema: s.schema, Cols: make([]Vec, len(s.data)), RowIDs: make([]uint64, 0, BatchSize)}
		}
		for c := range s.data {
			s.out.Cols[c] = s.data[c].Slice(s.pos, s.pos+take)
		}
		ids := s.out.RowIDs[:take]
		for i := range ids {
			ids[i] = uint64(s.pos + i)
		}
		s.out.RowIDs = ids
		s.pos += take
		s.RowsVisited += take
		return &s.out, nil
	}
	return nil, nil
}

// Close implements Operator.
func (s *Scan) Close() {
	s.data = nil
	s.out = Batch{}
}

// VecSource is an operator that replays pre-built vectors; it backs
// tests and the scan of PDT insert buffers during update handling.
type VecSource struct {
	schema storage.Schema
	cols   []Vec
	rowIDs []uint64
	pos    int
	out    *Batch
}

// NewVecSource returns an operator producing the given columns. rowIDs
// may be nil.
func NewVecSource(schema storage.Schema, cols []Vec, rowIDs []uint64) *VecSource {
	return &VecSource{schema: schema, cols: cols, rowIDs: rowIDs}
}

// NewInt64Source is a convenience VecSource over a single int64 column.
func NewInt64Source(name string, data []int64, rowIDs []uint64) *VecSource {
	schema := storage.Schema{{Name: name, Kind: storage.KindInt64}}
	return NewVecSource(schema, []Vec{{Kind: storage.KindInt64, I64: data}}, rowIDs)
}

// Schema implements Operator.
func (v *VecSource) Schema() storage.Schema { return v.schema }

// Next implements Operator.
func (v *VecSource) Next() (*Batch, error) {
	n := 0
	if len(v.cols) > 0 {
		n = v.cols[0].Len()
	} else {
		n = len(v.rowIDs)
	}
	if v.pos >= n {
		return nil, nil
	}
	if v.out == nil {
		v.out = NewBatch(v.schema)
	}
	v.out.Reset()
	end := v.pos + BatchSize
	if end > n {
		end = n
	}
	for c := range v.cols {
		dst := &v.out.Cols[c]
		src := &v.cols[c]
		switch dst.Kind {
		case storage.KindInt64:
			dst.I64 = append(dst.I64, src.I64[v.pos:end]...)
		case storage.KindFloat64:
			dst.F64 = append(dst.F64, src.F64[v.pos:end]...)
		default:
			dst.Str = append(dst.Str, src.Str[v.pos:end]...)
		}
	}
	if v.rowIDs != nil {
		v.out.RowIDs = append(v.out.RowIDs, v.rowIDs[v.pos:end]...)
	}
	v.pos = end
	return v.out, nil
}

// Close implements Operator.
func (v *VecSource) Close() { v.out = nil }
