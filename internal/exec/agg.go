package exec

import (
	"encoding/binary"
	"fmt"

	"patchindex/internal/storage"
)

// AggFunc identifies an aggregate function.
type AggFunc int

const (
	// AggCount counts tuples per group.
	AggCount AggFunc = iota
	// AggSum sums an int64 or float64 column per group.
	AggSum
	// AggMin keeps the minimum of a column per group.
	AggMin
	// AggMax keeps the maximum of a column per group.
	AggMax
)

// AggSpec describes one aggregate output.
type AggSpec struct {
	Func AggFunc
	Col  int // input column; ignored for AggCount
	Name string
}

// HashAggregate groups its input by the given columns and computes the
// aggregates. With no aggregates it computes DISTINCT over the group
// columns — the expensive operator the PatchIndex distinct optimization
// removes from the patch-free subtree (Fig. 2). With no group columns
// every input row falls into one group — a scalar aggregate emitting a
// single row (and none at all on empty input).
type HashAggregate struct {
	child     Operator
	groupCols []int
	aggs      []AggSpec
	schema    storage.Schema

	built   bool
	ngroups int       // group count; groups.Len() is 0 when groupCols is empty
	groups  *Batch    // one tuple per group (group columns only)
	counts  []int64   // per group per agg: packed [group*nagg + agg]
	sumsI   []int64   // AggSum/Min/Max int64 accumulators
	sumsF   []float64 // AggSum/Min/Max float64 accumulators
	seen    []bool    // Min/Max initialized flag per (group, agg)

	emitPos int
	out     *Batch

	// GroupsBuilt exposes the number of hash groups for cost accounting.
	GroupsBuilt int
}

// NewDistinct returns a HashAggregate computing DISTINCT on the given
// columns.
func NewDistinct(child Operator, groupCols []int) *HashAggregate {
	return NewHashAggregate(child, groupCols, nil)
}

// NewHashAggregate returns a grouped aggregation over child.
func NewHashAggregate(child Operator, groupCols []int, aggs []AggSpec) *HashAggregate {
	in := child.Schema()
	var schema storage.Schema
	for _, c := range groupCols {
		schema = append(schema, in[c])
	}
	for _, a := range aggs {
		kind := storage.KindInt64
		if a.Func != AggCount {
			kind = in[a.Col].Kind
			if kind == storage.KindString && a.Func == AggSum {
				panic("exec: SUM over string column")
			}
		}
		name := a.Name
		if name == "" {
			name = fmt.Sprintf("agg%d", len(schema))
		}
		schema = append(schema, storage.ColumnDef{Name: name, Kind: kind})
	}
	return &HashAggregate{child: child, groupCols: groupCols, aggs: aggs, schema: schema}
}

// Schema implements Operator.
func (h *HashAggregate) Schema() storage.Schema { return h.schema }

func (h *HashAggregate) build() error {
	h.built = true
	in := h.child.Schema()
	groupSchema := make(storage.Schema, len(h.groupCols))
	for i, c := range h.groupCols {
		groupSchema[i] = in[c]
	}
	h.groups = NewBatch(groupSchema)

	singleI64 := len(h.groupCols) == 1 && in[h.groupCols[0]].Kind == storage.KindInt64
	var mapI64 map[int64]int
	var mapStr map[string]int
	if singleI64 {
		mapI64 = make(map[int64]int, 1024)
	} else {
		mapStr = make(map[string]int, 1024)
	}
	var keyBuf []byte
	nagg := len(h.aggs)

	for {
		b, err := h.child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		n := b.Len()
		for i := 0; i < n; i++ {
			var g int
			var ok bool
			if singleI64 {
				k := b.Cols[h.groupCols[0]].I64[i]
				g, ok = mapI64[k]
				if !ok {
					g = h.ngroups
					mapI64[k] = g
					h.newGroup(b, i, nagg)
				}
			} else {
				keyBuf = h.encodeKey(keyBuf[:0], b, i)
				g, ok = mapStr[string(keyBuf)]
				if !ok {
					g = h.ngroups
					mapStr[string(keyBuf)] = g
					h.newGroup(b, i, nagg)
				}
			}
			h.accumulate(g, b, i, nagg)
		}
	}
	h.GroupsBuilt = h.ngroups
	h.out = NewBatch(h.schema)
	return nil
}

func (h *HashAggregate) newGroup(b *Batch, i, nagg int) {
	h.ngroups++
	for gi, c := range h.groupCols {
		h.groups.Cols[gi].Append(&b.Cols[c], i)
	}
	h.counts = append(h.counts, make([]int64, nagg)...)
	h.sumsI = append(h.sumsI, make([]int64, nagg)...)
	h.sumsF = append(h.sumsF, make([]float64, nagg)...)
	h.seen = append(h.seen, make([]bool, nagg)...)
}

func (h *HashAggregate) accumulate(g int, b *Batch, i, nagg int) {
	base := g * nagg
	for ai, a := range h.aggs {
		switch a.Func {
		case AggCount:
			h.counts[base+ai]++
		case AggSum:
			v := &b.Cols[a.Col]
			if v.Kind == storage.KindInt64 {
				h.sumsI[base+ai] += v.I64[i]
			} else {
				h.sumsF[base+ai] += v.F64[i]
			}
		case AggMin, AggMax:
			v := &b.Cols[a.Col]
			isMax := a.Func == AggMax
			if !h.seen[base+ai] {
				h.seen[base+ai] = true
				h.initMinMax(base+ai, v, i)
				continue
			}
			switch v.Kind {
			case storage.KindInt64:
				if (isMax && v.I64[i] > h.sumsI[base+ai]) || (!isMax && v.I64[i] < h.sumsI[base+ai]) {
					h.sumsI[base+ai] = v.I64[i]
				}
			case storage.KindFloat64:
				if (isMax && v.F64[i] > h.sumsF[base+ai]) || (!isMax && v.F64[i] < h.sumsF[base+ai]) {
					h.sumsF[base+ai] = v.F64[i]
				}
			}
		}
	}
}

func (h *HashAggregate) initMinMax(slot int, v *Vec, i int) {
	switch v.Kind {
	case storage.KindInt64:
		h.sumsI[slot] = v.I64[i]
	case storage.KindFloat64:
		h.sumsF[slot] = v.F64[i]
	}
}

func (h *HashAggregate) encodeKey(buf []byte, b *Batch, i int) []byte {
	for _, c := range h.groupCols {
		v := &b.Cols[c]
		switch v.Kind {
		case storage.KindInt64:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v.I64[i]))
		case storage.KindFloat64:
			panic("exec: float64 group keys are not supported")
		default:
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.Str[i])))
			buf = append(buf, v.Str[i]...)
		}
	}
	return buf
}

// Next implements Operator.
func (h *HashAggregate) Next() (*Batch, error) {
	if !h.built {
		if err := h.build(); err != nil {
			return nil, err
		}
	}
	total := h.ngroups
	if h.emitPos >= total {
		return nil, nil
	}
	h.out.Reset()
	end := h.emitPos + BatchSize
	if end > total {
		end = total
	}
	nagg := len(h.aggs)
	for g := h.emitPos; g < end; g++ {
		for gi := range h.groupCols {
			h.out.Cols[gi].Append(&h.groups.Cols[gi], g)
		}
		for ai, a := range h.aggs {
			oc := &h.out.Cols[len(h.groupCols)+ai]
			slot := g*nagg + ai
			switch {
			case a.Func == AggCount:
				oc.I64 = append(oc.I64, h.counts[slot])
			case oc.Kind == storage.KindInt64:
				oc.I64 = append(oc.I64, h.sumsI[slot])
			default:
				oc.F64 = append(oc.F64, h.sumsF[slot])
			}
		}
	}
	h.emitPos = end
	return h.out, nil
}

// Close implements Operator.
func (h *HashAggregate) Close() {
	h.child.Close()
	h.groups = nil
	h.out = nil
}
