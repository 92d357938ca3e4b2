package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"patchindex/internal/storage"
)

// chunkSource emits (key, tag) rows in batches of a fixed size, reusing
// one output buffer and scribbling over the previous batch before each
// refill, so a consumer that keeps a batch past the source's next Next
// reads garbage.
type chunkSource struct {
	keys, tags []int64
	rowIDs     []uint64 // nil: batches carry no rowIDs
	batch      int
	empties    bool // emit an empty batch before every non-empty one
	pos        int
	gaveEmpty  bool
	out        *Batch
}

var mergeSchema = storage.Schema{
	{Name: "k", Kind: storage.KindInt64},
	{Name: "tag", Kind: storage.KindInt64},
}

func (c *chunkSource) Schema() storage.Schema { return mergeSchema }

func (c *chunkSource) Next() (*Batch, error) {
	if c.out == nil {
		c.out = NewBatch(mergeSchema)
	}
	for i := range c.out.Cols[0].I64 {
		c.out.Cols[0].I64[i], c.out.Cols[1].I64[i] = -7, -7
	}
	c.out.Reset()
	if c.pos >= len(c.keys) {
		return nil, nil
	}
	if c.empties && !c.gaveEmpty {
		c.gaveEmpty = true
		return c.out, nil
	}
	c.gaveEmpty = false
	end := min(c.pos+c.batch, len(c.keys))
	c.out.Cols[0].I64 = append(c.out.Cols[0].I64, c.keys[c.pos:end]...)
	c.out.Cols[1].I64 = append(c.out.Cols[1].I64, c.tags[c.pos:end]...)
	if c.rowIDs != nil {
		c.out.RowIDs = append(c.out.RowIDs, c.rowIDs[c.pos:end]...)
	}
	c.pos = end
	return c.out, nil
}

func (c *chunkSource) Close() {}

// mergeCase is one Merge input: each child's keys (sorted in the merge
// direction), whether it carries rowIDs, and the children's batch size.
type mergeCase struct {
	keys    [][]int64
	withIDs []bool
	desc    bool
	batch   int
	empties bool
}

// sortChildren sorts every child's keys in the merge direction.
func (mc *mergeCase) sortChildren() {
	for _, k := range mc.keys {
		slices.Sort(k)
		if mc.desc {
			slices.Reverse(k)
		}
	}
}

// checkMerge runs Merge over mc and compares it row for row with the
// oracle: the children concatenated in child order, stable-sorted on the
// key. A row's tag names its child and position, so ties are checked
// too. An output batch carries rowIDs only if every row in it has one.
func checkMerge(t *testing.T, mc mergeCase) {
	t.Helper()
	type row struct {
		key, tag int64
		id       uint64
		hasID    bool
	}
	var want []row
	children := make([]Operator, len(mc.keys))
	for c, keys := range mc.keys {
		src := &chunkSource{keys: keys, tags: make([]int64, len(keys)), batch: mc.batch, empties: mc.empties}
		if mc.withIDs[c] {
			src.rowIDs = make([]uint64, len(keys))
		}
		for i, k := range keys {
			src.tags[i] = int64(c)<<32 | int64(i)
			r := row{key: k, tag: src.tags[i]}
			if src.rowIDs != nil {
				src.rowIDs[i] = uint64(c)<<40 | uint64(i)
				r.id, r.hasID = src.rowIDs[i], true
			}
			want = append(want, r)
		}
		children[c] = src
	}
	sort.SliceStable(want, func(a, b int) bool {
		if mc.desc {
			return want[a].key > want[b].key
		}
		return want[a].key < want[b].key
	})

	m := NewMerge(0, mc.desc, children...)
	defer m.Close()
	n := 0
	for {
		b, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		if b.Len() == 0 || b.Len() > BatchSize {
			t.Fatalf("batch of %d rows", b.Len())
		}
		if b.RowIDs != nil && len(b.RowIDs) != b.Len() {
			t.Fatalf("batch of %d rows carries %d rowIDs", b.Len(), len(b.RowIDs))
		}
		allIDs := true
		for i := 0; i < b.Len(); i++ {
			if n+i >= len(want) {
				t.Fatalf("more than %d rows", len(want))
			}
			w := want[n+i]
			if b.Cols[0].I64[i] != w.key || b.Cols[1].I64[i] != w.tag {
				t.Fatalf("row %d = (%d, %#x), want (%d, %#x)", n+i, b.Cols[0].I64[i], b.Cols[1].I64[i], w.key, w.tag)
			}
			allIDs = allIDs && w.hasID
			if b.RowIDs != nil && (!w.hasID || b.RowIDs[i] != w.id) {
				t.Fatalf("row %d rowID %#x, want %#x (has %v)", n+i, b.RowIDs[i], w.id, w.hasID)
			}
		}
		if allIDs && b.RowIDs == nil {
			t.Fatalf("batch at row %d dropped its rowIDs", n)
		}
		n += b.Len()
	}
	if n != len(want) {
		t.Fatalf("%d rows, want %d", n, len(want))
	}
}

// randomMergeCase draws children with duplicate keys within and across
// children, empty children, the int64 extremes and mixed rowIDs.
func randomMergeCase(rng *rand.Rand, nChildren int, desc bool, batch int) mergeCase {
	mc := mergeCase{desc: desc, batch: batch, empties: rng.Intn(4) == 0}
	domain := int64(1 + rng.Intn(50))
	allIDs := rng.Intn(2) == 0
	for c := 0; c < nChildren; c++ {
		var n int
		switch rng.Intn(5) {
		case 0:
			n = 0
		case 1:
			n = 1 + rng.Intn(5)
		default:
			n = rng.Intn(3 * BatchSize)
		}
		keys := make([]int64, n)
		for i := range keys {
			switch rng.Intn(40) {
			case 0:
				keys[i] = math.MinInt64
			case 1:
				keys[i] = math.MaxInt64
			default:
				keys[i] = rng.Int63n(domain) - domain/2
			}
		}
		mc.keys = append(mc.keys, keys)
		mc.withIDs = append(mc.withIDs, allIDs || rng.Intn(2) == 0)
	}
	mc.sortChildren()
	return mc
}

var mergeBatchSizes = []int{1, 2, 7, 100, BatchSize - 1, BatchSize, BatchSize + 1, 2*BatchSize + 3}

func TestMergeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for nChildren := 1; nChildren <= 9; nChildren++ {
		for _, desc := range []bool{false, true} {
			for _, batch := range mergeBatchSizes {
				for rep := 0; rep < 2; rep++ {
					mc := randomMergeCase(rng, nChildren, desc, batch)
					t.Run(fmt.Sprintf("k%d/desc=%v/batch%d/%d", nChildren, desc, batch, rep), func(t *testing.T) {
						checkMerge(t, mc)
					})
				}
			}
		}
	}
}

// FuzzMerge decodes children from bytes: every byte is one key (0 and
// 255 are the int64 extremes, the rest fall into 16 values, so ties are
// common), split over up to 9 children.
func FuzzMerge(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5}, uint8(1), false, uint16(1))
	f.Add([]byte{0, 255, 7, 7, 7, 0, 255, 3, 3}, uint8(3), true, uint16(2))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, uint8(9), false, uint16(BatchSize+1))
	f.Add([]byte{5, 0, 3, 200, 17, 255, 42, 8, 8, 1}, uint8(4), false, uint16(BatchSize))
	f.Add([]byte{}, uint8(2), true, uint16(7))
	f.Fuzz(func(t *testing.T, data []byte, nChildren uint8, desc bool, batch uint16) {
		k := 1 + int(nChildren)%9
		mc := mergeCase{desc: desc, batch: 1 + int(batch)%(2*BatchSize), empties: nChildren&0x80 != 0}
		mc.keys = make([][]int64, k)
		for i, b := range data {
			key := int64(b % 16)
			switch b {
			case 0:
				key = math.MinInt64
			case 255:
				key = math.MaxInt64
			}
			mc.keys[i%k] = append(mc.keys[i%k], key)
		}
		for c := 0; c < k; c++ {
			mc.withIDs = append(mc.withIDs, (nChildren>>4)&1 == 0 || c%2 == 0)
		}
		mc.sortChildren()
		checkMerge(t, mc)
	})
}

// TestSortStableOrder sorts rows with many ties on a BIGINT, a DOUBLE
// and a VARCHAR key (mixed directions) and compares row for row with
// sort.SliceStable: rows equal on every key keep their input order,
// which the tag column records.
func TestSortStableOrder(t *testing.T) {
	schema := storage.Schema{
		{Name: "i", Kind: storage.KindInt64},
		{Name: "f", Kind: storage.KindFloat64},
		{Name: "s", Kind: storage.KindString},
		{Name: "tag", Kind: storage.KindInt64},
	}
	rng := rand.New(rand.NewSource(39))
	for _, n := range []int{0, 1, 5, BatchSize, 3*BatchSize + 17} {
		cols := []Vec{NewVec(storage.KindInt64, n), NewVec(storage.KindFloat64, n), NewVec(storage.KindString, n), NewVec(storage.KindInt64, n)}
		rowIDs := make([]uint64, n)
		for i := 0; i < n; i++ {
			cols[0].I64 = append(cols[0].I64, rng.Int63n(4))
			cols[1].F64 = append(cols[1].F64, float64(rng.Intn(3))/2)
			cols[2].Str = append(cols[2].Str, string(rune('a'+rng.Intn(3))))
			cols[3].I64 = append(cols[3].I64, int64(i))
			rowIDs[i] = uint64(1000 + i)
		}
		keys := []SortKey{{Col: 2}, {Col: 0, Desc: true}, {Col: 1}}
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		sort.SliceStable(perm, func(a, b int) bool {
			x, y := perm[a], perm[b]
			if cols[2].Str[x] != cols[2].Str[y] {
				return cols[2].Str[x] < cols[2].Str[y]
			}
			if cols[0].I64[x] != cols[0].I64[y] {
				return cols[0].I64[x] > cols[0].I64[y]
			}
			return cols[1].F64[x] < cols[1].F64[y]
		})
		s := NewSort(NewVecSource(schema, cols, rowIDs), keys...)
		batches, err := Drain(s)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		for _, b := range batches {
			for j := 0; j < b.Len(); j++ {
				if got := b.Cols[3].I64[j]; got != int64(perm[i]) {
					t.Fatalf("n=%d: row %d is input %d, want %d", n, i, got, perm[i])
				}
				if b.RowIDs[j] != uint64(1000+perm[i]) {
					t.Fatalf("n=%d: row %d rowID %d, want %d", n, i, b.RowIDs[j], 1000+perm[i])
				}
				i++
			}
		}
		if i != n {
			t.Fatalf("n=%d: sorted %d rows", n, i)
		}
	}
}

// BenchmarkMerge merges 8 streams of 64 Ki rows each: "ranges" gives
// every stream its own key range (long runs, as range-loaded partitions
// give), "interleaved" deals consecutive keys round-robin (runs of one
// row).
func BenchmarkMerge(b *testing.B) {
	const k, n = 8, 1 << 16
	for _, layout := range []string{"ranges", "interleaved"} {
		keys := make([][]int64, k)
		for c := range keys {
			keys[c] = make([]int64, n)
			for i := range keys[c] {
				if layout == "ranges" {
					keys[c][i] = int64(c*n + i)
				} else {
					keys[c][i] = int64(i*k + c)
				}
			}
		}
		b.Run(layout, func(b *testing.B) {
			b.ReportAllocs()
			for it := 0; it < b.N; it++ {
				children := make([]Operator, k)
				for c := range children {
					children[c] = &chunkSource{keys: keys[c], tags: keys[c], batch: BatchSize}
				}
				if rows, err := Count(NewMerge(0, false, children...)); err != nil || rows != k*n {
					b.Fatal(rows, err)
				}
			}
		})
	}
}
