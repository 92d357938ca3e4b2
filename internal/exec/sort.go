package exec

import (
	"cmp"
	"slices"

	"patchindex/internal/storage"
)

// SortKey describes one sort criterion.
type SortKey struct {
	Col  int
	Desc bool
}

// compareRows compares tuple i of batch a with tuple j of batch b under
// the sort keys. Both batches must share a schema. DOUBLE values compare
// as cmp.Compare does, NaN before every other value, so the order is
// total.
func compareRows(keys []SortKey, a *Batch, i int, b *Batch, j int) int {
	for _, k := range keys {
		va := &a.Cols[k.Col]
		vb := &b.Cols[k.Col]
		var c int
		switch va.Kind {
		case storage.KindInt64:
			x, y := va.I64[i], vb.I64[j]
			switch {
			case x < y:
				c = -1
			case x > y:
				c = 1
			}
		case storage.KindFloat64:
			c = cmp.Compare(va.F64[i], vb.F64[j]) // NaN first: a total order
		default:
			x, y := va.Str[i], vb.Str[j]
			switch {
			case x < y:
				c = -1
			case x > y:
				c = 1
			}
		}
		if k.Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// materializeAll drains child into one large batch.
func materializeAll(child Operator) (*Batch, error) {
	big := NewBatch(child.Schema())
	for {
		b, err := child.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return big, nil
		}
		big.AppendRange(b, 0, b.Len())
	}
}

// Sort fully sorts its input by the given keys. It materializes the
// child's output, sorts a permutation with pdqsort (slices.SortFunc),
// and emits the permuted tuples with Batch.Gather. The input position is
// the last key, so the order is stable in O(n log n). The
// comparison-based sort behaves like the QuickSort of the paper's
// system: nearly sorted inputs sort faster than random ones.
type Sort struct {
	child Operator
	keys  []SortKey

	built bool
	data  *Batch
	perm  []int32
	pos   int
	out   *Batch
}

// NewSort returns a sort of child by keys.
func NewSort(child Operator, keys ...SortKey) *Sort {
	if len(keys) == 0 {
		panic("exec: Sort needs at least one key")
	}
	return &Sort{child: child, keys: keys}
}

// Schema implements Operator.
func (s *Sort) Schema() storage.Schema { return s.child.Schema() }

func (s *Sort) build() error {
	s.built = true
	data, err := materializeAll(s.child)
	if err != nil {
		return err
	}
	s.data = data
	s.perm = make([]int32, data.Len())
	for i := range s.perm {
		s.perm[i] = int32(i)
	}
	slices.SortFunc(s.perm, func(a, b int32) int {
		if c := compareRows(s.keys, data, int(a), data, int(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	s.out = NewBatch(s.child.Schema())
	return nil
}

// Next implements Operator.
func (s *Sort) Next() (*Batch, error) {
	if !s.built {
		if err := s.build(); err != nil {
			return nil, err
		}
	}
	if s.pos >= len(s.perm) {
		return nil, nil
	}
	end := min(s.pos+BatchSize, len(s.perm))
	s.out.Reset()
	s.out.Gather(s.data, s.perm[s.pos:end])
	s.pos = end
	return s.out, nil
}

// Close implements Operator.
func (s *Sort) Close() {
	s.child.Close()
	s.data = nil
	s.out = nil
}

// Merge combines already-sorted children into one sorted stream — the
// order-preserving combination operator the PatchIndex sort optimization
// uses instead of Union (Section 3.3). Its callers merge on one BIGINT
// column (a NSC index and a SortKey are BIGINT-only), so it orders by
// that single typed key: each child's head key is cached as an int64,
// complemented (^k) for descending order, which reverses the order
// without overflow. Equal keys go to the lower child index, so the
// output is the stable sort of the children's concatenation.
//
// The children with rows form a min-heap on (head key, child index).
// Each step takes the root's whole run — every row that still sorts
// before the runner-up, the smaller of the root's two heap children —
// with one slice append per column. Child batches are read in place,
// not cloned: by the Operator contract a batch stays valid until that
// child's next Next, and Merge calls it only after copying every row of
// the current one.
type Merge struct {
	children []Operator
	col      int
	desc     bool

	started bool
	bufs    []*Batch // current batch per child, read in place; nil at EOF
	pos     []int    // next unread row of bufs[i]
	heads   []int64  // ordered key of bufs[i] at pos[i]
	heap    []int    // children not at EOF, a min-heap on (heads[i], i)
	out     *Batch
}

// NewMerge returns a k-way merge of the children, each sorted on BIGINT
// column col (descending when desc).
func NewMerge(col int, desc bool, children ...Operator) *Merge {
	if len(children) == 0 {
		panic("exec: Merge needs at least one child")
	}
	mustInt64Col(children[0].Schema(), col, "Merge key")
	return &Merge{children: children, col: col, desc: desc}
}

// Schema implements Operator.
func (m *Merge) Schema() storage.Schema { return m.children[0].Schema() }

// ord maps a key to the ascending order Merge compares in.
func (m *Merge) ord(k int64) int64 {
	if m.desc {
		return ^k
	}
	return k
}

// less orders children by (head key, child index).
func (m *Merge) less(i, j int) bool {
	return m.heads[i] < m.heads[j] || (m.heads[i] == m.heads[j] && i < j)
}

// down restores the heap below position x.
func (m *Merge) down(x int) {
	h := m.heap
	for {
		c := 2*x + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && m.less(h[c+1], h[c]) {
			c++
		}
		if !m.less(h[c], h[x]) {
			return
		}
		h[x], h[c] = h[c], h[x]
		x = c
	}
}

func (m *Merge) open() error {
	m.started = true
	n := len(m.children)
	m.bufs, m.pos, m.heads = make([]*Batch, n), make([]int, n), make([]int64, n)
	for i := range m.children {
		if err := m.advance(i); err != nil {
			return err
		}
		if m.bufs[i] != nil {
			m.heap = append(m.heap, i)
		}
	}
	for x := len(m.heap)/2 - 1; x >= 0; x-- {
		m.down(x)
	}
	m.out = NewBatch(m.Schema())
	return nil
}

// advance pulls child i's next non-empty batch; bufs[i] is nil at EOF.
func (m *Merge) advance(i int) error {
	for {
		b, err := m.children[i].Next()
		if err != nil || b == nil {
			m.bufs[i] = nil
			return err
		}
		if b.Len() > 0 {
			m.bufs[i], m.pos[i] = b, 0
			m.heads[i] = m.ord(b.Cols[m.col].I64[0])
			return nil
		}
	}
}

// Next implements Operator.
func (m *Merge) Next() (*Batch, error) {
	if !m.started {
		if err := m.open(); err != nil {
			return nil, err
		}
	}
	m.out.Reset()
	for len(m.heap) > 0 && m.out.Len() < BatchSize {
		w, r := m.heap[0], -1
		if len(m.heap) > 1 {
			r = m.heap[1]
		}
		if len(m.heap) > 2 && m.less(m.heap[2], r) {
			r = m.heap[2]
		}
		// The run: rows of w that sort before (heads[r], r).
		b, lo := m.bufs[w], m.pos[w]
		keys := b.Cols[m.col].I64
		end := min(len(keys), lo+BatchSize-m.out.Len())
		e := lo + 1
		if r < 0 {
			e = end
		}
		for ; e < end; e++ {
			if k := m.ord(keys[e]); k > m.heads[r] || (k == m.heads[r] && r < w) {
				break
			}
		}
		m.out.AppendRange(b, lo, e)
		if e < len(keys) {
			m.pos[w], m.heads[w] = e, m.ord(keys[e])
		} else if err := m.advance(w); err != nil {
			return nil, err
		} else if m.bufs[w] == nil {
			last := len(m.heap) - 1
			m.heap[0] = m.heap[last]
			m.heap = m.heap[:last]
		}
		m.down(0)
	}
	if m.out.Len() == 0 {
		return nil, nil
	}
	if len(m.out.RowIDs) != m.out.Len() {
		// Some run came from a child without rowIDs.
		m.out.RowIDs = nil
	}
	return m.out, nil
}

// Close implements Operator.
func (m *Merge) Close() {
	for _, c := range m.children {
		c.Close()
	}
	m.bufs = nil
	m.out = nil
}
