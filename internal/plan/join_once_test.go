package plan

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"patchindex/internal/core"
	"patchindex/internal/exec"
	"patchindex/internal/storage"
)

// countingDim is a dimension subtree that counts how often it is drained
// to end of stream and how often it is closed. Parallel plans drain
// partitions from several goroutines, hence the atomics.
type countingDim struct {
	exec.Operator
	drains, closes atomic.Int32
}

func (d *countingDim) Next() (*exec.Batch, error) {
	b, err := d.Operator.Next()
	if b == nil && err == nil {
		d.drains.Add(1)
	}
	return b, err
}

func (d *countingDim) Close() {
	d.closes.Add(1)
	d.Operator.Close()
}

// onceDim is the dimension of TestJoinComputesDimensionOnce: keys sorted
// ascending, each present twice, with a payload column telling the two
// copies apart.
func onceDim() (keys, payload []int64) {
	for i := 0; i < 3000; i++ {
		keys = append(keys, int64(i/2))
		payload = append(payload, int64(i))
	}
	return keys, payload
}

// joinOracle joins partition by partition: every fact row of every
// partition meets every dimension row with its key, as each partition
// subtree must see it. Tuples are "fact key, dim key, payload".
func joinOracle(parts [][]int64, keys, payload []int64) []string {
	rows := map[int64][]int{}
	for r, dk := range keys {
		rows[dk] = append(rows[dk], r)
	}
	var out []string
	for _, fact := range parts {
		for _, fk := range fact {
			for _, r := range rows[fk] {
				out = append(out, fmt.Sprint(fk, keys[r], payload[r]))
			}
		}
	}
	sort.Strings(out)
	return out
}

func drainTuples(t *testing.T, op exec.Operator) []string {
	t.Helper()
	batches, err := exec.Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, b := range batches {
		for i := 0; i < b.Len(); i++ {
			out = append(out, fmt.Sprint(b.Cols[0].I64[i], b.Cols[1].I64[i], b.Cols[2].I64[i]))
		}
	}
	sort.Strings(out)
	return out
}

// TestJoinComputesDimensionOnce pins the join plans to the paper's
// Fig. 2 and to the cost model: the dimension subtree "X" is computed
// once per query, not once per fact partition, sequentially and in
// parallel, and every partition still meets all of its rows.
func TestJoinComputesDimensionOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	// Four contiguous partitions of 1500 rows; partition 1 stays sorted,
	// so zero-branch pruning drops its patch subtree, and the others get
	// patches. Keys reach past the dimension's, so some rows match none.
	fact := make([]int64, 6000)
	for i := range fact {
		fact[i] = int64(i * 1600 / len(fact))
	}
	for i := 0; i < 200; i++ {
		if p := rng.Intn(len(fact)); p/1500 != 1 {
			fact[p] = rng.Int63n(1600)
		}
	}
	keys, payload := onceDim()
	schema := storage.Schema{{Name: "dk", Kind: storage.KindInt64}, {Name: "dv", Kind: storage.KindInt64}}

	builders := []struct {
		name  string
		build func(JoinInput, Options) exec.Operator
		zbp   bool
	}{
		{"Join", Join, false},
		{"Join+ZBP", Join, true},
		{"JoinReference", JoinReference, false},
	}
	for _, b := range builders {
		for _, parallel := range []bool{false, true} {
			label := fmt.Sprintf("%s parallel=%v", b.name, parallel)
			inputs := nscInputs(t, fact, 4, core.DesignBitmap)
			parts := make([][]int64, len(inputs))
			pruned := 0
			for p, in := range inputs {
				parts[p] = in.View.MaterializeInt64(0)
				if in.Index.NumPatches() == 0 {
					pruned++
				}
			}
			if pruned != 1 {
				t.Fatalf("%s: %d patch-free partitions, want 1", label, pruned)
			}
			dim := &countingDim{Operator: exec.NewVecSource(schema, []exec.Vec{
				{Kind: storage.KindInt64, I64: keys},
				{Kind: storage.KindInt64, I64: payload},
			}, nil)}
			in := JoinInput{Fact: inputs, FactCols: []int{0}, FactKey: 0, Dim: dim, DimKey: 0}
			got := drainTuples(t, b.build(in, Options{ZeroBranchPruning: b.zbp, Parallel: parallel}))
			if d, c := dim.drains.Load(), dim.closes.Load(); d != 1 || c != 1 {
				t.Errorf("%s: dimension drained %d and closed %d times, want once each", label, d, c)
			}
			want := joinOracle(parts, keys, payload)
			if len(got) != len(want) {
				t.Fatalf("%s: %d rows, the per-partition oracle has %d", label, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: row %d is %q, the oracle has %q", label, i, got[i], want[i])
				}
			}
		}
	}
}
