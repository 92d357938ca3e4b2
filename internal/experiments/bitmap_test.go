package experiments

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"patchindex/internal/bitmap"
)

// positions returns k distinct sorted positions below n.
func positions(n uint64, k int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[uint64]bool, k)
	out := make([]uint64, 0, k)
	for len(out) < k {
		if p := uint64(rng.Int63n(int64(n))); !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	slices.Sort(out)
	return out
}

// fig6Bitmap is the bitmap Fig. 6 bulk-deletes from: s.bits bits, every
// third one set, shifted by the scalar or the word-vectorized kernel.
func fig6Bitmap(s scale, shard uint64, vectorized bool) *bitmap.Sharded {
	bm := bitmap.NewSharded(s.bits, shard)
	for i := uint64(0); i < s.bits; i += 3 {
		bm.Set(i)
	}
	bm.SetVectorized(vectorized)
	return bm
}

// BenchmarkFig6ShardSize is the Fig. 6 sweep: bulk delete runtime per
// shard size for the parallel and the parallel+vectorized kernel, and
// the memory overhead of sharding (the paper's minimum is at 2^14 bits,
// with a 0.39% overhead).
func BenchmarkFig6ShardSize(b *testing.B) {
	s := benchScale
	pos := positions(s.bits, s.bulk, 1)
	for shard := uint64(1 << 8); shard <= 1<<19; shard <<= 1 { // Fig. 6's x-axis
		for _, vec := range []bool{false, true} {
			b.Run(fmt.Sprintf("shard=2^%d/vectorized=%v", bits.Len64(shard)-1, vec), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					bm := fig6Bitmap(s, shard, vec)
					p := slices.Clone(pos)
					b.StartTimer()
					bm.BulkDelete(p)
					b.ReportMetric(bm.OverheadPercent(), "overhead_%")
				}
			})
		}
	}
}

// TestRunFig6 checks Fig. 6's memory curve, 0.390625% at 2^14 bits and
// halving with each doubling, and that both kernels delete the same
// bits at every shard size.
func TestRunFig6(t *testing.T) {
	s := testScale
	pos := positions(s.bits, s.bulk, 1)
	var prev float64
	for shard := uint64(1 << 8); shard <= 1<<19; shard <<= 1 {
		scalar, vec := fig6Bitmap(s, shard, false), fig6Bitmap(s, shard, true)
		scalar.BulkDelete(slices.Clone(pos))
		vec.BulkDelete(slices.Clone(pos))
		if !slices.Equal(scalar.SetBits(), vec.SetBits()) || scalar.Len() != s.bits-uint64(s.bulk) {
			t.Errorf("shard 2^%d: the scalar and the vectorized bulk delete disagree", bits.Len64(shard)-1)
		}
		o := vec.OverheadPercent()
		if shard == 1<<14 && o != 0.390625 {
			t.Errorf("overhead at 2^14 = %v%%, want 0.390625%%", o)
		}
		if prev != 0 && o != prev/2 {
			t.Errorf("overhead at 2^%d = %v%%, want half of %v%%", bits.Len64(shard)-1, o, prev)
		}
		prev = o
	}
}

// sink keeps the compiler from dropping the measured Get calls.
var sink bool

// BenchmarkTable2Ops reproduces Table 2: per-element latencies of the
// bitmap operators for the ordinary and the sharded design (paper: a
// ~2x access overhead for sharding, deletes three orders of magnitude
// faster, bulk delete another order faster).
func BenchmarkTable2Ops(b *testing.B) {
	n := benchScale.bits
	b.Run("Bitmap/SequentialSet", func(b *testing.B) {
		bm := bitmap.New(n)
		for i := 0; i < b.N; i++ {
			bm.Set(uint64(i) % n)
		}
	})
	b.Run("Sharded/SequentialSet", func(b *testing.B) {
		bm := bitmap.NewSharded(n, bitmap.DefaultShardBits)
		for i := 0; i < b.N; i++ {
			bm.Set(uint64(i) % n)
		}
	})
	b.Run("Bitmap/SequentialGet", func(b *testing.B) {
		bm := bitmap.New(n)
		for i := 0; i < b.N; i++ {
			sink = bm.Get(uint64(i) % n)
		}
	})
	b.Run("Sharded/SequentialGet", func(b *testing.B) {
		bm := bitmap.NewSharded(n, bitmap.DefaultShardBits)
		for i := 0; i < b.N; i++ {
			sink = bm.Get(uint64(i) % n)
		}
	})
	b.Run("Bitmap/Delete", func(b *testing.B) {
		bm := bitmap.New(n)
		for i := 0; i < b.N; i++ {
			if bm.Len() < n/2 {
				b.StopTimer()
				bm = bitmap.New(n)
				b.StartTimer()
			}
			bm.Delete(uint64(i) % (bm.Len() / 2))
		}
	})
	b.Run("Sharded/Delete", func(b *testing.B) {
		bm := bitmap.NewSharded(n, bitmap.DefaultShardBits)
		for i := 0; i < b.N; i++ {
			if bm.Len() < n/2 {
				b.StopTimer()
				bm = bitmap.NewSharded(n, bitmap.DefaultShardBits)
				b.StartTimer()
			}
			bm.Delete(uint64(i) % (bm.Len() / 2))
		}
	})
	b.Run("Sharded/BulkDelete", func(b *testing.B) {
		pos := positions(n, benchScale.bulk, 2)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			bm := bitmap.NewSharded(n, bitmap.DefaultShardBits)
			p := slices.Clone(pos)
			b.StartTimer()
			bm.BulkDelete(p)
		}
		// Per-element cost: divide ns/op by the bulk size.
		b.ReportMetric(float64(benchScale.bulk), "deletes/op")
	})
}

// TestRunTable2 requires an ordinary and a sharded bitmap bit-equal
// after each of Table 2's operations: sets, single deletes and a bulk
// delete, which the ordinary bitmap applies as deletes from the back.
func TestRunTable2(t *testing.T) {
	n := testScale.bits
	flat := bitmap.New(n)
	sharded := bitmap.NewSharded(n, bitmap.DefaultShardBits)
	equal := func(op string) {
		t.Helper()
		if flat.Len() != sharded.Len() || !slices.Equal(flat.SetBits(), sharded.SetBits()) {
			t.Fatalf("%s: the ordinary and the sharded bitmap differ", op)
		}
	}
	for i := uint64(0); i < n; i += 3 {
		flat.Set(i)
		sharded.Set(i)
	}
	equal("sequential set")
	for i := uint64(0); i < 2000; i++ {
		flat.Delete(i * 5)
		sharded.Delete(i * 5)
	}
	equal("single deletes")
	pos := positions(flat.Len(), testScale.bulk, 2)
	for i := len(pos) - 1; i >= 0; i-- {
		flat.Delete(pos[i])
	}
	sharded.BulkDelete(pos)
	equal("bulk delete")
}
