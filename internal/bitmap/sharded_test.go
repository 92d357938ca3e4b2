package bitmap

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// model is a reference implementation of the bitmap semantics against
// which the sharded bitmap is checked.
type model struct{ bits []bool }

func newModel(n int) *model { return &model{bits: make([]bool, n)} }

func (m *model) set(i uint64)      { m.bits[i] = true }
func (m *model) unset(i uint64)    { m.bits[i] = false }
func (m *model) get(i uint64) bool { return m.bits[i] }
func (m *model) del(i uint64)      { m.bits = append(m.bits[:i], m.bits[i+1:]...) }
func (m *model) grow(extra int)    { m.bits = append(m.bits, make([]bool, extra)...) }

func (m *model) bulkDel(positions []uint64) {
	for i := len(positions) - 1; i >= 0; i-- {
		m.del(positions[i])
	}
}

func checkEqual(t *testing.T, s *Sharded, m *model) {
	t.Helper()
	if s.Len() != uint64(len(m.bits)) {
		t.Fatalf("Len = %d, model %d", s.Len(), len(m.bits))
	}
	for i, want := range m.bits {
		if got := s.Get(uint64(i)); got != want {
			t.Fatalf("bit %d = %v, model %v", i, got, want)
		}
	}
	var wantCount uint64
	for _, b := range m.bits {
		if b {
			wantCount++
		}
	}
	if got := s.Count(); got != wantCount {
		t.Fatalf("Count = %d, model %d", got, wantCount)
	}
}

func TestShardedBadShardSizePanics(t *testing.T) {
	for _, bad := range []uint64{0, 1, 32, 63, 100, 3 << 10} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSharded(shardBits=%d) did not panic", bad)
				}
			}()
			NewSharded(100, bad)
		}()
	}
}

func TestShardedSetGetAcrossShards(t *testing.T) {
	s := NewSharded(1000, 256)
	positions := []uint64{0, 255, 256, 257, 511, 512, 999}
	for _, p := range positions {
		s.Set(p)
	}
	for _, p := range positions {
		if !s.Get(p) {
			t.Fatalf("bit %d not set", p)
		}
	}
	if got := s.Count(); got != uint64(len(positions)) {
		t.Fatalf("Count = %d, want %d", got, len(positions))
	}
	s.Unset(256)
	if s.Get(256) {
		t.Fatal("bit 256 still set after Unset")
	}
}

func TestShardedDeletePaperExample(t *testing.T) {
	// Mirror of the paper's Fig. 3 at word granularity: deleting position
	// 5 makes the old bit 26 visible at position 25, while bits in
	// subsequent shards keep their logical distances.
	s := NewSharded(512, 64)
	s.Set(5)
	s.Set(26)
	s.Set(70) // second shard
	s.Delete(5)
	if s.Len() != 511 {
		t.Fatalf("Len = %d, want 511", s.Len())
	}
	if !s.Get(25) {
		t.Fatal("old bit 26 should be at 25 after delete")
	}
	if s.Get(26) {
		t.Fatal("bit 26 should be unset after delete")
	}
	// Bit 70 was in shard 1; its shard did not shift, but its logical
	// position decreased with the start-value decrement.
	if !s.Get(69) {
		t.Fatal("old bit 70 should be at 69 after delete")
	}
}

func TestShardedDeleteAgainstModel(t *testing.T) {
	const n = 2000
	rng := rand.New(rand.NewSource(1))
	s := NewSharded(n, 128)
	m := newModel(n)
	for i := 0; i < 600; i++ {
		p := uint64(rng.Intn(n))
		s.Set(p)
		m.set(p)
	}
	for i := 0; i < 500; i++ {
		p := uint64(rng.Intn(int(s.Len())))
		s.Delete(p)
		m.del(p)
	}
	checkEqual(t, s, m)
}

func TestShardedDeleteScalarKernelAgainstModel(t *testing.T) {
	const n = 1000
	rng := rand.New(rand.NewSource(2))
	s := NewSharded(n, 64)
	s.SetVectorized(false)
	m := newModel(n)
	for i := 0; i < 300; i++ {
		p := uint64(rng.Intn(n))
		s.Set(p)
		m.set(p)
	}
	for i := 0; i < 200; i++ {
		p := uint64(rng.Intn(int(s.Len())))
		s.Delete(p)
		m.del(p)
	}
	checkEqual(t, s, m)
}

func TestShardedBulkDeleteAgainstModel(t *testing.T) {
	for _, shardBits := range []uint64{64, 128, 1024} {
		const n = 3000
		rng := rand.New(rand.NewSource(3))
		s := NewSharded(n, shardBits)
		m := newModel(n)
		for i := 0; i < 1000; i++ {
			p := uint64(rng.Intn(n))
			s.Set(p)
			m.set(p)
		}
		positions := samplePositions(rng, n, 700)
		s.BulkDelete(positions)
		m.bulkDel(positions)
		checkEqual(t, s, m)
	}
}

func TestShardedBulkDeleteEquivalentToSequentialDeletes(t *testing.T) {
	const n = 2048
	rng := rand.New(rand.NewSource(4))
	a := NewSharded(n, 256)
	b := NewSharded(n, 256)
	for i := 0; i < 800; i++ {
		p := uint64(rng.Intn(n))
		a.Set(p)
		b.Set(p)
	}
	positions := samplePositions(rng, n, 500)
	a.BulkDelete(positions)
	// Descending sequential deletes are equivalent to the bulk delete.
	for i := len(positions) - 1; i >= 0; i-- {
		b.Delete(positions[i])
	}
	if a.Len() != b.Len() {
		t.Fatalf("Len mismatch: %d vs %d", a.Len(), b.Len())
	}
	for i := uint64(0); i < a.Len(); i++ {
		if a.Get(i) != b.Get(i) {
			t.Fatalf("bit %d differs between bulk and sequential delete", i)
		}
	}
}

func TestShardedBulkDeleteValidation(t *testing.T) {
	s := NewSharded(100, 64)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unsorted positions did not panic")
			}
		}()
		s.BulkDelete([]uint64{5, 3})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate positions did not panic")
			}
		}()
		s.BulkDelete([]uint64{3, 3})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range position did not panic")
			}
		}()
		s.BulkDelete([]uint64{100})
	}()
	s.BulkDelete(nil) // no-op
	if s.Len() != 100 {
		t.Fatal("empty BulkDelete changed length")
	}
}

func TestShardedBulkDeleteWholeShard(t *testing.T) {
	s := NewSharded(256, 64)
	for i := uint64(0); i < 256; i++ {
		s.Set(i)
	}
	// Delete all 64 bits of shard 1.
	positions := make([]uint64, 64)
	for i := range positions {
		positions[i] = uint64(64 + i)
	}
	s.BulkDelete(positions)
	if s.Len() != 192 {
		t.Fatalf("Len = %d, want 192", s.Len())
	}
	if got := s.Count(); got != 192 {
		t.Fatalf("Count = %d, want 192", got)
	}
}

func TestShardedGrowReusesDeadSlots(t *testing.T) {
	s := NewSharded(128, 64)
	for i := uint64(0); i < 128; i++ {
		s.Set(i)
	}
	s.Delete(100) // creates a dead slot at the end of the last shard
	if s.Len() != 127 {
		t.Fatalf("Len = %d, want 127", s.Len())
	}
	s.Grow(1)
	if s.Len() != 128 {
		t.Fatalf("Len = %d, want 128", s.Len())
	}
	if s.Get(127) {
		t.Fatal("grown bit should be unset")
	}
	if s.NumShards() != 2 {
		t.Fatalf("Grow should reuse the last shard's dead slot, shards = %d", s.NumShards())
	}
}

func TestShardedGrowAddsShards(t *testing.T) {
	s := NewSharded(64, 64)
	s.Set(63)
	s.Grow(200)
	if s.Len() != 264 {
		t.Fatalf("Len = %d, want 264", s.Len())
	}
	if !s.Get(63) {
		t.Fatal("existing bit lost after Grow")
	}
	for i := uint64(64); i < 264; i++ {
		if s.Get(i) {
			t.Fatalf("grown bit %d should be unset", i)
		}
	}
	s.Set(263)
	if !s.Get(263) {
		t.Fatal("cannot set last grown bit")
	}
}

func TestShardedCondense(t *testing.T) {
	const n = 1024
	rng := rand.New(rand.NewSource(5))
	s := NewSharded(n, 64)
	m := newModel(n)
	for i := 0; i < 400; i++ {
		p := uint64(rng.Intn(n))
		s.Set(p)
		m.set(p)
	}
	positions := samplePositions(rng, n, 300)
	s.BulkDelete(positions)
	m.bulkDel(positions)
	if s.Utilization() >= 1 {
		t.Fatal("utilization should degrade after deletes")
	}
	s.Condense()
	// After condense all shards except possibly the last are full, so at
	// most one shard's worth of slack remains.
	if slack := uint64(s.NumShards())*s.shardBits - s.Len(); slack >= s.shardBits {
		t.Fatalf("slack after condense = %d bits (>= shard size %d)", slack, s.shardBits)
	}
	checkEqual(t, s, m)
	// The structure must remain fully functional after condense.
	s.Set(0)
	m.set(0)
	s.Delete(5)
	m.del(5)
	checkEqual(t, s, m)
}

func TestShardedCondenseNoop(t *testing.T) {
	s := NewSharded(100, 64)
	s.Set(50)
	s.Condense()
	if !s.Get(50) || s.Len() != 100 {
		t.Fatal("Condense on fresh bitmap changed state")
	}
}

func TestShardedUtilizationAndOverhead(t *testing.T) {
	s := NewSharded(1<<16, 1<<14)
	if got := s.OverheadPercent(); got < 0.38 || got > 0.40 {
		t.Fatalf("OverheadPercent = %f, want ~0.39 (paper Section 6.1)", got)
	}
	if s.Utilization() != 1 {
		t.Fatalf("fresh Utilization = %f, want 1", s.Utilization())
	}
	s.Delete(0)
	want := float64(1<<16-1) / float64(1<<16)
	if got := s.Utilization(); got != want {
		t.Fatalf("Utilization = %f, want %f", got, want)
	}
}

func TestShardedSetBitsOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := NewSharded(5000, 256)
	want := map[uint64]bool{}
	for i := 0; i < 800; i++ {
		p := uint64(rng.Intn(5000))
		s.Set(p)
		want[p] = true
	}
	got := s.SetBits()
	if len(got) != len(want) {
		t.Fatalf("SetBits returned %d positions, want %d", len(got), len(want))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("SetBits not sorted")
	}
	for _, p := range got {
		if !want[p] {
			t.Fatalf("unexpected position %d", p)
		}
	}
}

func TestShardedSerializationRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSharded(4096, 128)
	for i := 0; i < 1000; i++ {
		s.Set(uint64(rng.Intn(4096)))
	}
	s.BulkDelete(samplePositions(rng, 4096, 200))
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	var r Sharded
	if _, err := r.ReadFrom(&buf); err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if r.Len() != s.Len() || r.Count() != s.Count() {
		t.Fatalf("roundtrip mismatch: len %d/%d count %d/%d", r.Len(), s.Len(), r.Count(), s.Count())
	}
	for i := uint64(0); i < s.Len(); i++ {
		if r.Get(i) != s.Get(i) {
			t.Fatalf("bit %d differs after roundtrip", i)
		}
	}
	// Restored structure must support further updates.
	r.Delete(0)
	r.Grow(10)
	r.Set(r.Len() - 1)
}

func TestShardedDeleteAll(t *testing.T) {
	s := NewSharded(128, 64)
	for i := uint64(0); i < 128; i++ {
		s.Set(i)
	}
	for s.Len() > 0 {
		s.Delete(0)
	}
	if s.Count() != 0 {
		t.Fatalf("Count = %d after deleting all bits", s.Count())
	}
	s.Grow(64)
	if s.Count() != 0 {
		t.Fatal("regrown bitmap should be empty")
	}
}

// samplePositions returns k distinct sorted positions in [0, n).
func samplePositions(rng *rand.Rand, n, k int) []uint64 {
	perm := rng.Perm(n)[:k]
	out := make([]uint64, k)
	for i, p := range perm {
		out[i] = uint64(p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// --- shard-granularity copy-on-write (Freeze) ---

func TestFreezeIsolatesMutations(t *testing.T) {
	s := NewSharded(256, 64) // 4 shards
	for _, p := range []uint64{0, 63, 64, 130, 255} {
		s.Set(p)
	}
	f := s.Freeze()

	// Mutate every shard of the live bitmap.
	s.Set(1)
	s.Unset(63)
	s.Set(65)
	s.Delete(130) // also shifts starts of shards 3,4
	s.Unset(254)

	// Frozen copy still answers from the capture instant.
	for _, p := range []uint64{0, 63, 64, 130, 255} {
		if !f.Get(p) {
			t.Fatalf("frozen lost bit %d", p)
		}
	}
	if f.Get(1) || f.Get(65) {
		t.Fatal("frozen sees post-freeze mutation")
	}
	if f.Len() != 256 || s.Len() != 255 {
		t.Fatalf("lengths: frozen %d live %d", f.Len(), s.Len())
	}
	if f.Count() != 5 {
		t.Fatalf("frozen Count = %d, want 5", f.Count())
	}
}

func TestFreezeCopiesOnlyTouchedShards(t *testing.T) {
	s := NewSharded(64*64, 64) // 64 shards
	f := s.Freeze()
	s.Set(0) // touches shard 0 only
	var copied int
	for i := range s.shards {
		if &s.shards[i][0] != &f.shards[i][0] {
			copied++
		}
	}
	if copied != 1 {
		t.Fatalf("Set copied %d shards, want 1", copied)
	}
	if f.Get(0) {
		t.Fatal("frozen observed live Set")
	}
}

func TestFreezeSurvivesBulkDeleteAndCondense(t *testing.T) {
	s := NewSharded(512, 64)
	for p := uint64(0); p < 512; p += 3 {
		s.Set(p)
	}
	f := s.Freeze()
	want := f.SetBits()

	var del []uint64
	for p := uint64(10); p < 500; p += 7 {
		del = append(del, p)
	}
	s.BulkDelete(del)
	s.Condense()
	s.Grow(100)

	got := f.SetBits()
	if len(got) != len(want) {
		t.Fatalf("frozen SetBits changed: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frozen bit %d moved", want[i])
		}
	}
	if f.Len() != 512 {
		t.Fatalf("frozen Len = %d", f.Len())
	}
}

func TestFreezeChainRepeated(t *testing.T) {
	s := NewSharded(128, 64)
	var frozens []*Sharded
	var wants []uint64
	for r := uint64(0); r < 5; r++ {
		s.Set(r * 20)
		frozens = append(frozens, s.Freeze())
		wants = append(wants, s.Count())
	}
	s.Delete(5)
	s.Set(1)
	for i, f := range frozens {
		if f.Count() != wants[i] {
			t.Fatalf("freeze %d: Count = %d, want %d", i, f.Count(), wants[i])
		}
	}
}

// TestFreezeReadersRaceWriter runs readers of a Freeze copy (Get,
// Count, AppendSel, ForEachSet) concurrently with Set, BulkDelete, Grow
// and Condense on the live bitmap — the shard copy-on-write every query
// snapshot of a core.Index relies on. The frozen bits must never change;
// under -race the test also checks that no reader touches a word or
// start value the writer writes.
func TestFreezeReadersRaceWriter(t *testing.T) {
	const (
		seed    = 47
		rounds  = 20
		readers = 3
		ops     = 200
	)
	rng := rand.New(rand.NewSource(seed))
	s := NewSharded(4096, 256)
	for p := uint64(0); p < s.Len(); p += 5 {
		s.Set(p)
	}
	for round := 0; round < rounds; round++ {
		f := s.Freeze()
		n := f.Len()
		want := f.SetBits()
		wantSel := make([]int32, len(want))
		for i, p := range want {
			wantSel[i] = int32(p)
		}

		done := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if !frozenBitsEqual(f, n, want, wantSel) {
						t.Errorf("round %d: the frozen bits changed", round)
						return
					}
					select {
					case <-done:
						return
					default:
					}
				}
			}()
		}
		for i := 0; i < ops; i++ {
			switch op := rng.Intn(10); {
			case op < 6:
				s.Set(uint64(rng.Int63n(int64(s.Len()))))
			case op < 8:
				var del []uint64
				for p := uint64(rng.Intn(16)); p < s.Len() && len(del) < 32; p += 1 + uint64(rng.Intn(128)) {
					del = append(del, p)
				}
				s.BulkDelete(del)
			case op < 9:
				s.Grow(uint64(1 + rng.Intn(300)))
			default:
				s.Condense()
			}
		}
		close(done)
		wg.Wait()
		if !frozenBitsEqual(f, n, want, wantSel) {
			t.Fatalf("round %d: the frozen bits changed", round)
		}
	}
}

// frozenBitsEqual reports whether f, of length n, still holds exactly
// the set positions want, through every read path.
func frozenBitsEqual(f *Sharded, n uint64, want []uint64, wantSel []int32) bool {
	if f.Len() != n || f.Count() != uint64(len(want)) {
		return false
	}
	k := 0
	for i := uint64(0); i < n; i++ {
		set := k < len(want) && want[k] == i
		if f.Get(i) != set {
			return false
		}
		if set {
			k++
		}
	}
	if !slices.Equal(f.AppendSel(0, n, false, nil), wantSel) {
		return false
	}
	k = 0
	ok := true
	f.ForEachSet(func(pos uint64) bool {
		ok = k < len(want) && want[k] == pos
		k++
		return ok
	})
	return ok && k == len(want)
}
