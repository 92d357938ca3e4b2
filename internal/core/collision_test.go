package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestGlobalNUCPatchesSplitEquivalence: the split pieces (count, merge,
// extract) compose to exactly the sets the monolithic global discovery
// produced, at several shapes including cross-partition duplicates.
func TestGlobalNUCPatchesSplitEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		nparts := 1 + rng.Intn(5)
		parts := make([][]int64, nparts)
		for p := range parts {
			n := rng.Intn(40)
			parts[p] = make([]int64, n)
			for i := range parts[p] {
				parts[p][i] = int64(rng.Intn(30)) // dense: many duplicates
			}
		}
		// Reference: one global count over the concatenation.
		counts := map[int64]int{}
		for _, vals := range parts {
			for _, v := range vals {
				counts[v]++
			}
		}
		got := GlobalNUCPatchesInt64(parts)
		for p, vals := range parts {
			var want []uint64
			for i, v := range vals {
				if counts[v] > 1 {
					want = append(want, uint64(i))
				}
			}
			if len(got[p]) != len(want) {
				t.Fatalf("trial %d partition %d: %v, want %v", trial, p, got[p], want)
			}
			for i := range want {
				if got[p][i] != want[i] {
					t.Fatalf("trial %d partition %d: %v, want %v", trial, p, got[p], want)
				}
			}
		}
	}
}

// TestNUCStateClassification: the three probes (local count, sealed
// exception set, foreign filters) classify values as the fast insert
// path expects.
func TestNUCStateClassification(t *testing.T) {
	// Partition 0: 1,2,3. Partition 1: 3,4. Value 3 is a global
	// duplicate, so it must be sealed at construction.
	counts := []map[int64]uint32{
		CountNUCValuesInt64([]int64{1, 2, 3}),
		CountNUCValuesInt64([]int64{3, 4}),
	}
	st := NewNUCStateInt64(counts)

	if !st.Sealed().ContainsInt64(3) {
		t.Fatal("cross-partition duplicate 3 not sealed at construction")
	}
	if st.Sealed().ContainsInt64(1) {
		t.Fatal("unique value 1 sealed")
	}
	if got := st.LocalCountInt64(0, 1); got != 1 {
		t.Fatalf("local count of 1 in partition 0 = %d", got)
	}
	if got := st.LocalCountInt64(1, 1); got != 0 {
		t.Fatalf("local count of 1 in partition 1 = %d", got)
	}
	// 4 lives only in partition 1: from partition 0's perspective it is
	// a cross-partition candidate; from partition 1's it is local.
	if !st.PartitionMayContainInt64(1, 4) {
		t.Fatal("foreign probe missed a real foreign value (filters cannot be false-negative)")
	}
	if st.PartitionMayContainInt64(0, 4) {
		t.Fatal("foreign probe hit the probing partition's own value (or an implausible false positive)")
	}
	if got := st.LocalCountInt64(0, 3) + st.LocalCountInt64(1, 3); got != 2 {
		t.Fatalf("global count of 3 = %d", got)
	}

	// Mutation round-trip: insert 5 into partition 0, then delete it.
	st.AddLocalInt64(0, 5)
	st.AddBloomInt64(0, 5)
	if !st.PartitionMayContainInt64(0, 5) {
		t.Fatal("filter did not learn the inserted value")
	}
	st.RemoveLocalInt64(0, 5)
	if got := st.LocalCountInt64(0, 5); got != 0 {
		t.Fatalf("count after delete = %d", got)
	}
	// The filter stays a superset after deletes — false positives only.
	if !st.PartitionMayContainInt64(0, 5) {
		t.Fatal("filter forgot a value (would risk a false negative under re-insert races)")
	}

	// Sealing is copy-on-write: an old snapshot never changes.
	old := st.Sealed()
	st.SealDuplicatesInt64([]int64{7})
	if old.ContainsInt64(7) {
		t.Fatal("sealed snapshot mutated in place")
	}
	if !st.Sealed().ContainsInt64(7) {
		t.Fatal("new duplicate not sealed")
	}
}

// TestNUCStateStringHashing: the string variant classifies through the
// hashed filters and string-keyed maps.
func TestNUCStateStringHashing(t *testing.T) {
	counts := []map[string]uint32{
		CountNUCValuesString([]string{"a", "b"}),
		CountNUCValuesString([]string{"b", "c"}),
	}
	st := NewNUCStateString(counts)
	if !st.IsString() {
		t.Fatal("IsString = false")
	}
	if !st.Sealed().ContainsString("b") {
		t.Fatal("cross-partition duplicate not sealed")
	}
	if !st.PartitionMayContainString(1, "c") {
		t.Fatal("foreign probe missed a real foreign string")
	}
	if got := st.LocalCountString(1, "c"); got != 1 {
		t.Fatalf("local count = %d", got)
	}
	st.SealDuplicatesString([]string{"z"})
	if !st.Sealed().ContainsString("z") {
		t.Fatal("string seal failed")
	}
}

// TestNUCStateSealedReadersRaceFree: lock-free Sealed() readers race
// copy-on-write sealers without the race detector firing, and every
// reader observes a monotonically growing set.
func TestNUCStateSealedReadersRaceFree(t *testing.T) {
	st := NewNUCStateInt64([]map[int64]uint32{{}, {}})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var mu sync.Mutex // stands in for the engine's gate around sealing
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := st.Sealed().Len()
				if n < last {
					t.Error("sealed set shrank")
					return
				}
				last = n
			}
		}()
	}
	for i := 0; i < 500; i++ {
		//pilint:ignore deferunlock tight serialization loop; defer would hold the lock across iterations
		mu.Lock()
		st.SealDuplicatesInt64([]int64{int64(i)})
		mu.Unlock()
	}
	close(stop)
	wg.Wait()
	if got := st.Sealed().Len(); got != 500 {
		t.Fatalf("sealed %d values, want 500", got)
	}
}

// TestSealedOverlayProperty checks the layered exception set against a
// plain set: unsynchronized sealers publishing random, overlapping
// batches at once (the CAS loop is their only coordination) lose no
// value; every snapshot a reader took keeps answering exactly as it did
// when taken, whatever was sealed since; and the level sizes keep the
// geometric shape that bounds a lookup.
func TestSealedOverlayProperty(t *testing.T) {
	for _, str := range []bool{false, true} {
		var st *NUCState
		var seal func(vals []int64)
		var contains func(e *NUCExceptions, v int64) bool
		if str {
			st = NewNUCStateString([]map[string]uint32{{"s-1": 2}})
			name := func(v int64) string { return fmt.Sprintf("s%d", v) }
			seal = func(vals []int64) {
				strs := make([]string, len(vals))
				for i, v := range vals {
					strs[i] = name(v)
				}
				st.SealDuplicatesString(strs)
			}
			contains = func(e *NUCExceptions, v int64) bool { return e.ContainsString(name(v)) }
		} else {
			st = NewNUCStateInt64([]map[int64]uint32{{-1: 2}})
			seal = st.SealDuplicatesInt64
			contains = func(e *NUCExceptions, v int64) bool { return e.ContainsInt64(v) }
		}

		const sealers, batches, domain = 4, 300, 5000
		type held struct {
			snap *NUCExceptions
			has  []bool // contains(snap, v) for v < probe, when taken
		}
		const probe = 64
		var wg sync.WaitGroup
		sealed := make([]map[int64]bool, sealers)
		snaps := make([][]held, sealers)
		for w := 0; w < sealers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w) + 1))
				sealed[w] = make(map[int64]bool)
				for b := 0; b < batches; b++ {
					vals := make([]int64, rng.Intn(6)) // empty batches included
					for i := range vals {
						vals[i] = rng.Int63n(domain)
						sealed[w][vals[i]] = true
					}
					seal(vals)
					if b%50 == 0 {
						h := held{snap: st.Sealed(), has: make([]bool, probe)}
						for v := range h.has {
							h.has[v] = contains(h.snap, int64(v))
						}
						snaps[w] = append(snaps[w], h)
					}
				}
			}(w)
		}
		wg.Wait()

		want := map[int64]bool{}
		for _, m := range sealed {
			for v := range m {
				want[v] = true
			}
		}
		final := st.Sealed()
		for v := int64(0); v < domain; v++ {
			if contains(final, v) != want[v] {
				t.Fatalf("string=%v: value %d sealed=%v, want %v", str, v, contains(final, v), want[v])
			}
		}
		if got := final.Len(); got != len(want)+1 { // +1: the discovery-time duplicate
			t.Fatalf("string=%v: Len = %d, want %d", str, got, len(want)+1)
		}
		for _, hs := range snaps {
			for _, h := range hs {
				for v := range h.has {
					if contains(h.snap, int64(v)) != h.has[v] {
						t.Fatalf("string=%v: an old snapshot changed its answer for %d", str, v)
					}
				}
			}
		}
		sizes := make([]int, 0, 8)
		for _, m := range final.ints {
			sizes = append(sizes, len(m))
		}
		for _, m := range final.strs {
			sizes = append(sizes, len(m))
		}
		for i := 1; i < len(sizes); i++ {
			if sizes[i-1] < sealMergeFactor*sizes[i] {
				t.Fatalf("string=%v: level sizes %v are not geometric", str, sizes)
			}
		}
	}
}

// TestNUCStateRebuildOverfullBlooms: a saturated filter is rebuilt from
// the live local map — shrinking after deletes, never forgetting a live
// value.
func TestNUCStateRebuildOverfullBlooms(t *testing.T) {
	st := NewNUCStateInt64([]map[int64]uint32{{}})
	// Saturate far past the initial sizing, then delete most values.
	for v := int64(0); v < 2000; v++ {
		st.AddLocalInt64(0, v)
		st.AddBloomInt64(0, v)
	}
	for v := int64(100); v < 2000; v++ {
		st.RemoveLocalInt64(0, v)
	}
	st.RebuildOverfullBlooms()
	// Live values must survive the rebuild.
	for v := int64(0); v < 100; v++ {
		if !st.PartitionMayContainInt64(0, v) {
			t.Fatalf("rebuild lost live value %d", v)
		}
	}
	// The rebuilt filter is tight again: dead values mostly vanish.
	var hits int
	for v := int64(100_000); v < 101_000; v++ {
		if st.PartitionMayContainInt64(0, v) {
			hits++
		}
	}
	if hits > 50 {
		t.Fatalf("rebuilt filter still answers yes for %d/1000 never-inserted values", hits)
	}
}

// TestCountMergeParallelSafe: per-partition counting composes under
// concurrency (the parallel-discovery use).
func TestCountMergeParallelSafe(t *testing.T) {
	parts := make([][]int64, 8)
	for p := range parts {
		for i := 0; i < 200; i++ {
			parts[p] = append(parts[p], int64((p+1)*1000+i))
		}
		parts[p] = append(parts[p], 42) // one global duplicate everywhere
	}
	counts := make([]map[int64]uint32, len(parts))
	var wg sync.WaitGroup
	for p := range parts {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			counts[p] = CountNUCValuesInt64(parts[p])
		}(p)
	}
	wg.Wait()
	dup := MergeNUCDuplicatesInt64(counts)
	if len(dup) != 1 {
		t.Fatalf("duplicate set = %v, want {42}", dup)
	}
	if _, ok := dup[42]; !ok {
		t.Fatal("42 missing from duplicate set")
	}
	for p := range parts {
		ps := NUCPatchSetInt64(parts[p], dup)
		if len(ps) != 1 || ps[0] != uint64(len(parts[p])-1) {
			t.Fatalf("partition %d patch set = %v", p, ps)
		}
	}
}

func ExampleNUCState() {
	st := NewNUCStateInt64([]map[int64]uint32{
		CountNUCValuesInt64([]int64{1, 2}),
		CountNUCValuesInt64([]int64{3}),
	})
	fmt.Println(st.LocalCountInt64(0, 1), st.LocalCountInt64(1, 3), st.Sealed().Len())
	// Output: 1 1 0
}

// TestAddPatchesDuplicateRowIDs: both designs tolerate duplicate rowIDs
// in one AddPatches call — the collision join emits a rowID once per
// match pair, so duplicates are a legitimate input. The identifier
// design used to double-insert them (np inflated, ids non-ascending,
// wrong AppendSel classification).
func TestAddPatchesDuplicateRowIDs(t *testing.T) {
	for _, d := range []Design{DesignBitmap, DesignIdentifier} {
		x := New(NearlyUnique, 10, nil, Options{Design: d, ShardBits: 64})
		x.AddPatches([]uint64{5, 5, 9})
		x.AddPatches([]uint64{5, 9, 9})
		if got := x.NumPatches(); got != 2 {
			t.Fatalf("%v: np = %d, want 2", d, got)
		}
		if err := x.Validate(); err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		sel := x.AppendSel(0, 10, true, nil)
		if len(sel) != 8 {
			t.Fatalf("%v: %d non-patch rows, want 8", d, len(sel))
		}
		for _, s := range sel {
			if s == 5 || s == 9 {
				t.Fatalf("%v: patch row %d classified as non-patch", d, s)
			}
		}
	}
}
