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
		got := GlobalNUCPatches(parts)
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

// allHeld is a held set naming all nparts partitions.
func allHeld(nparts int) []bool {
	held := make([]bool, nparts)
	for p := range held {
		held[p] = true
	}
	return held
}

// TestNUCStateClassification: the directory's lookup (Reserve) reports
// exactly the partitions that count a value — held ones as hits, the
// others as missing without recording anything — skips sealed values,
// and keeps exact counts through reserve, withdraw and seal.
func TestNUCStateClassification(t *testing.T) {
	// Partition 0: 1,2,3. Partition 1: 3,4. Value 3 is a global
	// duplicate, so it must be sealed at construction.
	st := NewNUCState([][]int64{{1, 2, 3}, {3, 4}})
	if !st.Sealed().Contains(3) {
		t.Fatal("cross-partition duplicate 3 not sealed at construction")
	}
	if st.Sealed().Contains(1) {
		t.Fatal("unique value 1 sealed")
	}
	if got := st.Count(0, 1); got != 1 {
		t.Fatalf("count of 1 in partition 0 = %d", got)
	}
	if got := st.Count(1, 1); got != 0 {
		t.Fatalf("count of 1 in partition 1 = %d", got)
	}
	if got := st.Count(0, 3) + st.Count(1, 3); got != 2 {
		t.Fatalf("global count of 3 = %d", got)
	}

	// 4 lives only in partition 1: a writer holding only partition 0
	// must look again with partition 1 held, and records nothing yet.
	type hit struct{ i, q int }
	var hits []hit
	record := func(i, q int) { hits = append(hits, hit{i, q}) }
	if _, missing := st.Reserve(0, []int64{5, 4, 3}, []bool{true, false}, record); len(missing) != 1 || missing[0] != 1 {
		t.Fatalf("missing = %v, want [1]", missing)
	}
	if len(hits) != 0 || st.Count(0, 5) != 0 || st.Count(0, 4) != 0 {
		t.Fatalf("a missed lookup recorded something: hits %v, counts %d %d", hits, st.Count(0, 5), st.Count(0, 4))
	}
	// With partition 1 held, 4 is a hit there; sealed 3 is skipped; the
	// values are recorded in partition 0.
	sealed, missing := st.Reserve(0, []int64{5, 4, 3}, allHeld(2), record)
	if missing != nil || !sealed.Contains(3) {
		t.Fatalf("missing = %v, sealed 3 = %v", missing, sealed.Contains(3))
	}
	if len(hits) != 1 || hits[0] != (hit{1, 1}) {
		t.Fatalf("hits = %v, want [{1 1}]", hits)
	}
	for _, v := range []int64{5, 4, 3} {
		if got := st.Count(0, v); got != map[int64]uint32{5: 1, 4: 1, 3: 2}[v] {
			t.Fatalf("count of %d in partition 0 = %d after the reservation", v, got)
		}
	}

	// Withdrawing a reservation (or deleting the rows) restores the
	// counts exactly.
	st.Remove(0, []int64{5, 4, 3})
	if st.Count(0, 5) != 0 || st.Count(0, 4) != 0 || st.Count(0, 3) != 1 {
		t.Fatalf("counts after Remove: %d %d %d", st.Count(0, 5), st.Count(0, 4), st.Count(0, 3))
	}

	// Sealing is copy-on-write: an old snapshot never changes.
	old := st.Sealed()
	st.Seal([]int64{7})
	if old.Contains(7) {
		t.Fatal("sealed snapshot mutated in place")
	}
	if !st.Sealed().Contains(7) {
		t.Fatal("new duplicate not sealed")
	}
}

// TestNUCStateStringHashing: the string directory keys by the exact
// string — lookups, counts and the sealed set agree with the int64 one.
func TestNUCStateStringHashing(t *testing.T) {
	st := NewNUCState([][]string{{"a", "b"}, {"b", "c"}})
	if !st.Sealed().Contains("b") {
		t.Fatal("cross-partition duplicate not sealed")
	}
	var hitQ []int
	if _, missing := st.Reserve(0, []string{"c", "cc"}, allHeld(2), func(_, q int) { hitQ = append(hitQ, q) }); missing != nil {
		t.Fatalf("missing = %v with every partition held", missing)
	}
	if len(hitQ) != 1 || hitQ[0] != 1 {
		t.Fatalf("hits = %v, want partition 1 for \"c\" only", hitQ)
	}
	if got := st.Count(1, "c") + st.Count(0, "c"); got != 2 {
		t.Fatalf("count of c = %d", got)
	}
	if got := st.Patches(0, []string{"a", "b", "c", "cc"}); len(got) != 1 || got[0] != 1 {
		t.Fatalf("partition 0 patches = %v, want [1] (sealed b)", got)
	}
	st.Seal([]string{"z"})
	if !st.Sealed().Contains("z") {
		t.Fatal("string seal failed")
	}
}

// TestNUCStateReservationsRace: writers reserving the same fresh values
// into different partitions, each holding only its own, race on the
// directory mutex. For every value exactly one of them sees the other —
// the first records, the second is told to take the first's partition —
// and after the second looks again with both held, each partition counts
// the value exactly once.
func TestNUCStateReservationsRace(t *testing.T) {
	const values = 2000
	st := NewNUCState(make([][]int64, 2))
	saw := make([][]bool, 2) // saw[w][v]: writer w was sent to the other partition
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		saw[w] = make([]bool, values)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := []bool{w == 0, w == 1}
			for v := 0; v < values; v++ {
				vals := []int64{int64(v)}
				if _, missing := st.Reserve(w, vals, own, func(int, int) {}); missing != nil {
					saw[w][v] = true
					hits := 0
					if _, again := st.Reserve(w, vals, allHeld(2), func(int, int) { hits++ }); again != nil || hits != 1 {
						t.Errorf("writer %d value %d: second lookup missing %v with %d hits", w, v, again, hits)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for v := 0; v < values; v++ {
		if saw[0][v] == saw[1][v] {
			t.Fatalf("value %d: writer 0 saw the other %v, writer 1 %v; want exactly one", v, saw[0][v], saw[1][v])
		}
		if c0, c1 := st.Count(0, int64(v)), st.Count(1, int64(v)); c0 != 1 || c1 != 1 {
			t.Fatalf("value %d counted %d/%d, want 1/1", v, c0, c1)
		}
	}
}

// TestNUCStateSealedReadersRaceFree: lock-free Sealed() readers race
// copy-on-write sealers without the race detector firing, and every
// reader observes a monotonically growing set.
func TestNUCStateSealedReadersRaceFree(t *testing.T) {
	st := NewNUCState(make([][]int64, 2))
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
		st.Seal([]int64{int64(i)})
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
		var seal func(vals []int64)
		var capture func() *snapshot
		if str {
			st := NewNUCState([][]string{{"s-1", "s-1"}})
			name := func(v int64) string { return fmt.Sprintf("s%d", v) }
			seal = func(vals []int64) {
				strs := make([]string, len(vals))
				for i, v := range vals {
					strs[i] = name(v)
				}
				st.Seal(strs)
			}
			capture = func() *snapshot {
				e := st.Sealed()
				return &snapshot{func(v int64) bool { return e.Contains(name(v)) }, e.Len(), levelSizes(e)}
			}
		} else {
			st := NewNUCState([][]int64{{-1, -1}})
			seal = st.Seal
			capture = func() *snapshot {
				e := st.Sealed()
				return &snapshot{e.Contains, e.Len(), levelSizes(e)}
			}
		}

		const sealers, batches, domain = 4, 300, 5000
		type held struct {
			snap *snapshot
			has  []bool // snap.contains(v) for v < probe, when taken
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
						h := held{snap: capture(), has: make([]bool, probe)}
						for v := range h.has {
							h.has[v] = h.snap.contains(int64(v))
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
		final := capture()
		for v := int64(0); v < domain; v++ {
			if final.contains(v) != want[v] {
				t.Fatalf("string=%v: value %d sealed=%v, want %v", str, v, final.contains(v), want[v])
			}
		}
		if got := final.len; got != len(want)+1 { // +1: the discovery-time duplicate
			t.Fatalf("string=%v: Len = %d, want %d", str, got, len(want)+1)
		}
		for _, hs := range snaps {
			for _, h := range hs {
				for v := range h.has {
					if h.snap.contains(int64(v)) != h.has[v] {
						t.Fatalf("string=%v: an old snapshot changed its answer for %d", str, v)
					}
				}
			}
		}
		sizes := final.sizes
		for i := 1; i < len(sizes); i++ {
			if sizes[i-1] < sealMergeFactor*sizes[i] {
				t.Fatalf("string=%v: level sizes %v are not geometric", str, sizes)
			}
		}
	}
}

// snapshot is a kind-erased view of one NUCExceptions snapshot, so the
// overlay property runs over int64 and string sets alike.
type snapshot struct {
	contains func(v int64) bool
	len      int
	sizes    []int
}

// levelSizes lists the sizes of e's levels, largest first.
func levelSizes[T int64 | string](e *NUCExceptions[T]) []int {
	sizes := make([]int, len(e.levels))
	for i, m := range e.levels {
		sizes[i] = len(m)
	}
	return sizes
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
			counts[p] = CountNUCValues(parts[p])
		}(p)
	}
	wg.Wait()
	dup := MergeNUCDuplicates(counts)
	if len(dup) != 1 {
		t.Fatalf("duplicate set = %v, want {42}", dup)
	}
	if _, ok := dup[42]; !ok {
		t.Fatal("42 missing from duplicate set")
	}
	for p := range parts {
		ps := NUCPatchSet(parts[p], dup)
		if len(ps) != 1 || ps[0] != uint64(len(parts[p])-1) {
			t.Fatalf("partition %d patch set = %v", p, ps)
		}
	}
}

func ExampleNUCState() {
	st := NewNUCState([][]int64{{1, 2}, {3}})
	fmt.Println(st.Count(0, 1), st.Count(1, 3), st.Sealed().Len())
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
