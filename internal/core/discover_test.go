package core

import (
	"math/rand"
	"testing"
)

func TestDiscoverNUCInt64AllOccurrences(t *testing.T) {
	vals := []int64{1, 2, 3, 2, 4, 1, 5}
	got := DiscoverNUCInt64(vals)
	// Values 1 and 2 are duplicated; all their occurrences are patches.
	want := []uint64{0, 1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("patches = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("patches = %v, want %v", got, want)
		}
	}
}

func TestDiscoverNUCUniqueColumn(t *testing.T) {
	vals := []int64{5, 1, 9, 2}
	if got := DiscoverNUCInt64(vals); len(got) != 0 {
		t.Fatalf("unique column produced patches: %v", got)
	}
}

// TestDiscoverNUCString: string columns go through the generic
// discovery pieces; a duplicate split across partitions patches every
// occurrence in each.
func TestDiscoverNUCString(t *testing.T) {
	got := GlobalNUCPatches([][]string{{"a", "b", "a", "c"}})
	if len(got[0]) != 2 || got[0][0] != 0 || got[0][1] != 2 {
		t.Fatalf("patches = %v", got)
	}
	got = GlobalNUCPatches([][]string{{"a", "b"}, {"c", "b"}})
	if len(got[0]) != 1 || got[0][0] != 1 || len(got[1]) != 1 || got[1][0] != 1 {
		t.Fatalf("cross-partition patches = %v", got)
	}
}

// TestNUCInvariant: excluding the patches must leave strictly unique
// values, and every non-patch value must not collide with any patch
// value (the all-occurrences property that makes the distinct plan
// correct).
func TestNUCInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 20; trial++ {
		n := 100 + rng.Intn(400)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(int64(n / 2))
		}
		patches := DiscoverNUCInt64(vals)
		isPatch := map[uint64]bool{}
		for _, p := range patches {
			isPatch[p] = true
		}
		seen := map[int64]bool{}
		for i, v := range vals {
			if isPatch[uint64(i)] {
				continue
			}
			if seen[v] {
				t.Fatalf("trial %d: non-patch duplicate value %d", trial, v)
			}
			seen[v] = true
		}
		for i, v := range vals {
			if isPatch[uint64(i)] && seen[v] {
				t.Fatalf("trial %d: patch value %d also appears among non-patches", trial, v)
			}
		}
	}
}

func TestDiscoverNSC(t *testing.T) {
	vals := []int64{1, 2, 99, 3, 4}
	patches, last, ok := DiscoverNSC(vals, false)
	if !ok || last != 4 {
		t.Fatalf("last = %d ok=%v, want 4", last, ok)
	}
	if len(patches) != 1 || patches[0] != 2 {
		t.Fatalf("patches = %v, want [2]", patches)
	}
}

func TestDiscoverNSCDescending(t *testing.T) {
	vals := []int64{9, 8, 1, 7, 6}
	patches, last, ok := DiscoverNSC(vals, true)
	if !ok || last != 6 {
		t.Fatalf("last = %d, want 6", last)
	}
	if len(patches) != 1 || patches[0] != 2 {
		t.Fatalf("patches = %v, want [2]", patches)
	}
}

// TestNSCInvariant: excluding the patches must leave a sorted sequence.
func TestNSCInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		n := 100 + rng.Intn(400)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(i)
		}
		for k := 0; k < n/5; k++ {
			vals[rng.Intn(n)] = rng.Int63n(int64(n))
		}
		patches, _, _ := DiscoverNSC(vals, false)
		isPatch := map[uint64]bool{}
		for _, p := range patches {
			isPatch[p] = true
		}
		var prev int64 = -1 << 62
		for i, v := range vals {
			if isPatch[uint64(i)] {
				continue
			}
			if v < prev {
				t.Fatalf("trial %d: non-patches not sorted at %d", trial, i)
			}
			prev = v
		}
	}
}

func TestBuildHelpers(t *testing.T) {
	vals := []int64{1, 1, 2, 3}
	x := BuildNUCInt64(vals, Options{Design: DesignBitmap, ShardBits: 64})
	if x.NumPatches() != 2 || x.Rows() != 4 {
		t.Fatalf("BuildNUCInt64: patches=%d rows=%d", x.NumPatches(), x.Rows())
	}
	n := BuildNSC([]int64{1, 9, 2, 3}, Options{Design: DesignBitmap, ShardBits: 64})
	if n.NumPatches() != 1 {
		t.Fatalf("BuildNSC: patches=%d", n.NumPatches())
	}
	if lv, ok := n.LastSortedValue(); !ok || lv != 3 {
		t.Fatalf("BuildNSC last = %d %v", lv, ok)
	}
}

func TestMatchRates(t *testing.T) {
	if got := MatchRateNUC([]int64{1, 2, 3, 4}); got != 1 {
		t.Fatalf("MatchRateNUC unique = %f", got)
	}
	if got := MatchRateNUC([]int64{1, 1, 2, 2}); got != 0 {
		t.Fatalf("MatchRateNUC all-dup = %f", got)
	}
	if got := MatchRateNSC([]int64{1, 2, 3, 4}); got != 1 {
		t.Fatalf("MatchRateNSC sorted = %f", got)
	}
	if got := MatchRateNSC([]int64{1, 9, 2, 3}); got != 0.75 {
		t.Fatalf("MatchRateNSC = %f, want 0.75", got)
	}
	if MatchRateNUC(nil) != 1 || MatchRateNSC(nil) != 1 {
		t.Fatal("empty column match rates should be 1")
	}
}

func TestRecompute(t *testing.T) {
	vals := []int64{1, 1, 2, 3}
	x := BuildNUCInt64(vals, Options{Design: DesignIdentifier})
	// Simulate erosion: everything became a patch.
	x.AddPatches([]uint64{2, 3})
	if got := x.ExceptionRate(); got != 1 {
		t.Fatalf("eroded exception rate = %f, want 1", got)
	}
}
