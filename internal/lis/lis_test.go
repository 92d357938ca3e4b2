package lis

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// oracleLen is an O(n^2) reference for the longest non-decreasing (or
// non-increasing) subsequence length.
func oracleLen(vals []int64, desc bool) int {
	if len(vals) == 0 {
		return 0
	}
	best := make([]int, len(vals))
	out := 0
	for i := range vals {
		best[i] = 1
		for j := 0; j < i; j++ {
			ok := vals[j] <= vals[i]
			if desc {
				ok = vals[j] >= vals[i]
			}
			if ok && best[j]+1 > best[i] {
				best[i] = best[j] + 1
			}
		}
		if best[i] > out {
			out = best[i]
		}
	}
	return out
}

func TestLongestKnownCases(t *testing.T) {
	cases := []struct {
		vals []int64
		desc bool
		want int
	}{
		{nil, false, 0},
		{[]int64{5}, false, 1},
		{[]int64{1, 2, 3, 4}, false, 4},
		{[]int64{4, 3, 2, 1}, false, 1},
		{[]int64{4, 3, 2, 1}, true, 4},
		{[]int64{1, 2, 10, 3, 4}, false, 4},        // the paper's insert example shape
		{[]int64{3, 3, 3}, false, 3},               // non-decreasing keeps duplicates
		{[]int64{1, 3, 2, 3, 5, 4, 6}, false, 5},   // 1,2,3,5,6 or 1,3,3,5,6
		{[]int64{10, 1, 2, 3, 11, 4, 5}, false, 5}, // 1,2,3,4,5
	}
	for i, c := range cases {
		got := Longest(c.vals, c.desc)
		if len(got) != c.want {
			t.Fatalf("case %d: len = %d, want %d (subseq %v)", i, len(got), c.want, got)
		}
		if ll := LongestLen(c.vals, c.desc); ll != c.want {
			t.Fatalf("case %d: LongestLen = %d, want %d", i, ll, c.want)
		}
		// Returned indexes must be ascending and the values sorted.
		for j := 1; j < len(got); j++ {
			if got[j] <= got[j-1] {
				t.Fatalf("case %d: indexes not ascending: %v", i, got)
			}
			a, b := c.vals[got[j-1]], c.vals[got[j]]
			if !c.desc && a > b || c.desc && a < b {
				t.Fatalf("case %d: subsequence not sorted: %v", i, got)
			}
		}
	}
}

func TestQuickLongestMatchesOracle(t *testing.T) {
	f := func(seed int64, descRaw bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(20))
		}
		got := Longest(vals, descRaw)
		return len(got) == oracleLen(vals, descRaw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLongestOnNearlySorted(t *testing.T) {
	// A sorted sequence with k random corruptions must keep an LIS of at
	// least n-k.
	rng := rand.New(rand.NewSource(9))
	const n, k = 5000, 100
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	for i := 0; i < k; i++ {
		vals[rng.Intn(n)] = int64(rng.Intn(n))
	}
	got := Longest(vals, false)
	if len(got) < n-k {
		t.Fatalf("LIS of nearly sorted = %d, want >= %d", len(got), n-k)
	}
}

func TestComplement(t *testing.T) {
	sub := []int{0, 2, 4}
	got := Complement(6, sub)
	want := []int{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("Complement = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Complement = %v, want %v", got, want)
		}
	}
	if got := Complement(3, nil); len(got) != 3 {
		t.Fatalf("Complement(3, nil) = %v", got)
	}
	if got := Complement(0, nil); len(got) != 0 {
		t.Fatalf("Complement(0, nil) = %v", got)
	}
}

func TestLongestPlusComplementPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	vals := make([]int64, 500)
	for i := range vals {
		vals[i] = rng.Int63n(100)
	}
	sub := Longest(vals, false)
	comp := Complement(len(vals), sub)
	if len(sub)+len(comp) != len(vals) {
		t.Fatalf("partition sizes %d + %d != %d", len(sub), len(comp), len(vals))
	}
	all := append(append([]int{}, sub...), comp...)
	sort.Ints(all)
	for i, x := range all {
		if x != i {
			t.Fatal("subsequence and complement do not partition the indexes")
		}
	}
}

// TestDescendingAtMinInt64: a descending order must not negate values,
// which overflows at MinInt64 and ranks it above every other value.
func TestDescendingAtMinInt64(t *testing.T) {
	vals := []int64{math.MinInt64, 5, 4}
	if got := LongestLen(vals, true); got != 2 {
		t.Fatalf("LongestLen = %d, want 2", got)
	}
	got := Longest(vals, true)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Longest = %v, want [1 2]", got)
	}
	vals = []int64{math.MaxInt64, 0, math.MinInt64, math.MinInt64}
	if got := LongestLen(vals, true); got != 4 {
		t.Fatalf("LongestLen(%v) = %d, want 4", vals, got)
	}
}
