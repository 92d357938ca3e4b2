package core

import (
	"bytes"
	"math/rand"
	"testing"
)

var bothDesigns = []Design{DesignBitmap, DesignIdentifier}

func optsFor(d Design) Options {
	return Options{Design: d, ShardBits: 64} // tiny shards exercise sharding logic
}

func TestNewAndBasicAccessors(t *testing.T) {
	for _, d := range bothDesigns {
		x := New(NearlyUnique, 100, []uint64{3, 7, 50}, optsFor(d))
		if x.Rows() != 100 || x.NumPatches() != 3 {
			t.Fatalf("%v: rows=%d patches=%d", d, x.Rows(), x.NumPatches())
		}
		if got := x.ExceptionRate(); got != 0.03 {
			t.Fatalf("%v: e = %f, want 0.03", d, got)
		}
		for _, p := range []uint64{3, 7, 50} {
			if !x.IsPatch(p) {
				t.Fatalf("%v: %d should be a patch", d, p)
			}
		}
		if x.IsPatch(4) || x.IsPatch(99) {
			t.Fatalf("%v: false positive", d)
		}
		got := x.Patches()
		if len(got) != 3 || got[0] != 3 || got[1] != 7 || got[2] != 50 {
			t.Fatalf("%v: Patches = %v", d, got)
		}
		if err := x.Validate(); err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if x.ConstraintKind() != NearlyUnique || x.DesignKind() != d {
			t.Fatalf("%v: kind accessors broken", d)
		}
	}
}

func TestDesignAndConstraintNames(t *testing.T) {
	if DesignBitmap.String() != "PI_bitmap" || DesignIdentifier.String() != "PI_identifier" {
		t.Fatal("Design names wrong")
	}
	if NearlyUnique.String() != "NUC" || NearlySorted.String() != "NSC" {
		t.Fatal("Constraint names wrong")
	}
}

func TestAddPatchesDedup(t *testing.T) {
	for _, d := range bothDesigns {
		x := New(NearlyUnique, 50, []uint64{10, 20}, optsFor(d))
		x.AddPatches([]uint64{5, 10, 30})
		if x.NumPatches() != 4 {
			t.Fatalf("%v: patches = %d, want 4", d, x.NumPatches())
		}
		want := []uint64{5, 10, 20, 30}
		got := x.Patches()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: Patches = %v, want %v", d, got, want)
			}
		}
		if err := x.Validate(); err != nil {
			t.Fatalf("%v: %v", d, err)
		}
	}
}

func TestExtendThenAddPatches(t *testing.T) {
	for _, d := range bothDesigns {
		x := New(NearlyUnique, 100, []uint64{1}, optsFor(d))
		x.Extend(50)
		if x.Rows() != 150 {
			t.Fatalf("%v: rows = %d", d, x.Rows())
		}
		x.AddPatches([]uint64{120, 149})
		if !x.IsPatch(120) || !x.IsPatch(149) || x.IsPatch(100) {
			t.Fatalf("%v: patch membership after extend wrong", d)
		}
		if err := x.Validate(); err != nil {
			t.Fatalf("%v: %v", d, err)
		}
	}
}

func TestHandleDeleteShiftsRowIDs(t *testing.T) {
	for _, d := range bothDesigns {
		// Patches at 5, 10, 20. Delete rows 3, 10, 15:
		//  - patch 5  -> one deleted row below -> 4
		//  - patch 10 -> deleted with its tuple -> gone
		//  - patch 20 -> three deleted rows below? 3,10,15 -> 20-3 = 17
		x := New(NearlyUnique, 30, []uint64{5, 10, 20}, optsFor(d))
		x.HandleDelete([]uint64{3, 10, 15})
		if x.Rows() != 27 {
			t.Fatalf("%v: rows = %d, want 27", d, x.Rows())
		}
		if x.NumPatches() != 2 {
			t.Fatalf("%v: patches = %d, want 2 (%v)", d, x.NumPatches(), x.Patches())
		}
		want := []uint64{4, 17}
		got := x.Patches()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: Patches = %v, want %v", d, got, want)
			}
		}
		if err := x.Validate(); err != nil {
			t.Fatalf("%v: %v", d, err)
		}
	}
}

func TestHandleDeleteBothDesignsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 500 + rng.Intn(500)
		var patches []uint64
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.3 {
				patches = append(patches, uint64(i))
			}
		}
		a := New(NearlyUnique, uint64(n), patches, optsFor(DesignBitmap))
		b := New(NearlyUnique, uint64(n), patches, optsFor(DesignIdentifier))
		for round := 0; round < 5; round++ {
			k := 1 + rng.Intn(20)
			del := samplePositions(rng, int(a.Rows()), k)
			a.HandleDelete(del)
			b.HandleDelete(del)
		}
		pa, pb := a.Patches(), b.Patches()
		if len(pa) != len(pb) {
			t.Fatalf("trial %d: designs disagree: %d vs %d patches", trial, len(pa), len(pb))
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("trial %d: designs disagree at %d: %d vs %d", trial, i, pa[i], pb[i])
			}
		}
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := b.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNeedsRecompute(t *testing.T) {
	opts := optsFor(DesignBitmap)
	opts.RecomputeThreshold = 0.5
	x := New(NearlyUnique, 10, []uint64{0, 1, 2}, opts)
	if x.NeedsRecompute() {
		t.Fatal("e=0.3 should not trip a 0.5 threshold")
	}
	x.AddPatches([]uint64{3, 4, 5})
	if !x.NeedsRecompute() {
		t.Fatal("e=0.6 should trip a 0.5 threshold")
	}
	// Disabled monitor never trips.
	y := New(NearlyUnique, 10, []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, optsFor(DesignBitmap))
	if y.NeedsRecompute() {
		t.Fatal("disabled monitor tripped")
	}
}

func TestMemoryBytesTable3(t *testing.T) {
	// Table 3: bitmap memory is constant in e; identifier memory is
	// 8 bytes per patch; crossover at e ~ 1/64.
	const rows = 1 << 20
	shard := uint64(1 << 14)
	few := New(NearlyUnique, rows, []uint64{1, 2, 3}, Options{Design: DesignBitmap, ShardBits: shard})
	manyPatches := make([]uint64, rows/5)
	for i := range manyPatches {
		manyPatches[i] = uint64(i * 5)
	}
	many := New(NearlyUnique, rows, manyPatches, Options{Design: DesignBitmap, ShardBits: shard})
	if few.MemoryBytes() != many.MemoryBytes() {
		t.Fatalf("bitmap memory not constant: %d vs %d", few.MemoryBytes(), many.MemoryBytes())
	}
	wantBase := uint64(rows / 8)
	if m := few.MemoryBytes(); m < wantBase || float64(m) > float64(wantBase)*1.01 {
		t.Fatalf("bitmap memory = %d, want ~%d (+0.39%%)", m, wantBase)
	}
	id := New(NearlyUnique, rows, manyPatches, Options{Design: DesignIdentifier})
	if got, want := id.MemoryBytes(), uint64(len(manyPatches)*8); got != want {
		t.Fatalf("identifier memory = %d, want %d", got, want)
	}
	// Crossover: at e = 1/64 both designs cost rows/8 bytes (modulo the
	// sharding overhead).
	crossPatches := make([]uint64, rows/64)
	for i := range crossPatches {
		crossPatches[i] = uint64(i * 64)
	}
	idCross := New(NearlyUnique, rows, crossPatches, Options{Design: DesignIdentifier})
	ratio := float64(idCross.MemoryBytes()) / float64(few.MemoryBytes())
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("crossover ratio = %f, want ~1", ratio)
	}
}

func TestCondenseThresholdAutoCondense(t *testing.T) {
	cases := []struct {
		name      string
		threshold float64
		deleted   int // of 1000 rows
		condensed bool
	}{
		{"explicit 0.9, 80% live", 0.9, 200, true},
		{"default (zero), 80% live", 0, 200, false},
		{"default (zero), 40% live", 0, 600, true},
		{"negative disables, 40% live", -1, 600, false},
	}
	for _, c := range cases {
		x := New(NearlyUnique, 1000, []uint64{999}, Options{Design: DesignBitmap, ShardBits: 64, CondenseThreshold: c.threshold})
		del := make([]uint64, c.deleted)
		for i := range del {
			del[i] = uint64(i)
		}
		x.HandleDelete(del)
		if got := x.Utilization() > 0.85; got != c.condensed { // a condensed bitmap still rounds up to whole shards
			t.Fatalf("%s: utilization %f after the delete, condensed=%v want %v", c.name, x.Utilization(), got, c.condensed)
		}
		if !x.IsPatch(uint64(999 - c.deleted)) {
			t.Fatalf("%s: the patch did not follow its row", c.name)
		}
		if err := x.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}

func TestCheckpointRoundtrip(t *testing.T) {
	for _, d := range bothDesigns {
		x := New(NearlySorted, 500, []uint64{1, 99, 400}, Options{Design: d, ShardBits: 128, Descending: true})
		x.SetLastSortedValue(-42)
		var buf bytes.Buffer
		if _, err := x.WriteTo(&buf); err != nil {
			t.Fatalf("%v: WriteTo: %v", d, err)
		}
		var y Index
		if _, err := y.ReadFrom(&buf); err != nil {
			t.Fatalf("%v: ReadFrom: %v", d, err)
		}
		if y.Rows() != 500 || y.NumPatches() != 3 || y.ConstraintKind() != NearlySorted {
			t.Fatalf("%v: roundtrip lost state", d)
		}
		if !y.Descending() {
			t.Fatalf("%v: descending flag lost", d)
		}
		if lv, ok := y.LastSortedValue(); !ok || lv != -42 {
			t.Fatalf("%v: last sorted value lost: %d %v", d, lv, ok)
		}
		for _, p := range []uint64{1, 99, 400} {
			if !y.IsPatch(p) {
				t.Fatalf("%v: patch %d lost", d, p)
			}
		}
		// Restored index must support updates.
		y.Extend(10)
		y.AddPatches([]uint64{505})
		y.HandleDelete([]uint64{0})
		if err := y.Validate(); err != nil {
			t.Fatalf("%v: %v", d, err)
		}
	}
}

func TestCheckpointBadMagic(t *testing.T) {
	var y Index
	if _, err := y.ReadFrom(bytes.NewReader(make([]byte, 56))); err == nil {
		t.Fatal("ReadFrom accepted bad magic")
	}
}

func samplePositions(rng *rand.Rand, n, k int) []uint64 {
	if k > n {
		k = n
	}
	perm := rng.Perm(n)[:k]
	out := make([]uint64, k)
	for i, p := range perm {
		out[i] = uint64(p)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func TestCloneIndependence(t *testing.T) {
	for _, d := range bothDesigns {
		x := New(NearlyUnique, 100, []uint64{3, 7, 50}, optsFor(d))
		c := x.Clone()
		// Mutating the clone must not leak into the original, and vice
		// versa — the snapshot layer depends on this.
		c.Extend(28)
		c.AddPatches([]uint64{10, 20, 110})
		x.HandleDelete([]uint64{3, 4})
		if x.Rows() != 98 || x.NumPatches() != 2 {
			t.Fatalf("%v: original rows=%d patches=%d, want 98/2", d, x.Rows(), x.NumPatches())
		}
		if c.Rows() != 128 || c.NumPatches() != 6 {
			t.Fatalf("%v: clone rows=%d patches=%d, want 128/6", d, c.Rows(), c.NumPatches())
		}
		if x.IsPatch(10) {
			t.Fatalf("%v: clone patch leaked into original", d)
		}
		if !c.IsPatch(3) || !c.IsPatch(110) {
			t.Fatalf("%v: clone lost patches", d)
		}
		if err := x.Validate(); err != nil {
			t.Fatalf("%v original: %v", d, err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%v clone: %v", d, err)
		}
	}
}
