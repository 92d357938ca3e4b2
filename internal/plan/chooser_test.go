package plan

import (
	"math"
	"testing"
)

// TestChooseJoin pins the decision layer: unavailable paths price at
// +Inf, the break-even between reference and patch plans sits where the
// cost formulas cross, and a covering joinindex undercuts both on a
// large enough fact side.
func TestChooseJoin(t *testing.T) {
	// No apparatus at all: reference, with both alternatives +Inf.
	access, costs := ChooseJoin(400, 5, 20, false, false)
	if access != AccessReference {
		t.Fatalf("no apparatus chose %v", access)
	}
	if !math.IsInf(costs.PatchIndex, 1) || !math.IsInf(costs.JoinIndex, 1) {
		t.Fatalf("unavailable paths not +Inf: %+v", costs)
	}

	// f=400, d=20: reference = 400*11 + 20*10 = 4600;
	// patch = 400*1.6 + (400-p)*1.5 + 20*1.5 + p*10 + 200 + 2000,
	// crossing reference at p ≈ 133.
	if access, _ := ChooseJoin(400, 5, 20, true, false); access != AccessPatchIndex {
		t.Fatalf("low-exception join chose %v, want patchindex", access)
	}
	if access, _ := ChooseJoin(400, 250, 20, true, false); access != AccessReference {
		t.Fatalf("high-exception join chose %v, want reference", access)
	}
	// The flip is exactly where the formulas cross, not a hardcoded rate.
	for p := uint64(0); p <= 400; p++ {
		access, costs := ChooseJoin(400, p, 20, true, false)
		want := AccessReference
		if costs.PatchIndex < costs.Reference {
			want = AccessPatchIndex
		}
		if access != want {
			t.Fatalf("p=%d: chose %v with costs %+v", p, access, costs)
		}
	}

	// JoinIndex = f*4, cheapest path once offered for a fact-heavy join.
	access, costs = ChooseJoin(400, 5, 20, true, true)
	if access != AccessJoinIndex {
		t.Fatalf("covered join chose %v (costs %+v), want joinindex", access, costs)
	}
	if costs.JoinIndex != 1600 {
		t.Fatalf("CostJoinIndex(400) = %v, want 1600", costs.JoinIndex)
	}

	// Ties and degenerate sizes stay deterministic: zero rows cost 0
	// everywhere, and the earlier candidate (reference) wins ties.
	if access, _ := ChooseJoin(0, 0, 0, true, true); access != AccessReference {
		t.Fatalf("empty join chose %v, want reference on tie", access)
	}
}

func TestChooseSortAndDistinct(t *testing.T) {
	if a := ChooseSort(100_000, 100, true); a != AccessPatchIndex {
		t.Fatalf("near-sorted sort chose %v", a)
	}
	if a := ChooseSort(100_000, 100_000, true); a != AccessReference {
		t.Fatalf("fully-patched sort chose %v", a)
	}
	if a := ChooseSort(100_000, 0, false); a != AccessReference {
		t.Fatalf("unindexed sort chose %v", a)
	}
	if a := ChooseDistinct(100_000, 100, true); a != AccessPatchIndex {
		t.Fatalf("near-unique distinct chose %v", a)
	}
	if a := ChooseDistinct(100_000, 100_000, true); a != AccessReference {
		t.Fatalf("fully-patched distinct chose %v", a)
	}
}

// TestChooserFeedback pins the EWMA store: first observation sets the
// factor, later ones blend at alpha=0.5, Adjust rescales estimates, and
// unknown keys (or a nil receiver) pass through untouched.
func TestChooserFeedback(t *testing.T) {
	c := NewChooser()
	if got := c.Adjust("k", 100); got != 100 {
		t.Fatalf("unknown key adjusted: %d", got)
	}
	if got := c.Factor("k"); got != 1 {
		t.Fatalf("unknown key factor = %v", got)
	}
	c.Observe("k", 100, 400)
	if got := c.Factor("k"); got != 4 {
		t.Fatalf("first observation factor = %v, want 4", got)
	}
	if got := c.Adjust("k", 100); got != 400 {
		t.Fatalf("adjusted estimate = %d, want 400", got)
	}
	c.Observe("k", 100, 200) // blend: 4*0.5 + 2*0.5 = 3
	if got := c.Factor("k"); got != 3 {
		t.Fatalf("blended factor = %v, want 3", got)
	}
	// Zero estimates are clamped to 1 before the ratio.
	c.Observe("z", 0, 5)
	if got := c.Factor("z"); got != 5 {
		t.Fatalf("zero-estimate factor = %v, want 5", got)
	}
	// Keys are independent.
	if got := c.Adjust("other", 7); got != 7 {
		t.Fatalf("cross-key leak: %d", got)
	}
	// Nil receiver is a no-op passthrough (compilation without feedback).
	var nilC *Chooser
	nilC.Observe("k", 1, 2)
	if nilC.Adjust("k", 9) != 9 || nilC.Factor("k") != 1 {
		t.Fatal("nil Chooser not a passthrough")
	}
}
