package plan

import (
	"math"
	"sync"
)

// Access path chooser. The cost formulas in cost.go price the individual
// plan shapes; this file turns them into a decision layer the query
// compiler (internal/query) drives per plan node, fed by live statistics:
// partition row counts and patch counts from the captured snapshot
// (engine.Table.PartitionIndexStats exposes the same numbers outside a
// snapshot), dimension-side cardinality estimates, and runtime feedback
// correcting those estimates between queries.

// Access identifies the physical access path chosen for a plan node.
type Access int

const (
	// AccessReference is the unoptimized plan: full scans and hash
	// operators only.
	AccessReference Access = iota
	// AccessPatchIndex is the paper's split plan: exclude_patches /
	// use_patches streams recombined (Section 3.3).
	AccessPatchIndex
	// AccessJoinIndex resolves a join through a precomputed rowID
	// mapping (internal/joinindex) instead of evaluating it.
	AccessJoinIndex
)

func (a Access) String() string {
	switch a {
	case AccessPatchIndex:
		return "patchindex"
	case AccessJoinIndex:
		return "joinindex"
	default:
		return "reference"
	}
}

// costGatherTuple is the per-tuple weight of resolving a join through a
// joinindex: a positional gather per fact row, no hashing and no dim
// subtree evaluation. Cheaper than a hash probe, pricier than a scan.
const costGatherTuple = 3.0

// CostJoinIndex estimates resolving a fact ⋈ dim join of factRows
// through a precomputed joinindex.
func CostJoinIndex(factRows uint64) float64 {
	return float64(factRows) * (costScanTuple + costGatherTuple)
}

// JoinCosts reports the estimated cost of each candidate join access
// path; unavailable paths are +Inf.
type JoinCosts struct {
	Reference  float64
	PatchIndex float64
	JoinIndex  float64
}

// ChooseJoin picks the cheapest access path for a fact ⋈ dim join.
// havePatch means the fact join key carries a NSC PatchIndex; haveJI
// means a joinindex covers exactly this join. Ties go to the earlier
// candidate in (reference, patchindex, joinindex) order, keeping the
// decision deterministic.
func ChooseJoin(factRows, patches, dimRows uint64, havePatch, haveJI bool) (Access, JoinCosts) {
	c := JoinCosts{
		Reference:  CostJoinReference(factRows, dimRows),
		PatchIndex: math.Inf(1),
		JoinIndex:  math.Inf(1),
	}
	if havePatch {
		c.PatchIndex = CostJoinPatch(factRows, patches, dimRows)
	}
	if haveJI {
		c.JoinIndex = CostJoinIndex(factRows)
	}
	best := AccessReference
	bestCost := c.Reference
	if c.PatchIndex < bestCost {
		best, bestCost = AccessPatchIndex, c.PatchIndex
	}
	if c.JoinIndex < bestCost {
		best = AccessJoinIndex
	}
	return best, c
}

// ChooseDistinct picks the access path for DISTINCT over an indexed
// column (joinindex does not apply).
func ChooseDistinct(rows, patches uint64, havePatch bool) Access {
	if havePatch && UsePatchIndexForDistinct(rows, patches) {
		return AccessPatchIndex
	}
	return AccessReference
}

// ChooseSort picks the access path for ORDER BY over an indexed column.
func ChooseSort(rows, patches uint64, havePatch bool) Access {
	if havePatch && UsePatchIndexForSort(rows, patches) {
		return AccessPatchIndex
	}
	return AccessReference
}

// Chooser carries runtime cardinality feedback across queries: the
// compiler estimates an operator's output rows, execution meters the
// actual count, and Observe folds the ratio into an EWMA correction
// factor keyed by the operator's fingerprint. Subsequent compilations of
// the same (or a structurally identical) subtree get their estimates
// rescaled by Adjust, biasing access-path choices toward observed
// reality. Safe for concurrent use; zero value is NOT usable, call
// NewChooser.
type Chooser struct {
	mu     sync.Mutex // guards factor; lock-rank: none leaf lock, no rank interactions
	factor map[string]float64
}

// NewChooser returns an empty feedback store.
func NewChooser() *Chooser {
	return &Chooser{factor: make(map[string]float64)}
}

// feedbackAlpha is the EWMA weight of the newest observation.
const feedbackAlpha = 0.5

// Observe records that the subtree identified by key was estimated to
// produce est rows and actually produced actual.
func (c *Chooser) Observe(key string, est, actual uint64) {
	if c == nil {
		return
	}
	if est == 0 {
		est = 1
	}
	ratio := float64(actual) / float64(est)
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.factor[key]; ok {
		c.factor[key] = f*(1-feedbackAlpha) + ratio*feedbackAlpha
	} else {
		c.factor[key] = ratio
	}
}

// Adjust rescales a fresh estimate for key by the learned correction
// factor. Unknown keys (and a nil Chooser) pass est through unchanged.
func (c *Chooser) Adjust(key string, est uint64) uint64 {
	if c == nil {
		return est
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.factor[key]
	if !ok {
		return est
	}
	adjusted := float64(est) * f
	if adjusted < 0 {
		return 0
	}
	return uint64(adjusted + 0.5)
}

// Factor reports the learned correction factor for key (1 when none).
func (c *Chooser) Factor(key string) float64 {
	if c == nil {
		return 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.factor[key]; ok {
		return f
	}
	return 1
}
