package query

import (
	"fmt"

	"patchindex/internal/core"
	"patchindex/internal/engine"
	"patchindex/internal/exec"
	"patchindex/internal/joinindex"
	"patchindex/internal/plan"
	"patchindex/internal/storage"
)

// Mode forces or frees the optimizer's access-path choice. Forced modes
// apply wherever the respective apparatus is available and fall back to
// the generic lowering elsewhere — forcing the patch plan on a query
// whose inner dimension joins carry no index still hash-joins those
// inner joins, exactly like the hand-built plans do.
type Mode int

const (
	// Auto lets the cost model choose per node, corrected by the
	// Chooser's cardinality feedback when one is supplied.
	Auto Mode = iota
	// ForceReference always takes the unoptimized plan.
	ForceReference
	// ForcePatchIndex takes the PatchIndex plan wherever an index of the
	// right constraint kind exists. A choosable ORDER BY or DISTINCT over
	// a column that carries no PatchIndex at all is not an error: it runs
	// the reference lowering and records that as a forced Decision with
	// Access == plan.AccessReference.
	ForcePatchIndex
	// ForceJoinIndex resolves joins through a matching JoinIndexBinding;
	// non-join nodes choose as in Auto.
	ForceJoinIndex
)

// JoinIndexBinding offers a precomputed joinindex to the compiler: a
// join node whose fact spine bottoms out in a scan of FactTable joined
// on FactKey = DimKey against a dim subtree scanning DimTable can be
// resolved through JI instead of being evaluated. Refs optionally pins
// reference columns captured at snapshot time (joinindex.CaptureRefs);
// nil captures at compile time, which is only consistent if no
// maintenance ran since the snapshot was taken.
type JoinIndexBinding struct {
	FactTable, FactKey string
	DimTable, DimKey   string
	JI                 *joinindex.Index
	Refs               [][]int64
}

// Options tune compilation.
type Options struct {
	Mode Mode
	// ZeroBranchPruning drops provably empty patch subtrees (Sec. 6.3).
	ZeroBranchPruning bool
	// Parallel runs per-partition patch/reference subtrees concurrently.
	Parallel bool
	// Chooser carries cardinality feedback across queries; nil compiles
	// with uncorrected estimates and records no observations.
	Chooser *plan.Chooser
	// JoinIndexes offers precomputed joinindexes to the optimizer.
	JoinIndexes []JoinIndexBinding
}

// Decision records one access-path choice for inspection by tests and
// EXPLAIN-style output.
type Decision struct {
	// Node is the fingerprint of the plan node the choice applies to.
	Node string
	// Access is the chosen path.
	Access plan.Access
	// Forced reports a mode override (no cost comparison happened).
	Forced bool
	// FactRows/Patches/DimRows are the statistics the choice used;
	// DimRows is the feedback-corrected dimension estimate.
	FactRows, Patches, DimRows uint64
	// Costs are the candidate costs (join decisions only).
	Costs plan.JoinCosts
}

// Compiled is an executable physical plan. Root is NOT wrapped with any
// snapshot release — with CompileSnapshot the caller keeps snapshot
// ownership; Run wraps the root so its ephemeral snapshot frees itself
// when the root is drained or closed.
type Compiled struct {
	Root exec.Operator
	// Decisions lists the access-path choices made, outermost first.
	Decisions []Decision
	// Scans lists every partition scan the compiler itself created
	// (not those built inside plan.* subtrees); tests sum RowsVisited
	// to observe minmax pruning.
	Scans []*exec.Scan
}

// Close closes the root operator. For a Run result that releases the
// ephemeral snapshot; it is idempotent and harmless after a drain, so
// `defer c.Close()` is the whole lifetime discipline.
func (c *Compiled) Close() { c.Root.Close() }

// CompileSnapshot lowers the logical plan against a caller-held
// snapshot. The snapshot must stay open until the returned operator is
// drained; closing it earlier invalidates the frozen views mid-flight.
func CompileSnapshot(p *Plan, snap *engine.DatabaseSnapshot, opts Options) (*Compiled, error) {
	c := &compiler{snap: snap, opts: opts, res: &Compiled{}}
	root, err := c.compile(p.n)
	if err != nil {
		return nil, err
	}
	c.res.Root = root
	return c.res, nil
}

type compiler struct {
	snap *engine.DatabaseSnapshot
	opts Options
	res  *Compiled
}

func (c *compiler) compile(n node) (exec.Operator, error) {
	switch x := n.(type) {
	case *scanNode:
		return c.compileScan(x, nil)
	case *selectNode:
		if sc, ok := x.in.(*scanNode); ok {
			// Push the predicate's ranges into the scan for minmax
			// pruning; the filter itself stays on top and re-applies.
			op, err := c.compileScan(sc, x.pred)
			if err != nil {
				return nil, err
			}
			pred, err := evalPred(x.pred, op.Schema())
			if err != nil {
				return nil, err
			}
			return exec.NewFilter(op, pred), nil
		}
		op, err := c.compile(x.in)
		if err != nil {
			return nil, err
		}
		pred, err := evalPred(x.pred, op.Schema())
		if err != nil {
			return nil, err
		}
		return exec.NewFilter(op, pred), nil
	case *joinNode:
		return c.compileJoin(x)
	case *mapNode:
		return c.compileMap(x)
	case *aggNode:
		return c.compileAgg(x)
	case *sortNode:
		return c.compileSort(x)
	case *distinctNode:
		return c.compileDistinct(x)
	case *limitNode:
		op, err := c.compile(x.in)
		if err != nil {
			return nil, err
		}
		return exec.NewLimit(op, x.n), nil
	case *projectNode:
		op, err := c.compile(x.in)
		if err != nil {
			return nil, err
		}
		pos, err := positions(op.Schema(), x.cols)
		if err != nil {
			return nil, err
		}
		return exec.NewProject(op, pos), nil
	}
	return nil, fmt.Errorf("query: unknown plan node %T", n)
}

func positions(s storage.Schema, cols []string) ([]int, error) {
	pos := make([]int, len(cols))
	for i, name := range cols {
		p := s.ColumnIndex(name)
		if p < 0 {
			return nil, fmt.Errorf("query: unknown column %q (have %s)", name, schemaNames(s))
		}
		pos[i] = p
	}
	return pos, nil
}

// table resolves a scan's table snapshot and column positions.
func (c *compiler) table(sc *scanNode) (*engine.TableSnapshot, []int, error) {
	t := c.snap.Table(sc.table)
	if t == nil {
		return nil, nil, fmt.Errorf("query: table %q not captured in snapshot", sc.table)
	}
	cols, err := positions(t.Schema(), sc.cols)
	if err != nil {
		return nil, nil, fmt.Errorf("query: table %q: %w", sc.table, err)
	}
	return t, cols, nil
}

// pruneInfo finds the first scanned int64 column the predicate
// constrains, returning its view-schema position and value ranges.
func (c *compiler) pruneInfo(t *engine.TableSnapshot, sc *scanNode, pred Expr) (int, []storage.Range) {
	if pred == nil {
		return -1, nil
	}
	schema := t.Schema()
	for _, name := range sc.cols {
		p := schema.ColumnIndex(name)
		if p < 0 || schema[p].Kind != storage.KindInt64 {
			continue
		}
		if r := rangesOn(pred, name); r != nil {
			return p, r
		}
	}
	return -1, nil
}

// compileScan lowers a table scan, pushing pred's ranges (if any) into
// the per-partition scans as minmax block pruning.
func (c *compiler) compileScan(sc *scanNode, pred Expr) (exec.Operator, error) {
	t, cols, err := c.table(sc)
	if err != nil {
		return nil, err
	}
	pruneCol, ranges := c.pruneInfo(t, sc, pred)
	views := t.Views()
	parts := make([]exec.Operator, len(views))
	for p, v := range views {
		s := exec.NewScan(v, cols)
		if ranges != nil {
			s.SetPruneColumn(pruneCol)
			s.SetRanges(ranges)
		}
		c.res.Scans = append(c.res.Scans, s)
		parts[p] = s
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return exec.NewUnion(parts...), nil
}

func (c *compiler) compileMap(x *mapNode) (exec.Operator, error) {
	op, err := c.compile(x.in)
	if err != nil {
		return nil, err
	}
	return c.appendComputed(op, x.name, x.expr)
}

// appendComputed appends a computed numeric column to op.
func (c *compiler) appendComputed(op exec.Operator, name string, e Expr) (exec.Operator, error) {
	k, err := e.kind(op.Schema())
	if err != nil {
		return nil, err
	}
	switch k {
	case kindInt64:
		fn, err := evalInt64(e, op.Schema())
		if err != nil {
			return nil, err
		}
		return exec.NewComputeInt64(op, name, fn), nil
	case kindFloat64:
		fn, err := evalFloat64(e, op.Schema())
		if err != nil {
			return nil, err
		}
		return exec.NewComputeFloat64(op, name, fn), nil
	}
	return nil, fmt.Errorf("query: computed column %q must be numeric, %s is %s", name, e, k)
}

func (c *compiler) compileAgg(x *aggNode) (exec.Operator, error) {
	op, err := c.compile(x.in)
	if err != nil {
		return nil, err
	}
	group, err := positions(op.Schema(), x.group)
	if err != nil {
		return nil, err
	}
	specs := make([]exec.AggSpec, 0, len(x.aggs))
	for _, a := range x.aggs {
		spec := exec.AggSpec{Name: a.name}
		switch a.fn {
		case "count":
			spec.Func = exec.AggCount
		case "sum":
			spec.Func = exec.AggSum
		case "min":
			spec.Func = exec.AggMin
		case "max":
			spec.Func = exec.AggMax
		default:
			return nil, fmt.Errorf("query: unknown aggregate %q", a.fn)
		}
		if a.expr != nil {
			if col, ok := a.expr.(colExpr); ok {
				p := op.Schema().ColumnIndex(col.name)
				if p < 0 {
					return nil, fmt.Errorf("query: unknown column %q (have %s)", col.name, schemaNames(op.Schema()))
				}
				spec.Col = p
			} else {
				// Lower the aggregated expression through a Compute; its
				// output is always the last column.
				op, err = c.appendComputed(op, a.name, a.expr)
				if err != nil {
					return nil, err
				}
				spec.Col = len(op.Schema()) - 1
			}
		}
		specs = append(specs, spec)
	}
	return exec.NewHashAggregate(op, group, specs), nil
}

func (c *compiler) compileSort(x *sortNode) (exec.Operator, error) {
	// Single-key sort directly over a one-column scan of a NSC-indexed
	// column: the choosable case (plan.Sort skips sorting the patch-free
	// stream entirely).
	if sc, ok := x.in.(*scanNode); ok && len(x.keys) == 1 && len(sc.cols) == 1 && sc.cols[0] == x.keys[0].Col {
		t, cols, err := c.table(sc)
		if err != nil {
			return nil, err
		}
		rows, patches, kind, idxDesc := c.indexStats(t, sc.cols[0])
		// The patch plan's exclude stream is pre-sorted only in the
		// index's own direction, so the choosable case requires the
		// requested direction to match it.
		if kind == core.NearlySorted && idxDesc == x.keys[0].Desc {
			access := c.scalarAccess(rows, patches, plan.ChooseSort)
			c.record(Decision{Node: x.fingerprint(), Access: access, Forced: c.opts.Mode == ForceReference || c.opts.Mode == ForcePatchIndex, FactRows: rows, Patches: patches})
			inputs := t.Inputs(sc.cols[0])
			if access == plan.AccessPatchIndex {
				return plan.Sort(inputs, cols[0], x.keys[0].Desc, c.planOpts()), nil
			}
			return plan.SortReference(inputs, cols[0], x.keys[0].Desc, c.planOpts()), nil
		}
		c.recordUnindexed(x, kind)
	}
	op, err := c.compile(x.in)
	if err != nil {
		return nil, err
	}
	keys := make([]exec.SortKey, len(x.keys))
	for i, k := range x.keys {
		p := op.Schema().ColumnIndex(k.Col)
		if p < 0 {
			return nil, fmt.Errorf("query: unknown sort column %q (have %s)", k.Col, schemaNames(op.Schema()))
		}
		keys[i] = exec.SortKey{Col: p, Desc: k.Desc}
	}
	return exec.NewSort(op, keys...), nil
}

func (c *compiler) compileDistinct(x *distinctNode) (exec.Operator, error) {
	// DISTINCT directly over a one-column scan of a NUC-indexed column:
	// the choosable case (the patch-free stream is unique by invariant).
	if sc, ok := x.in.(*scanNode); ok && len(x.cols) == 1 && len(sc.cols) == 1 && sc.cols[0] == x.cols[0] {
		t, cols, err := c.table(sc)
		if err != nil {
			return nil, err
		}
		rows, patches, kind, _ := c.indexStats(t, sc.cols[0])
		if kind == core.NearlyUnique {
			access := c.scalarAccess(rows, patches, plan.ChooseDistinct)
			c.record(Decision{Node: x.fingerprint(), Access: access, Forced: c.opts.Mode == ForceReference || c.opts.Mode == ForcePatchIndex, FactRows: rows, Patches: patches})
			inputs := t.Inputs(sc.cols[0])
			if access == plan.AccessPatchIndex {
				return plan.Distinct(inputs, cols[0], c.planOpts()), nil
			}
			return plan.DistinctReference(inputs, cols[0], c.planOpts()), nil
		}
		c.recordUnindexed(x, kind)
	}
	op, err := c.compile(x.in)
	if err != nil {
		return nil, err
	}
	pos, err := positions(op.Schema(), x.cols)
	if err != nil {
		return nil, err
	}
	return exec.NewDistinct(op, pos), nil
}

// indexStats sums a column's per-partition index statistics; kind is -1
// when the column carries no PatchIndex.
func (c *compiler) indexStats(t *engine.TableSnapshot, column string) (rows, patches uint64, kind core.Constraint, desc bool) {
	idx := t.PatchIndexes(column)
	if idx == nil {
		return 0, 0, -1, false
	}
	for _, x := range idx {
		rows += x.Rows()
		patches += x.NumPatches()
	}
	return rows, patches, idx[0].ConstraintKind(), idx[0].Descending()
}

// subSchema picks the named positions out of a table schema — the
// output schema of a scan over cols.
func subSchema(s storage.Schema, cols []int) storage.Schema {
	out := make(storage.Schema, len(cols))
	for i, p := range cols {
		out[i] = s[p]
	}
	return out
}

// scalarAccess resolves the mode for a sort/distinct node whose index
// exists; choose is the Auto-mode cost decision.
func (c *compiler) scalarAccess(rows, patches uint64, choose func(uint64, uint64, bool) plan.Access) plan.Access {
	switch c.opts.Mode {
	case ForceReference:
		return plan.AccessReference
	case ForcePatchIndex:
		return plan.AccessPatchIndex
	default: // Auto and ForceJoinIndex (joins only) cost-compare.
		return choose(rows, patches, true)
	}
}

func (c *compiler) planOpts() plan.Options {
	return plan.Options{ZeroBranchPruning: c.opts.ZeroBranchPruning, Parallel: c.opts.Parallel}
}

func (c *compiler) record(d Decision) { c.res.Decisions = append(c.res.Decisions, d) }

// recordUnindexed notes that a forced patch plan fell back to the
// reference lowering because the choosable node's column carries no
// PatchIndex (kind as indexStats returns it).
func (c *compiler) recordUnindexed(n node, kind core.Constraint) {
	if kind < 0 && c.opts.Mode == ForcePatchIndex {
		c.record(Decision{Node: n.fingerprint(), Access: plan.AccessReference, Forced: true})
	}
}

// ---- join lowering --------------------------------------------------

// factSpine decomposes a join's probe side into a bottom table scan and
// the order-preserving steps above it: selections and probe-side joins,
// exactly the operators the paper allows inside the order-sensitive
// subtrees (Section 3.3). steps are returned in bottom-up application
// order.
func factSpine(n node) (*scanNode, []node, bool) {
	var steps []node
	for {
		switch x := n.(type) {
		case *scanNode:
			for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
				steps[i], steps[j] = steps[j], steps[i]
			}
			return x, steps, true
		case *selectNode:
			steps = append(steps, x)
			n = x.in
		case *joinNode:
			steps = append(steps, x)
			n = x.left
		default:
			return nil, nil, false
		}
	}
}

// applySteps lowers spine steps on top of op, resolving columns by name
// against the running schema — the same steps apply unchanged above a
// plain scan, a patch-filtered scan, or a joinindex gather.
func (c *compiler) applySteps(steps []node, op exec.Operator) (exec.Operator, error) {
	for _, st := range steps {
		switch s := st.(type) {
		case *selectNode:
			pred, err := evalPred(s.pred, op.Schema())
			if err != nil {
				return nil, err
			}
			op = exec.NewFilter(op, pred)
		case *joinNode:
			build, err := c.compile(s.right)
			if err != nil {
				return nil, err
			}
			probe := op.Schema().ColumnIndex(s.lkey)
			if probe < 0 {
				return nil, fmt.Errorf("query: join key %q not in probe schema (%s)", s.lkey, schemaNames(op.Schema()))
			}
			bpos := build.Schema().ColumnIndex(s.rkey)
			if bpos < 0 {
				return nil, fmt.Errorf("query: join key %q not in build schema (%s)", s.rkey, schemaNames(build.Schema()))
			}
			op = exec.NewHashJoin(op, build, probe, bpos)
		default:
			return nil, fmt.Errorf("query: unexpected spine step %T", st)
		}
	}
	return op, nil
}

// spinePred conjoins all selection predicates on the spine (nil when
// there are none); its ranges prune the fact scan.
func spinePred(steps []node) Expr {
	var preds []Expr
	for _, st := range steps {
		if s, ok := st.(*selectNode); ok {
			preds = append(preds, s.pred)
		}
	}
	if len(preds) == 0 {
		return nil
	}
	if len(preds) == 1 {
		return preds[0]
	}
	return And(preds...)
}

// findBinding matches a joinindex binding against the join's fact scan,
// keys, and dim-side bottom scan.
func (c *compiler) findBinding(j *joinNode, fact *scanNode, dim *scanNode) *JoinIndexBinding {
	if dim == nil {
		return nil
	}
	for i := range c.opts.JoinIndexes {
		b := &c.opts.JoinIndexes[i]
		if b.JI != nil && b.FactTable == fact.table && b.FactKey == j.lkey &&
			b.DimTable == dim.table && b.DimKey == j.rkey {
			return b
		}
	}
	return nil
}

func (c *compiler) compileJoin(j *joinNode) (exec.Operator, error) {
	factScan, steps, spineOK := factSpine(j.left)
	keyPos := -1
	var factT *engine.TableSnapshot
	var factCols []int
	havePatch := false
	var factRows, patches uint64
	if spineOK {
		var err error
		factT, factCols, err = c.table(factScan)
		if err != nil {
			return nil, err
		}
		keyPos = indexOf(factScan.cols, j.lkey)
		if keyPos >= 0 {
			var kind core.Constraint
			var idxDesc bool
			_, patches, kind, idxDesc = c.indexStats(factT, j.lkey)
			// MergeJoin needs both streams ascending: a descending NSC
			// index disqualifies the patch plan.
			havePatch = kind == core.NearlySorted && !idxDesc
		}
	}
	var binding *JoinIndexBinding
	var dimScan *scanNode
	var dimSteps []node
	if spineOK && keyPos >= 0 {
		if ds, dsteps, ok := factSpine(j.right); ok && indexOf(ds.cols, j.rkey) >= 0 {
			dimScan, dimSteps = ds, dsteps
		}
		binding = c.findBinding(j, factScan, dimScan)
	}
	haveJI := binding != nil

	if !spineOK || keyPos < 0 || (!havePatch && !haveJI) {
		// Generic lowering: no acceleration available for this join.
		return c.compileGenericJoin(j)
	}

	// Statistics for the decision.
	factRows = uint64(factT.NumRows())
	dimFP := j.right.fingerprint()
	dimEst := c.estimate(j.right)
	dimAdj := c.opts.Chooser.Adjust(dimFP, dimEst)

	access := plan.AccessReference
	forced := c.opts.Mode != Auto
	var costs plan.JoinCosts
	switch c.opts.Mode {
	case ForceReference:
		access = plan.AccessReference
	case ForcePatchIndex:
		if havePatch {
			access = plan.AccessPatchIndex
		}
	case ForceJoinIndex:
		if haveJI {
			access = plan.AccessJoinIndex
		} else {
			return nil, fmt.Errorf("query: ForceJoinIndex, but no binding matches join %s", j.fingerprint())
		}
	default:
		access, costs = plan.ChooseJoin(factRows, patches, dimAdj, havePatch, haveJI)
	}
	c.record(Decision{
		Node: j.fingerprint(), Access: access, Forced: forced,
		FactRows: factRows, Patches: patches, DimRows: dimAdj, Costs: costs,
	})

	if access == plan.AccessJoinIndex {
		return c.compileJoinIndex(j, binding, factT, factCols, steps, dimScan, dimSteps)
	}

	// Validate the spine steps once, eagerly, so plan construction below
	// cannot fail: the per-partition FactTransform resolves against
	// schemas that are supersets of the validated one. The dim subtree
	// is compiled once; every partition reads it through one cache.
	probe, err := c.applySteps(steps, schemaSource{subSchema(factT.Schema(), factCols)})
	if err != nil {
		return nil, err
	}
	dim, err := c.compile(j.right)
	if err != nil {
		return nil, err
	}
	dimKeyPos := dim.Schema().ColumnIndex(j.rkey)
	if dimKeyPos < 0 {
		return nil, fmt.Errorf("query: join key %q not in dim schema (%s)", j.rkey, schemaNames(dim.Schema()))
	}
	if probe.Schema().ColumnIndex(j.lkey) != keyPos {
		return nil, fmt.Errorf("query: spine steps moved join key %q", j.lkey)
	}

	inputs := factT.Inputs(j.lkey)
	if pred := spinePred(steps); pred != nil {
		if pruneCol, ranges := c.pruneInfo(factT, factScan, pred); ranges != nil {
			for i := range inputs {
				inputs[i].PruneCol = pruneCol
				inputs[i].Ranges = ranges
			}
		}
	}

	if c.opts.Mode == Auto && c.opts.Chooser != nil {
		ch := c.opts.Chooser
		dim = exec.NewMeter(dim, func(actual uint64) { ch.Observe(dimFP, dimEst, actual) })
	}
	in := plan.JoinInput{
		Fact:     inputs,
		FactCols: factCols,
		FactKey:  keyPos,
		DimKey:   dimKeyPos,
		Dim:      dim,
		FactTransform: func(op exec.Operator) exec.Operator {
			out, err := c.applySteps(steps, op)
			if err != nil {
				panic(fmt.Sprintf("query: validated spine steps failed to apply: %v", err))
			}
			return out
		},
	}
	if access == plan.AccessPatchIndex {
		return plan.Join(in, c.planOpts()), nil
	}
	return plan.JoinReference(in, c.planOpts()), nil
}

// compileGenericJoin lowers a join with no acceleration: one HashJoin,
// probe side left (order preserving), build side right.
func (c *compiler) compileGenericJoin(j *joinNode) (exec.Operator, error) {
	left, err := c.compile(j.left)
	if err != nil {
		return nil, err
	}
	right, err := c.compile(j.right)
	if err != nil {
		return nil, err
	}
	lpos := left.Schema().ColumnIndex(j.lkey)
	if lpos < 0 {
		return nil, fmt.Errorf("query: join key %q not in left schema (%s)", j.lkey, schemaNames(left.Schema()))
	}
	rpos := right.Schema().ColumnIndex(j.rkey)
	if rpos < 0 {
		return nil, fmt.Errorf("query: join key %q not in right schema (%s)", j.rkey, schemaNames(right.Schema()))
	}
	return exec.NewHashJoin(left, right, lpos, rpos), nil
}

// compileJoinIndex resolves the join through the bound joinindex: scan
// the fact partitions, gather the dim columns positionally through the
// pinned references, then re-apply the fact spine steps and the dim
// subtree's steps above the gather (all name-resolved). The gathered
// schema is the fact scan columns followed by the dim scan columns minus
// the dim key, so downstream operators must not reference the dim key.
func (c *compiler) compileJoinIndex(j *joinNode, b *JoinIndexBinding, factT *engine.TableSnapshot, factCols []int, steps []node, dimScan *scanNode, dimSteps []node) (exec.Operator, error) {
	dimT, dimCols, err := c.table(dimScan)
	if err != nil {
		return nil, err
	}
	rkeyPos := indexOf(dimScan.cols, j.rkey)
	jiDimCols := make([]int, 0, len(dimCols)-1)
	for i, p := range dimCols {
		if i != rkeyPos {
			jiDimCols = append(jiDimCols, p)
		}
	}
	refs := b.Refs
	if refs == nil {
		refs = b.JI.CaptureRefs()
	}
	op := b.JI.JoinOn(factT.Views(), dimT.Views(), refs, factCols, jiDimCols)
	if op, err = c.applySteps(steps, op); err != nil {
		return nil, err
	}
	return c.applySteps(dimSteps, op)
}

func indexOf(list []string, s string) int {
	for i, v := range list {
		if v == s {
			return i
		}
	}
	return -1
}

// schemaSource is a schema-only stand-in operator used to validate
// spine steps eagerly (its Next is never called).
type schemaSource struct{ schema storage.Schema }

func (s schemaSource) Schema() storage.Schema     { return s.schema }
func (s schemaSource) Next() (*exec.Batch, error) { return nil, nil }
func (s schemaSource) Close()                     {}

// ---- cardinality estimation ----------------------------------------

// estimate guesses a subtree's output rows from snapshot row counts and
// textbook selectivities. Deliberately crude: the Chooser's runtime
// feedback corrects systematic misestimates, which is the paper's
// adaptive angle — start from static statistics, learn from execution.
func (c *compiler) estimate(n node) uint64 {
	switch x := n.(type) {
	case *scanNode:
		if t := c.snap.Table(x.table); t != nil {
			return uint64(t.NumRows())
		}
		return 0
	case *selectNode:
		e := float64(c.estimate(x.in)) * selectivity(x.pred)
		if e < 1 {
			return 1
		}
		return uint64(e)
	case *joinNode:
		el, er := c.estimate(x.left), c.estimate(x.right)
		if base := c.baseRows(x.right); base > 0 {
			e := float64(el) * float64(er) / float64(base)
			if e < 1 {
				return 1
			}
			return uint64(e)
		}
		if el < er {
			return el
		}
		return er
	case *mapNode:
		return c.estimate(x.in)
	case *aggNode:
		return c.estimate(x.in)/2 + 1
	case *sortNode:
		return c.estimate(x.in)
	case *distinctNode:
		return c.estimate(x.in)/2 + 1
	case *limitNode:
		e := c.estimate(x.in)
		if uint64(x.n) < e {
			return uint64(x.n)
		}
		return e
	case *projectNode:
		return c.estimate(x.in)
	}
	return 0
}

// baseRows finds the row count of the bottom table a subtree's probe
// spine scans (0 when there is none) — the denominator of the FK-join
// estimate output ≈ probe × (build / buildBase).
func (c *compiler) baseRows(n node) uint64 {
	sc, _, ok := factSpine(n)
	if !ok {
		return 0
	}
	if t := c.snap.Table(sc.table); t != nil {
		return uint64(t.NumRows())
	}
	return 0
}
