// Package query is the query API — the only way to run a query against
// an engine.Database, and what package patchindex re-exports: composable
// logical plans, a cost-driven optimizer choosing between the paper's
// access paths per plan node (Section 3.3 priced by Section 3.5), and
// the lowering onto internal/exec operators. The engine itself hands
// out snapshots, not operators.
//
// # Logical plans
//
// A *Plan is built fluently and is pure description — table and column
// names, predicate trees, join keys — with no engine state attached:
//
//	p := query.From("lineitem", "l_orderkey", "l_extendedprice").
//		Where(query.Lt(query.Col("l_orderkey"), query.Int(1000))).
//		Join(query.From("orders", "o_orderkey", "o_custkey"),
//			"l_orderkey", "o_orderkey").
//		Aggregate([]string{"o_custkey"},
//			query.Sum(query.Col("l_extendedprice"), "revenue"))
//
// The same Plan may be compiled any number of times, against different
// snapshots and in different modes; builder methods never mutate the
// receiver.
//
// # Lifecycle: capture, execute, release
//
// Run captures an atomic engine.DatabaseSnapshot of the plan's tables —
// whole tables, every PatchIndex they carry — compiles against it, and
// transfers snapshot ownership to the returned operator tree
// (exec.OnClose): the snapshot is released when the root reaches end of
// stream or is Closed. A plan that does not compile (unknown table or
// column, ill-typed expression) is an error, and nothing stays
// captured. The contract is the engine-wide Close discipline — drain
// the root or Close the result on every path, exactly the property
// pilint's snapclose analyzer enforces on Run's callers:
//
//	c, err := query.Run(db, p, query.Options{})
//	if err != nil { ... }
//	defer c.Close()
//	for { b, err := c.Root.Next(); ... }
//
// CompileSnapshot instead compiles against a caller-held snapshot and
// takes no ownership: the caller must keep the snapshot open until the
// operator is drained, and close it afterwards. Use it to run several
// queries against one consistent capture (as the TPC-H harness does).
// Never close a snapshot while an operator compiled against it may
// still be read — the frozen views' validity ends at Close.
//
// # The optimizer
//
// Compilation lowers most nodes mechanically (Filter, HashJoin,
// HashAggregate, Sort, ...). Three node shapes are choosable, and there
// the compiler consults the cost model (internal/plan) with live
// statistics from the captured snapshot:
//
//   - fact ⋈ dim joins whose probe side bottoms out in a scan of a
//     NSC-indexed join key: reference hash join vs the paper's split
//     patch plan (plan.Join) vs a precomputed joinindex offered via
//     Options.JoinIndexes;
//   - ORDER BY over a NSC-indexed column scan (plan.Sort);
//   - DISTINCT over a NUC-indexed column scan (plan.Distinct).
//
// Options.Mode forces the choice instead; forcing the patch plan where
// no index exists falls back to the reference lowering (see
// ForcePatchIndex).
//
// A choosable join compiles its dimension subtree once, and so does
// each join step on its fact spine with its build subtree. The reference
// and patch plans read each through one exec.Cached shared by every fact
// stream, so the dimension subtree "X" is computed and materialized once
// per query, as the cost model charges it.
//
// Inputs are partition row counts, live patch counts (exception rates),
// and dimension-side cardinality estimates. Estimates start from
// textbook selectivities; when Options.Chooser is set and Mode is Auto,
// dimension subtrees are metered at execution time (exec.NewMeter) and
// the actual row count feeds plan.Chooser.Observe once per query, so later
// compilations of structurally identical subtrees (matched by
// fingerprint) run with corrected estimates — cardinality feedback in
// the style of adaptive reoptimization. Decisions are recorded on the
// Compiled result for tests and EXPLAIN-style inspection.
//
// # Value order
//
// ORDER BY orders BIGINT and VARCHAR values as Go's < does and DOUBLE
// values as cmp.Compare does: NaN before every other value (−Inf
// included), and −0 equal to 0. DISTINCT and GROUP BY over a DOUBLE
// column put −0 with 0 and every NaN in one group.
//
// Predicates pushed against a scan additionally enable minmax block
// pruning (storage.MinMax): the ranges a predicate implies for an int64
// scan column skip non-intersecting storage blocks, while the predicate
// itself stays in the tree and re-filters.
package query
