// Package patchindex is a from-scratch Go implementation of the
// PatchIndex system from "Updatable Materialization of Approximate
// Constraints" (Kläbe, Sattler, Baumann — ICDE 2021, arXiv:2102.06557):
// updatable materialization of approximate constraints ("nearly unique
// columns" and "nearly sorted columns") on top of an update-conscious
// sharded bitmap, integrated into a vectorized columnar query engine.
//
// This package is the public facade. The building blocks live in
// internal packages:
//
//   - internal/bitmap: ordinary + sharded bitmap (Section 4)
//   - internal/core: the PatchIndex itself (Sections 3, 5)
//   - internal/exec, internal/plan: vectorized executor and the
//     PatchIndex query optimizations (Section 3.3)
//   - internal/query: composable logical plans and the cost-driven
//     chooser that lowers them onto those operators — the one way to
//     run a query, re-exported below (From, Run, CompileSnapshot, ...)
//   - internal/storage, internal/pdt: columnar storage, minmax
//     summaries, positional delta updates
//   - internal/engine: the database tying everything together, with
//     snapshot-isolated queries running concurrently with update
//     queries (Section 5.4). Updates lock at partition granularity:
//     Database.InsertRows / InsertRowsPartition append through the
//     partition-parallel insert path (an exact NUC collision directory;
//     a chunk whose value lives in another partition also takes that
//     partition's lock), while Database.Insert holds the exclusive lock
//     throughout and makes the whole batch visible atomically; both
//     classify collisions from the same directory instead of the
//     paper's join
//   - internal/sortkey, internal/joinindex (and the materialized view of
//     internal/experiments' tests): the evaluation's comparators
//   - internal/datagen, internal/tpch: the paper's data generator and
//     the TPC-H subset of Section 6.3
//
// Quickstart:
//
//	db := patchindex.NewDatabase()
//	t, _ := db.CreateTable("events", patchindex.Schema{
//		{Name: "id", Kind: patchindex.KindInt64},
//		{Name: "ts", Kind: patchindex.KindInt64},
//	}, 4)
//	t.Load(rows)
//	t.CreatePatchIndex("ts", patchindex.NearlySorted, patchindex.IndexOptions{})
//	c, _ := patchindex.Run(db, patchindex.From("events", "ts").OrderBy(patchindex.Asc("ts")), patchindex.QueryOptions{})
//	ts, _ := patchindex.CollectInt64(c.Root)
//
// # Queries
//
// A query is a Plan — From, then Where / Join / Map / Aggregate /
// OrderBy / Distinct / Project / Limit over Expr trees — executed by Run
// (captures an ephemeral snapshot of the plan's tables, released when
// the result's Root is drained or the result is Closed) or by
// CompileSnapshot (against a snapshot the caller holds, for several
// queries on one consistent state). Compiled.Decisions lists what the
// chooser picked per choosable node and the statistics it used.
// QueryOptions.Mode frees (PlanAuto) or forces that choice. Three
// contracts worth knowing:
//
//   - PlanPatchIndex on a column that carries no PatchIndex is not an
//     error: the node runs the reference plan and its Decision says so
//     (Forced, Access == AccessReference).
//   - Run captures every PatchIndex of the tables the plan reads, not
//     only those of the columns it names.
//   - A plan naming an unknown table or column is an error from Run /
//     CompileSnapshot, never a panic, and retains no snapshot.
package patchindex

import (
	"patchindex/internal/core"
	"patchindex/internal/engine"
	"patchindex/internal/exec"
	"patchindex/internal/plan"
	"patchindex/internal/query"
	"patchindex/internal/storage"
	"patchindex/internal/wal"
)

// Re-exported core types. See the internal packages for full
// documentation.
type (
	// Database is a collection of partitioned tables with PatchIndex
	// support.
	Database = engine.Database
	// Table is one partitioned table.
	Table = engine.Table
	// TableSnapshot is an immutable point-in-time view of one table;
	// queries built on it run lock-free while updates proceed.
	TableSnapshot = engine.TableSnapshot
	// DatabaseSnapshot is one atomic capture of several tables
	// (Database.Snapshot), the state CompileSnapshot compiles against.
	DatabaseSnapshot = engine.DatabaseSnapshot

	// Plan is a composable logical query, built with From and the
	// chaining methods; pure description, compiled any number of times.
	Plan = query.Plan
	// Expr is a predicate or arithmetic expression over column names.
	Expr = query.Expr
	// AggTerm is one aggregate output of Plan.Aggregate.
	AggTerm = query.AggTerm
	// Order is one sort key of Plan.OrderBy.
	Order = query.Order
	// QueryOptions tune compilation (plan mode, zero-branch pruning,
	// cardinality feedback, offered joinindexes).
	QueryOptions = query.Options
	// PlanMode selects reference / PatchIndex / cost-based planning.
	PlanMode = query.Mode
	// Compiled is an executable plan: Root to drain, Close to abandon
	// it early, Decisions to see what the chooser did.
	Compiled = query.Compiled
	// Decision records one access-path choice of the chooser.
	Decision = query.Decision
	// Access is the path a Decision chose.
	Access = plan.Access

	// Schema describes a table's columns.
	Schema = storage.Schema
	// ColumnDef is one column of a Schema.
	ColumnDef = storage.ColumnDef
	// Row is one tuple.
	Row = storage.Row
	// Value is a dynamically typed cell.
	Value = storage.Value
	// Kind is a column type.
	Kind = storage.Kind

	// Constraint identifies an approximate constraint (NUC or NSC).
	Constraint = core.Constraint
	// Design selects the patch representation (bitmap or identifier).
	Design = core.Design
	// IndexOptions configure a PatchIndex.
	IndexOptions = core.Options
	// Index is a PatchIndex over one column of one partition.
	Index = core.Index

	// Operator is a pull-based query operator.
	Operator = exec.Operator
	// Batch is a vector of tuples flowing between operators.
	Batch = exec.Batch

	// SyncPolicy selects when WAL appends reach stable storage; see
	// Database.EnableWAL and the engine package's Durability docs.
	SyncPolicy = wal.SyncPolicy
	// RecoverStats reports what Database.Recover restored and replayed.
	RecoverStats = engine.RecoverStats
)

// Re-exported constants.
const (
	KindInt64   = storage.KindInt64
	KindFloat64 = storage.KindFloat64
	KindString  = storage.KindString

	NearlyUnique = core.NearlyUnique
	NearlySorted = core.NearlySorted

	DesignBitmap     = core.DesignBitmap
	DesignIdentifier = core.DesignIdentifier

	PlanAuto       = query.Auto
	PlanReference  = query.ForceReference
	PlanPatchIndex = query.ForcePatchIndex

	AccessReference  = plan.AccessReference
	AccessPatchIndex = plan.AccessPatchIndex

	// SyncNone: WAL appends are plain writes — durable against process
	// death (kill -9), not power loss. SyncEach fsyncs every append.
	SyncNone = wal.SyncNone
	SyncEach = wal.SyncEach
)

// The query vocabulary of internal/query; see its package docs.
var (
	// From starts a plan scanning the named columns of a table.
	From = query.From
	// Run captures a snapshot of the plan's tables, compiles against it
	// and hands the snapshot's release to the result: drain Root or
	// Close the result on every path.
	Run = query.Run
	// CompileSnapshot compiles against a caller-held snapshot and takes
	// no ownership of it.
	CompileSnapshot = query.CompileSnapshot

	// Col references a column; Int, Float and String are literals
	// (String is query.Str — Str here boxes a Value).
	Col    = query.Col
	Int    = query.Int
	Float  = query.Float
	String = query.Str

	Add, Sub, Mul, Div     = query.Add, query.Sub, query.Mul, query.Div
	Eq, Ne, Lt, Le, Gt, Ge = query.Eq, query.Ne, query.Lt, query.Le, query.Gt, query.Ge
	And, Or                = query.And, query.Or
	In, Between, If        = query.In, query.Between, query.If

	// Aggregate terms for Plan.Aggregate and sort keys for Plan.OrderBy.
	Sum, CountAll, MinOf, MaxOf = query.Sum, query.CountAll, query.MinOf, query.MaxOf
	Asc, Desc                   = query.Asc, query.Desc
)

// NewDatabase returns an empty database.
func NewDatabase() *Database { return engine.NewDatabase() }

// I64 boxes an int64 value.
func I64(v int64) Value { return storage.I64(v) }

// F64 boxes a float64 value.
func F64(v float64) Value { return storage.F64(v) }

// Str boxes a string value.
func Str(v string) Value { return storage.Str(v) }

// Collect drains an operator into boxed rows.
func Collect(op Operator) ([]Row, error) { return exec.Collect(op) }

// CollectInt64 drains a single-column BIGINT operator into a slice.
func CollectInt64(op Operator) ([]int64, error) { return exec.CollectInt64(op) }

// Count drains an operator and returns its tuple count.
func Count(op Operator) (int, error) { return exec.Count(op) }
