package query

import (
	"fmt"
	"sort"
	"strings"
)

// Logical plan nodes and the fluent builder. A *Plan is an immutable
// description of a query — it references tables and columns by name and
// holds no engine state, so one Plan can be compiled many times, against
// different snapshots, in different modes. Builder methods return new
// Plans sharing the receiver's subtree; sharing is safe because nodes
// are never mutated after construction.

type node interface {
	// fingerprint is a canonical rendering of the subtree, used as the
	// key for the optimizer's cardinality feedback and in error
	// messages. Structurally identical subtrees share a fingerprint.
	fingerprint() string
}

type scanNode struct {
	table string
	cols  []string
}

func (n *scanNode) fingerprint() string {
	return fmt.Sprintf("scan(%s;%s)", n.table, strings.Join(n.cols, ","))
}

type selectNode struct {
	in   node
	pred Expr
}

func (n *selectNode) fingerprint() string {
	return fmt.Sprintf("select(%s;%s)", n.pred, n.in.fingerprint())
}

type joinNode struct {
	left, right node
	lkey, rkey  string
}

func (n *joinNode) fingerprint() string {
	return fmt.Sprintf("join(%s=%s;%s;%s)", n.lkey, n.rkey, n.left.fingerprint(), n.right.fingerprint())
}

type mapNode struct {
	in   node
	name string
	expr Expr
}

func (n *mapNode) fingerprint() string {
	return fmt.Sprintf("map(%s=%s;%s)", n.name, n.expr, n.in.fingerprint())
}

// AggTerm is one aggregate output of an Aggregate node.
type AggTerm struct {
	fn   string // "sum", "count", "min", "max"
	expr Expr   // nil for count
	name string
}

// Sum, CountAll, MinOf, MaxOf build aggregate terms. The expression may
// be any numeric expression; non-column expressions are lowered through
// a Compute operator before the aggregation.
func Sum(e Expr, name string) AggTerm   { return AggTerm{"sum", e, name} }
func CountAll(name string) AggTerm      { return AggTerm{"count", nil, name} }
func MinOf(e Expr, name string) AggTerm { return AggTerm{"min", e, name} }
func MaxOf(e Expr, name string) AggTerm { return AggTerm{"max", e, name} }

func (a AggTerm) fingerprint() string {
	if a.expr == nil {
		return fmt.Sprintf("%s()as %s", a.fn, a.name)
	}
	return fmt.Sprintf("%s(%s)as %s", a.fn, a.expr, a.name)
}

type aggNode struct {
	in    node
	group []string
	aggs  []AggTerm
}

func (n *aggNode) fingerprint() string {
	terms := make([]string, len(n.aggs))
	for i, a := range n.aggs {
		terms[i] = a.fingerprint()
	}
	return fmt.Sprintf("agg(%s;%s;%s)", strings.Join(n.group, ","), strings.Join(terms, ","), n.in.fingerprint())
}

// Order is one sort key.
type Order struct {
	Col  string
	Desc bool
}

// Asc and Desc build sort keys.
func Asc(col string) Order  { return Order{Col: col} }
func Desc(col string) Order { return Order{Col: col, Desc: true} }

type sortNode struct {
	in   node
	keys []Order
}

func (n *sortNode) fingerprint() string {
	keys := make([]string, len(n.keys))
	for i, k := range n.keys {
		dir := "asc"
		if k.Desc {
			dir = "desc"
		}
		keys[i] = k.Col + " " + dir
	}
	return fmt.Sprintf("sort(%s;%s)", strings.Join(keys, ","), n.in.fingerprint())
}

type distinctNode struct {
	in   node
	cols []string
}

func (n *distinctNode) fingerprint() string {
	return fmt.Sprintf("distinct(%s;%s)", strings.Join(n.cols, ","), n.in.fingerprint())
}

type limitNode struct {
	in node
	n  int
}

func (n *limitNode) fingerprint() string {
	return fmt.Sprintf("limit(%d;%s)", n.n, n.in.fingerprint())
}

type projectNode struct {
	in   node
	cols []string
}

func (n *projectNode) fingerprint() string {
	return fmt.Sprintf("project(%s;%s)", strings.Join(n.cols, ","), n.in.fingerprint())
}

// Plan is a composable logical query. Build one with From and the
// chaining methods, then execute it with Run (which captures its own
// snapshot) or CompileSnapshot (against a caller-held snapshot).
type Plan struct{ n node }

// From starts a plan scanning the named columns of a table. The column
// order fixes the scan's output schema.
func From(table string, cols ...string) *Plan {
	return &Plan{&scanNode{table: table, cols: append([]string(nil), cols...)}}
}

// Where keeps the rows satisfying the predicate. Consecutive Where
// calls merge conjunctively into one selection.
func (p *Plan) Where(e Expr) *Plan {
	if sel, ok := p.n.(*selectNode); ok {
		return &Plan{&selectNode{in: sel.in, pred: And(sel.pred, e)}}
	}
	return &Plan{&selectNode{in: p.n, pred: e}}
}

// Join equi-joins the plan (probe side, order-preserving) with right
// (build side) on leftKey = rightKey. The output schema is the left
// schema followed by the right schema.
func (p *Plan) Join(right *Plan, leftKey, rightKey string) *Plan {
	return &Plan{&joinNode{left: p.n, right: right.n, lkey: leftKey, rkey: rightKey}}
}

// Map appends a computed numeric column.
func (p *Plan) Map(name string, e Expr) *Plan {
	return &Plan{&mapNode{in: p.n, name: name, expr: e}}
}

// Aggregate groups by the named columns (first-seen input order is
// preserved) and computes the aggregate terms.
func (p *Plan) Aggregate(groupBy []string, aggs ...AggTerm) *Plan {
	return &Plan{&aggNode{in: p.n, group: append([]string(nil), groupBy...), aggs: aggs}}
}

// OrderBy sorts (stable) by the given keys.
func (p *Plan) OrderBy(keys ...Order) *Plan {
	return &Plan{&sortNode{in: p.n, keys: keys}}
}

// Distinct keeps one row per distinct combination of the named columns,
// projecting everything else away.
func (p *Plan) Distinct(cols ...string) *Plan {
	return &Plan{&distinctNode{in: p.n, cols: append([]string(nil), cols...)}}
}

// Limit keeps the first n rows.
func (p *Plan) Limit(n int) *Plan {
	return &Plan{&limitNode{in: p.n, n: n}}
}

// Project narrows and reorders the output to the named columns.
func (p *Plan) Project(cols ...string) *Plan {
	return &Plan{&projectNode{in: p.n, cols: append([]string(nil), cols...)}}
}

// Fingerprint canonically renders the plan; structurally identical
// plans share it. It keys the optimizer's cardinality feedback.
func (p *Plan) Fingerprint() string { return p.n.fingerprint() }

// Tables returns the sorted set of table names the plan reads — the set
// Run snapshots atomically.
func (p *Plan) Tables() []string {
	set := map[string]struct{}{}
	collectTables(p.n, set)
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

func collectTables(n node, set map[string]struct{}) {
	switch x := n.(type) {
	case *scanNode:
		set[x.table] = struct{}{}
	case *selectNode:
		collectTables(x.in, set)
	case *joinNode:
		collectTables(x.left, set)
		collectTables(x.right, set)
	case *mapNode:
		collectTables(x.in, set)
	case *aggNode:
		collectTables(x.in, set)
	case *sortNode:
		collectTables(x.in, set)
	case *distinctNode:
		collectTables(x.in, set)
	case *limitNode:
		collectTables(x.in, set)
	case *projectNode:
		collectTables(x.in, set)
	}
}
