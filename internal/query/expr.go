package query

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"patchindex/internal/exec"
	"patchindex/internal/storage"
)

// Scalar expressions: the predicate trees, arithmetic, and conditionals
// a logical plan carries. Expressions reference columns by name and are
// resolved against an operator schema only at lowering time, so the same
// expression works wherever its columns appear — above a scan, above a
// join, or above a joinindex gather whose column positions differ.

// exprKind is an expression's resolved type. Predicates are kindBool,
// which is not a storable column kind: a boolean expression can only be
// consumed by Where or as an If condition.
type exprKind int

const (
	kindInt64 exprKind = iota
	kindFloat64
	kindString
	kindBool
)

func (k exprKind) String() string {
	switch k {
	case kindInt64:
		return "int64"
	case kindFloat64:
		return "float64"
	case kindString:
		return "string"
	default:
		return "bool"
	}
}

func kindOf(k storage.Kind) exprKind {
	switch k {
	case storage.KindInt64:
		return kindInt64
	case storage.KindFloat64:
		return kindFloat64
	default:
		return kindString
	}
}

// Expr is a scalar expression over named columns. Expressions are
// immutable and safe to share between plans. String renders a canonical
// form used both for error messages and as the fingerprint the
// optimizer's cardinality feedback is keyed by.
type Expr interface {
	String() string
	// kind resolves the expression's type against a schema.
	kind(s storage.Schema) (exprKind, error)
}

// Col references a column by name.
func Col(name string) Expr { return colExpr{name} }

// Int is an int64 literal.
func Int(v int64) Expr { return litInt{v} }

// Float is a float64 literal.
func Float(v float64) Expr { return litFloat{v} }

// Str is a string literal.
func Str(v string) Expr { return litStr{v} }

// Add, Sub, Mul, Div build arithmetic over numeric expressions; a mixed
// int64/float64 operation promotes to float64. Div of two int64 operands
// is integer division (matching Go, and the TPC-H date arithmetic).
func Add(l, r Expr) Expr { return arith{'+', l, r} }
func Sub(l, r Expr) Expr { return arith{'-', l, r} }
func Mul(l, r Expr) Expr { return arith{'*', l, r} }
func Div(l, r Expr) Expr { return arith{'/', l, r} }

// Eq, Ne, Lt, Le, Gt, Ge build comparisons. Numeric operands promote
// like arithmetic; strings compare lexicographically; comparing a number
// to a string is a compile error.
func Eq(l, r Expr) Expr { return cmp{"=", l, r} }
func Ne(l, r Expr) Expr { return cmp{"!=", l, r} }
func Lt(l, r Expr) Expr { return cmp{"<", l, r} }
func Le(l, r Expr) Expr { return cmp{"<=", l, r} }
func Gt(l, r Expr) Expr { return cmp{">", l, r} }
func Ge(l, r Expr) Expr { return cmp{">=", l, r} }

// And and Or combine boolean expressions.
func And(args ...Expr) Expr { return logic{"and", args} }
func Or(args ...Expr) Expr  { return logic{"or", args} }

// In tests membership of e in a set of literals (all the same kind).
func In(e Expr, vals ...Expr) Expr { return inExpr{e, vals} }

// Between is sugar for lo <= e AND e <= hi.
func Between(e, lo, hi Expr) Expr { return And(Ge(e, lo), Le(e, hi)) }

// If evaluates to then where cond holds and to els elsewhere; then and
// els must be numeric expressions of one kind.
func If(cond, then, els Expr) Expr { return condExpr{cond, then, els} }

type colExpr struct{ name string }

func (e colExpr) String() string { return e.name }
func (e colExpr) kind(s storage.Schema) (exprKind, error) {
	i := s.ColumnIndex(e.name)
	if i < 0 {
		return 0, fmt.Errorf("query: unknown column %q (have %s)", e.name, schemaNames(s))
	}
	return kindOf(s[i].Kind), nil
}

type litInt struct{ v int64 }

func (e litInt) String() string                        { return fmt.Sprintf("%d", e.v) }
func (e litInt) kind(storage.Schema) (exprKind, error) { return kindInt64, nil }

type litFloat struct{ v float64 }

func (e litFloat) String() string                        { return fmt.Sprintf("%g", e.v) }
func (e litFloat) kind(storage.Schema) (exprKind, error) { return kindFloat64, nil }

type litStr struct{ v string }

func (e litStr) String() string                        { return fmt.Sprintf("%q", e.v) }
func (e litStr) kind(storage.Schema) (exprKind, error) { return kindString, nil }

type arith struct {
	op   byte
	l, r Expr
}

func (e arith) String() string {
	return fmt.Sprintf("(%s %c %s)", e.l, e.op, e.r)
}

func (e arith) kind(s storage.Schema) (exprKind, error) {
	lk, err := e.l.kind(s)
	if err != nil {
		return 0, err
	}
	rk, err := e.r.kind(s)
	if err != nil {
		return 0, err
	}
	if lk == kindString || rk == kindString || lk == kindBool || rk == kindBool {
		return 0, fmt.Errorf("query: arithmetic over non-numeric operands in %s", e)
	}
	if lk == kindFloat64 || rk == kindFloat64 {
		return kindFloat64, nil
	}
	return kindInt64, nil
}

type cmp struct {
	op   string
	l, r Expr
}

func (e cmp) String() string {
	return fmt.Sprintf("(%s %s %s)", e.l, e.op, e.r)
}

func (e cmp) kind(s storage.Schema) (exprKind, error) {
	lk, err := e.l.kind(s)
	if err != nil {
		return 0, err
	}
	rk, err := e.r.kind(s)
	if err != nil {
		return 0, err
	}
	if lk == kindBool || rk == kindBool {
		return 0, fmt.Errorf("query: comparison over boolean operand in %s", e)
	}
	if (lk == kindString) != (rk == kindString) {
		return 0, fmt.Errorf("query: comparing %s to %s in %s", lk, rk, e)
	}
	return kindBool, nil
}

type logic struct {
	op   string
	args []Expr
}

func (e logic) String() string {
	parts := make([]string, len(e.args))
	for i, a := range e.args {
		parts[i] = a.String()
	}
	return "(" + strings.Join(parts, " "+e.op+" ") + ")"
}

func (e logic) kind(s storage.Schema) (exprKind, error) {
	if len(e.args) == 0 {
		return 0, fmt.Errorf("query: empty %s()", e.op)
	}
	for _, a := range e.args {
		k, err := a.kind(s)
		if err != nil {
			return 0, err
		}
		if k != kindBool {
			return 0, fmt.Errorf("query: %s over non-boolean operand %s", e.op, a)
		}
	}
	return kindBool, nil
}

type inExpr struct {
	e    Expr
	vals []Expr
}

func (e inExpr) String() string {
	parts := make([]string, len(e.vals))
	for i, v := range e.vals {
		parts[i] = v.String()
	}
	return fmt.Sprintf("(%s in [%s])", e.e, strings.Join(parts, " "))
}

func (e inExpr) kind(s storage.Schema) (exprKind, error) {
	k, err := e.e.kind(s)
	if err != nil {
		return 0, err
	}
	if k == kindBool || k == kindFloat64 {
		return 0, fmt.Errorf("query: IN over %s expression %s", k, e.e)
	}
	if len(e.vals) == 0 {
		return 0, fmt.Errorf("query: empty IN set in %s", e)
	}
	for _, v := range e.vals {
		vk, err := v.kind(s)
		if err != nil {
			return 0, err
		}
		if vk != k {
			return 0, fmt.Errorf("query: IN set member %s is %s, want %s", v, vk, k)
		}
	}
	return kindBool, nil
}

type condExpr struct{ cond, then, els Expr }

func (e condExpr) String() string {
	return fmt.Sprintf("(if %s then %s else %s)", e.cond, e.then, e.els)
}

func (e condExpr) kind(s storage.Schema) (exprKind, error) {
	ck, err := e.cond.kind(s)
	if err != nil {
		return 0, err
	}
	if ck != kindBool {
		return 0, fmt.Errorf("query: If condition %s is %s, want bool", e.cond, ck)
	}
	tk, err := e.then.kind(s)
	if err != nil {
		return 0, err
	}
	ek, err := e.els.kind(s)
	if err != nil {
		return 0, err
	}
	if tk != ek || tk == kindString || tk == kindBool {
		return 0, fmt.Errorf("query: If branches must be one numeric kind, got %s/%s in %s", tk, ek, e)
	}
	return tk, nil
}

func schemaNames(s storage.Schema) string {
	names := make([]string, len(s))
	for i, c := range s {
		names[i] = c.Name
	}
	return strings.Join(names, ", ")
}

// ---- evaluation ----------------------------------------------------

// evalInt64 lowers an int64 expression to a row function.
func evalInt64(e Expr, s storage.Schema) (func(b *exec.Batch, i int) int64, error) {
	k, err := e.kind(s)
	if err != nil {
		return nil, err
	}
	if k != kindInt64 {
		return nil, fmt.Errorf("query: expression %s is %s, want int64", e, k)
	}
	return evalInt64Checked(e, s)
}

func evalInt64Checked(e Expr, s storage.Schema) (func(b *exec.Batch, i int) int64, error) {
	switch x := e.(type) {
	case colExpr:
		c := s.ColumnIndex(x.name)
		return func(b *exec.Batch, i int) int64 { return b.Cols[c].I64[i] }, nil
	case litInt:
		v := x.v
		return func(*exec.Batch, int) int64 { return v }, nil
	case arith:
		l, err := evalInt64Checked(x.l, s)
		if err != nil {
			return nil, err
		}
		r, err := evalInt64Checked(x.r, s)
		if err != nil {
			return nil, err
		}
		switch x.op {
		case '+':
			return func(b *exec.Batch, i int) int64 { return l(b, i) + r(b, i) }, nil
		case '-':
			return func(b *exec.Batch, i int) int64 { return l(b, i) - r(b, i) }, nil
		case '*':
			return func(b *exec.Batch, i int) int64 { return l(b, i) * r(b, i) }, nil
		default:
			return func(b *exec.Batch, i int) int64 { return l(b, i) / r(b, i) }, nil
		}
	case condExpr:
		cond, err := evalPred(x.cond, s)
		if err != nil {
			return nil, err
		}
		then, err := evalInt64Checked(x.then, s)
		if err != nil {
			return nil, err
		}
		els, err := evalInt64Checked(x.els, s)
		if err != nil {
			return nil, err
		}
		return func(b *exec.Batch, i int) int64 {
			if cond(b, i) {
				return then(b, i)
			}
			return els(b, i)
		}, nil
	}
	return nil, fmt.Errorf("query: cannot evaluate %s as int64", e)
}

// evalFloat64 lowers a numeric expression to a float64 row function,
// promoting int64 subexpressions.
func evalFloat64(e Expr, s storage.Schema) (func(b *exec.Batch, i int) float64, error) {
	k, err := e.kind(s)
	if err != nil {
		return nil, err
	}
	switch k {
	case kindInt64:
		f, err := evalInt64Checked(e, s)
		if err != nil {
			return nil, err
		}
		return func(b *exec.Batch, i int) float64 { return float64(f(b, i)) }, nil
	case kindFloat64:
	default:
		return nil, fmt.Errorf("query: expression %s is %s, want numeric", e, k)
	}
	switch x := e.(type) {
	case colExpr:
		c := s.ColumnIndex(x.name)
		return func(b *exec.Batch, i int) float64 { return b.Cols[c].F64[i] }, nil
	case litFloat:
		v := x.v
		return func(*exec.Batch, int) float64 { return v }, nil
	case arith:
		l, err := evalFloat64(x.l, s)
		if err != nil {
			return nil, err
		}
		r, err := evalFloat64(x.r, s)
		if err != nil {
			return nil, err
		}
		switch x.op {
		case '+':
			return func(b *exec.Batch, i int) float64 { return l(b, i) + r(b, i) }, nil
		case '-':
			return func(b *exec.Batch, i int) float64 { return l(b, i) - r(b, i) }, nil
		case '*':
			return func(b *exec.Batch, i int) float64 { return l(b, i) * r(b, i) }, nil
		default:
			return func(b *exec.Batch, i int) float64 { return l(b, i) / r(b, i) }, nil
		}
	case condExpr:
		cond, err := evalPred(x.cond, s)
		if err != nil {
			return nil, err
		}
		then, err := evalFloat64(x.then, s)
		if err != nil {
			return nil, err
		}
		els, err := evalFloat64(x.els, s)
		if err != nil {
			return nil, err
		}
		return func(b *exec.Batch, i int) float64 {
			if cond(b, i) {
				return then(b, i)
			}
			return els(b, i)
		}, nil
	}
	return nil, fmt.Errorf("query: cannot evaluate %s as float64", e)
}

func evalString(e Expr, s storage.Schema) (func(b *exec.Batch, i int) string, error) {
	switch x := e.(type) {
	case colExpr:
		c := s.ColumnIndex(x.name)
		if c < 0 {
			return nil, fmt.Errorf("query: unknown column %q (have %s)", x.name, schemaNames(s))
		}
		if s[c].Kind != storage.KindString {
			return nil, fmt.Errorf("query: column %q is not a string", x.name)
		}
		return func(b *exec.Batch, i int) string { return b.Cols[c].Str[i] }, nil
	case litStr:
		v := x.v
		return func(*exec.Batch, int) string { return v }, nil
	}
	return nil, fmt.Errorf("query: cannot evaluate %s as string", e)
}

// evalPred lowers a boolean expression to an exec.Pred.
func evalPred(e Expr, s storage.Schema) (exec.Pred, error) {
	k, err := e.kind(s)
	if err != nil {
		return nil, err
	}
	if k != kindBool {
		return nil, fmt.Errorf("query: expression %s is %s, want a predicate", e, k)
	}
	switch x := e.(type) {
	case cmp:
		return evalCmp(x, s)
	case logic:
		preds := make([]exec.Pred, len(x.args))
		for i, a := range x.args {
			if preds[i], err = evalPred(a, s); err != nil {
				return nil, err
			}
		}
		if x.op == "and" {
			return exec.And(preds...), nil
		}
		return func(b *exec.Batch, i int) bool {
			for _, p := range preds {
				if p(b, i) {
					return true
				}
			}
			return false
		}, nil
	case inExpr:
		return evalIn(x, s)
	}
	return nil, fmt.Errorf("query: cannot evaluate %s as predicate", e)
}

func evalCmp(x cmp, s storage.Schema) (exec.Pred, error) {
	lk, _ := x.l.kind(s)
	rk, _ := x.r.kind(s)
	if lk == kindString {
		l, err := evalString(x.l, s)
		if err != nil {
			return nil, err
		}
		r, err := evalString(x.r, s)
		if err != nil {
			return nil, err
		}
		op := x.op
		return func(b *exec.Batch, i int) bool { return strCmp(op, l(b, i), r(b, i)) }, nil
	}
	if lk == kindInt64 && rk == kindInt64 {
		l, err := evalInt64Checked(x.l, s)
		if err != nil {
			return nil, err
		}
		r, err := evalInt64Checked(x.r, s)
		if err != nil {
			return nil, err
		}
		switch x.op {
		case "=":
			return func(b *exec.Batch, i int) bool { return l(b, i) == r(b, i) }, nil
		case "!=":
			return func(b *exec.Batch, i int) bool { return l(b, i) != r(b, i) }, nil
		case "<":
			return func(b *exec.Batch, i int) bool { return l(b, i) < r(b, i) }, nil
		case "<=":
			return func(b *exec.Batch, i int) bool { return l(b, i) <= r(b, i) }, nil
		case ">":
			return func(b *exec.Batch, i int) bool { return l(b, i) > r(b, i) }, nil
		default:
			return func(b *exec.Batch, i int) bool { return l(b, i) >= r(b, i) }, nil
		}
	}
	l, err := evalFloat64(x.l, s)
	if err != nil {
		return nil, err
	}
	r, err := evalFloat64(x.r, s)
	if err != nil {
		return nil, err
	}
	op := x.op
	return func(b *exec.Batch, i int) bool { return floatCmp(op, l(b, i), r(b, i)) }, nil
}

func strCmp(op, l, r string) bool {
	switch op {
	case "=":
		return l == r
	case "!=":
		return l != r
	case "<":
		return l < r
	case "<=":
		return l <= r
	case ">":
		return l > r
	default:
		return l >= r
	}
}

func floatCmp(op string, l, r float64) bool {
	switch op {
	case "=":
		return l == r
	case "!=":
		return l != r
	case "<":
		return l < r
	case "<=":
		return l <= r
	case ">":
		return l > r
	default:
		return l >= r
	}
}

func evalIn(x inExpr, s storage.Schema) (exec.Pred, error) {
	k, _ := x.e.kind(s)
	if k == kindString {
		f, err := evalString(x.e, s)
		if err != nil {
			return nil, err
		}
		set := make(map[string]struct{}, len(x.vals))
		for _, v := range x.vals {
			lit, ok := v.(litStr)
			if !ok {
				return nil, fmt.Errorf("query: IN set member %s is not a literal", v)
			}
			set[lit.v] = struct{}{}
		}
		return func(b *exec.Batch, i int) bool {
			_, ok := set[f(b, i)]
			return ok
		}, nil
	}
	f, err := evalInt64Checked(x.e, s)
	if err != nil {
		return nil, err
	}
	set := make(map[int64]struct{}, len(x.vals))
	for _, v := range x.vals {
		lit, ok := v.(litInt)
		if !ok {
			return nil, fmt.Errorf("query: IN set member %s is not a literal", v)
		}
		set[lit.v] = struct{}{}
	}
	return func(b *exec.Batch, i int) bool {
		_, ok := set[f(b, i)]
		return ok
	}, nil
}

// ---- selectivity and range extraction ------------------------------

// selectivity is the optimizer's crude textbook guess at the fraction
// of rows a predicate keeps. It exists to seed the cost comparison;
// runtime cardinality feedback (plan.Chooser) corrects it.
func selectivity(e Expr) float64 {
	switch x := e.(type) {
	case cmp:
		switch x.op {
		case "=":
			return 0.1
		case "!=":
			return 0.9
		default:
			return 1.0 / 3
		}
	case logic:
		if x.op == "and" {
			s := 1.0
			for _, a := range x.args {
				s *= selectivity(a)
			}
			return s
		}
		s := 0.0
		for _, a := range x.args {
			s += selectivity(a)
		}
		return math.Min(s, 1)
	case inExpr:
		return math.Min(0.1*float64(len(x.vals)), 0.5)
	}
	return 0.5
}

// rangesOn extracts the int64 value ranges predicate e implies for
// column col, for minmax block pruning. It returns nil when e does not
// constrain col (pruning impossible). A non-nil result R means: every
// row satisfying e has col within R, so blocks disjoint from R can be
// skipped — the predicate itself stays in the plan and re-filters.
func rangesOn(e Expr, col string) []storage.Range {
	const minI, maxI = int64(math.MinInt64), int64(math.MaxInt64)
	switch x := e.(type) {
	case cmp:
		lit, op, ok := normalizeCmp(x, col)
		if !ok {
			return nil
		}
		switch op {
		case "=":
			return []storage.Range{{Min: lit, Max: lit}}
		case "<":
			if lit == minI {
				return []storage.Range{}
			}
			return []storage.Range{{Min: minI, Max: lit - 1}}
		case "<=":
			return []storage.Range{{Min: minI, Max: lit}}
		case ">":
			if lit == maxI {
				return []storage.Range{}
			}
			return []storage.Range{{Min: lit + 1, Max: maxI}}
		case ">=":
			return []storage.Range{{Min: lit, Max: maxI}}
		}
		return nil // "!=" prunes (almost) nothing
	case logic:
		if x.op == "and" {
			// Conjunction: ranges intersect; unconstrained conjuncts drop out.
			var acc []storage.Range
			have := false
			for _, a := range x.args {
				r := rangesOn(a, col)
				if r == nil {
					continue
				}
				if !have {
					acc, have = r, true
				} else {
					acc = intersectRanges(acc, r)
				}
			}
			if !have {
				return nil
			}
			return acc
		}
		// Disjunction: every branch must constrain col, ranges union.
		var acc []storage.Range
		for _, a := range x.args {
			r := rangesOn(a, col)
			if r == nil {
				return nil
			}
			acc = append(acc, r...)
		}
		return normalizeRanges(acc)
	case inExpr:
		if c, ok := x.e.(colExpr); !ok || c.name != col {
			return nil
		}
		var acc []storage.Range
		for _, v := range x.vals {
			lit, ok := v.(litInt)
			if !ok {
				return nil
			}
			acc = append(acc, storage.Range{Min: lit.v, Max: lit.v})
		}
		return normalizeRanges(acc)
	}
	return nil
}

// normalizeCmp rewrites a comparison so the named column is on the left
// and the other side is an int64 literal; ok is false otherwise.
func normalizeCmp(x cmp, col string) (int64, string, bool) {
	if c, isCol := x.l.(colExpr); isCol && c.name == col {
		if lit, isLit := x.r.(litInt); isLit {
			return lit.v, x.op, true
		}
		return 0, "", false
	}
	if c, isCol := x.r.(colExpr); isCol && c.name == col {
		if lit, isLit := x.l.(litInt); isLit {
			return lit.v, flipCmp(x.op), true
		}
	}
	return 0, "", false
}

func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	default:
		return op // = and != are symmetric
	}
}

// normalizeRanges sorts by Min and merges overlapping/adjacent ranges.
func normalizeRanges(rs []storage.Range) []storage.Range {
	if len(rs) <= 1 {
		return rs
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].Min < rs[j].Min })
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if r.Min <= last.Max || (last.Max != math.MaxInt64 && r.Min == last.Max+1) {
			if r.Max > last.Max {
				last.Max = r.Max
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// intersectRanges returns the pairwise intersection of two normalized
// range lists (both sorted, non-overlapping).
func intersectRanges(a, b []storage.Range) []storage.Range {
	out := []storage.Range{}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := a[i].Min
		if b[j].Min > lo {
			lo = b[j].Min
		}
		hi := a[i].Max
		if b[j].Max < hi {
			hi = b[j].Max
		}
		if lo <= hi {
			out = append(out, storage.Range{Min: lo, Max: hi})
		}
		if a[i].Max < b[j].Max {
			i++
		} else {
			j++
		}
	}
	return out
}
