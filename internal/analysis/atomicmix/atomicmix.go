// Package atomicmix flags variables that are accessed through
// sync/atomic in one place and with plain loads or stores in another —
// the mix that makes the atomic half worthless.
//
// A variable joins the atomic set when its address is taken as the
// first argument of a sync/atomic function (atomic.AddUint64(&x, 1)).
// When the address of an element is taken (&f.bits[i]) the slice field
// itself joins as an element-atomic slice. Every other appearance of a
// set member is then audited:
//
//   - scalars: any plain read or write is reported;
//   - element-atomic slices: plain element indexing and `range` over
//     the elements are reported, while slice-header operations
//     (len, cap, reassignment with make, passing the slice along)
//     stay legal.
//
// Composite-literal keys are exempt: initializing a field before the
// value is shared is the normal construction pattern. Deliberate
// exceptions (a read under a full mutex, say) should carry a
// //pilint:ignore atomicmix comment with the reason.
//
// Fields of type atomic.Uint64 and friends need no checking — the type
// system already forbids plain access — so this analyzer only tracks
// plain integers used with the function-style API.
package atomicmix

import (
	"go/ast"
	"go/token"
	"go/types"

	"patchindex/internal/analysis/driver"
)

var Analyzer = &driver.Analyzer{
	Name: "atomicmix",
	Doc:  "check that variables accessed via sync/atomic are never read or written plainly",
	Run:  run,
}

type kind int

const (
	scalar kind = iota
	sliceElem
)

func run(pass *driver.Pass) (interface{}, error) {
	vars := make(map[*types.Var]kind)       // the atomic set
	sanctioned := make(map[token.Pos]bool)  // ident positions inside atomic calls
	where := make(map[*types.Var]token.Pos) // first atomic use, for the message

	// Phase 1: find atomic calls, collect operands.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicCall(pass, call) {
				return true
			}
			for _, arg := range call.Args {
				markSanctioned(arg, sanctioned)
			}
			if len(call.Args) == 0 {
				return true
			}
			if ue, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr); ok && ue.Op == token.AND {
				target := ast.Unparen(ue.X)
				k := scalar
				if ix, ok := target.(*ast.IndexExpr); ok {
					target = ast.Unparen(ix.X)
					k = sliceElem
				}
				if obj := referredVar(pass, target); obj != nil {
					if old, seen := vars[obj]; !seen || old == scalar {
						vars[obj] = k
					}
					if _, seen := where[obj]; !seen {
						where[obj] = call.Pos()
					}
				}
			}
			return true
		})
	}
	if len(vars) == 0 {
		return nil, nil
	}

	// Phase 2: audit every other appearance.
	for _, f := range pass.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			id, ok := n.(*ast.Ident)
			if !ok || sanctioned[id.Pos()] {
				return true
			}
			obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
			if !ok {
				return true
			}
			k, tracked := vars[obj]
			if !tracked {
				return true
			}
			checkUse(pass, id, obj, k, where[obj], stack)
			return true
		})
	}
	return nil, nil
}

func checkUse(pass *driver.Pass, id *ast.Ident, obj *types.Var, k kind, atomicAt token.Pos, stack []ast.Node) {
	// The expression node denoting the variable: the ident, or the
	// selector it terminates (x.f).
	node := ast.Node(id)
	i := len(stack) - 2
	if i >= 0 {
		if sel, ok := stack[i].(*ast.SelectorExpr); ok && sel.Sel == id {
			node = sel
			i--
		}
	}
	var parent, grand ast.Node
	if i >= 0 {
		parent = stack[i]
	}
	if i >= 1 {
		grand = stack[i-1]
	}
	if _, isKV := parent.(*ast.KeyValueExpr); isKV && node == id {
		return // composite-literal initialization
	}
	posn := pass.Fset.Position(atomicAt)
	switch k {
	case scalar:
		if isAddrOf(parent) {
			return // &x is not an access; the pointer is used atomically
		}
		pass.Reportf(id.Pos(), "plain access of %s, which is accessed atomically at %s; use sync/atomic consistently", obj.Name(), posn)
	case sliceElem:
		switch p := parent.(type) {
		case *ast.IndexExpr:
			if ast.Unparen(p.X) == node && !isAddrOf(grand) {
				pass.Reportf(id.Pos(), "plain element access of %s, whose elements are accessed atomically at %s; use sync/atomic consistently", obj.Name(), posn)
			}
		case *ast.RangeStmt:
			if ast.Unparen(p.X) == node && p.Value != nil {
				pass.Reportf(id.Pos(), "range reads elements of %s, which are accessed atomically at %s; use sync/atomic consistently", obj.Name(), posn)
			}
		}
		// len/cap, reassignment, and passing the header along are fine.
	}
}

// isAddrOf reports whether n is a &-expression.
func isAddrOf(n ast.Node) bool {
	ue, ok := n.(*ast.UnaryExpr)
	return ok && ue.Op == token.AND
}

// markSanctioned records every ident inside an atomic call's arguments
// so phase 2 does not flag the atomic accesses themselves.
func markSanctioned(arg ast.Expr, sanctioned map[token.Pos]bool) {
	ast.Inspect(arg, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			sanctioned[id.Pos()] = true
		}
		return true
	})
}

func isAtomicCall(pass *driver.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "sync/atomic"
}

// referredVar resolves the variable an expression denotes: `x` or
// `a.b.x` (the final field).
func referredVar(pass *driver.Pass, e ast.Expr) *types.Var {
	switch e := e.(type) {
	case *ast.Ident:
		v, _ := pass.TypesInfo.Uses[e].(*types.Var)
		return v
	case *ast.SelectorExpr:
		v, _ := pass.TypesInfo.Uses[e.Sel].(*types.Var)
		return v
	}
	return nil
}
