// Package snapclose checks that acquired snapshot and scan handles are
// released on every path.
//
// An acquisition is a call to a method with a resource-returning name
// (Snapshot, SnapshotTable, Retain, ScanPartition, and friends — see
// acqMethods) whose first result actually has a Close or Release
// method; the name list keeps ordinary getters out, the method-set
// check keeps the name list honest. Every acquisition must flow into
// one of:
//
//   - a defer'd Close/Release;
//   - a Close/Release call on every non-error path (a return inside an
//     `if err != nil` guard of the acquiring call is exempt: the
//     constructor failed and returned no resource);
//   - an escape: returned, passed to another call, stored in a struct
//     or captured by a closure — ownership moved, the receiver is
//     responsible now. Passing the bound method value (s.Close) counts:
//     that is how exec.OnClose takes ownership. So does passing a
//     closeable field of the handle (c.Root of a query.Run result): the
//     field is the handle's resource, and whoever drains it releases it.
//
// Dropping the result on the floor — a bare call statement, assignment
// to blank, or a chained call on the unbound result — is always
// reported. Close calls inside loops the acquisition is not part of do
// not count: one close cannot pay for N iterations.
package snapclose

import (
	"go/ast"
	"go/token"
	"go/types"

	"patchindex/internal/analysis/driver"
	"patchindex/internal/analysis/lintutil"
)

var Analyzer = &driver.Analyzer{
	Name: "snapclose",
	Doc:  "check that snapshot/scan handles reach Close or Release on every path",
	Run:  run,
}

func run(pass *driver.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBody(pass, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkBody(pass, lit.Body)
					return false
				}
				return true
			})
		}
	}
	return nil, nil
}

// checkBody audits one function body, not descending into nested
// function literals (each is audited on its own; a variable used
// across the boundary counts as an escape).
func checkBody(pass *driver.Pass, body *ast.BlockStmt) {
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if _, ok := n.(*ast.FuncLit); ok && n != ast.Node(body) {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || !lintutil.IsAcquisition(pass.TypesInfo, call) {
			return true
		}
		classify(pass, body, call, stack)
		return true
	})
}

// classify looks at where an acquisition's result goes.
func classify(pass *driver.Pass, body *ast.BlockStmt, call *ast.CallExpr, stack []ast.Node) {
	name := call.Fun.(*ast.SelectorExpr).Sel.Name
	// Parent above the call, skipping parens.
	i := len(stack) - 2
	for i >= 0 {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			i--
			continue
		}
		break
	}
	if i < 0 {
		return
	}
	switch parent := stack[i].(type) {
	case *ast.ExprStmt:
		pass.Reportf(call.Pos(), "result of %s is dropped; it must be closed", name)
	case *ast.DeferStmt, *ast.GoStmt:
		pass.Reportf(call.Pos(), "result of %s is dropped; it must be closed", name)
	case *ast.SelectorExpr:
		// Chained call on the unbound result: fine only if it is the
		// close itself (t.Snapshot().Close() — pointless but closed).
		if !lintutil.CloseMethods[parent.Sel.Name] {
			pass.Reportf(call.Pos(), "result of %s is used without being bound to a variable; it can never be closed", name)
		}
	case *ast.AssignStmt:
		trackAssign(pass, body, call, parent, stack[:i])
	case *ast.ValueSpec:
		trackSpec(pass, body, call, parent, stack[:i])
	default:
		// Argument, return value, composite literal, &x, type
		// assertion...: ownership escapes to code we cannot see.
	}
}

// resultVars pins down which identifier received the resource (always
// result 0) and, for tuple assigns, which received a trailing error.
func resultVars(pass *driver.Pass, lhs []ast.Expr, rhsIdx, nLhs int) (res, errv *types.Var, blank bool, direct bool) {
	resolve := func(e ast.Expr) (*types.Var, bool) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil, false
		}
		if id.Name == "_" {
			return nil, true
		}
		if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
			return v, false
		}
		v, _ := pass.TypesInfo.Uses[id].(*types.Var)
		return v, false
	}
	if nLhs > rhsIdx {
		var isBlank bool
		res, isBlank = resolve(lhs[rhsIdx])
		if isBlank {
			return nil, nil, true, true
		}
		if res == nil {
			return nil, nil, false, false // stored into a field or index: escape
		}
	}
	// A trailing error in a tuple assign enables the err-guard
	// exemption.
	if nLhs >= 2 {
		if last, _ := resolve(lhs[nLhs-1]); last != nil && isErrorType(last.Type()) {
			errv = last
		}
	}
	return res, errv, false, true
}

func isErrorType(t types.Type) bool {
	iface, ok := t.Underlying().(*types.Interface)
	return ok && iface.NumMethods() == 1 && iface.Method(0).Name() == "Error"
}

func trackAssign(pass *driver.Pass, body *ast.BlockStmt, call *ast.CallExpr, assign *ast.AssignStmt, above []ast.Node) {
	name := call.Fun.(*ast.SelectorExpr).Sel.Name
	rhsIdx := 0
	for k, r := range assign.Rhs {
		if ast.Unparen(r) == ast.Node(call) {
			rhsIdx = k
		}
	}
	lhsIdx := rhsIdx
	if len(assign.Rhs) == 1 && len(assign.Lhs) > 1 {
		lhsIdx = 0 // tuple assign: resource is result 0
	}
	res, errv, blank, direct := resultVars(pass, assign.Lhs, lhsIdx, len(assign.Lhs))
	if blank {
		pass.Reportf(call.Pos(), "result of %s is assigned to _; it must be closed", name)
		return
	}
	if !direct || res == nil {
		return // stored straight into a field/map/slice: escape
	}
	audit(pass, body, call, assign, res, errv, above)
}

func trackSpec(pass *driver.Pass, body *ast.BlockStmt, call *ast.CallExpr, spec *ast.ValueSpec, above []ast.Node) {
	if len(spec.Names) == 0 {
		return
	}
	name := spec.Names[0]
	if name.Name == "_" {
		pass.Reportf(call.Pos(), "result of %s is assigned to _; it must be closed", call.Fun.(*ast.SelectorExpr).Sel.Name)
		return
	}
	res, ok := pass.TypesInfo.Defs[name].(*types.Var)
	if !ok {
		return
	}
	var errv *types.Var
	if n := len(spec.Names); n >= 2 {
		if last, ok := pass.TypesInfo.Defs[spec.Names[n-1]].(*types.Var); ok && isErrorType(last.Type()) {
			errv = last
		}
	}
	// The enclosing statement is the DeclStmt above the GenDecl.
	for i := len(above) - 1; i >= 0; i-- {
		if ds, ok := above[i].(*ast.DeclStmt); ok {
			audit(pass, body, call, ds, res, errv, above[:i])
			return
		}
	}
}

// audit runs the escape prescan and then the path analysis for one
// tracked resource variable.
func audit(pass *driver.Pass, body *ast.BlockStmt, call *ast.CallExpr, stmt ast.Stmt, res, errv *types.Var, above []ast.Node) {
	w := &walker{pass: pass, res: res, errv: errv, call: call}
	if w.prescan(body) {
		return // escaped or defer-closed: handled
	}
	list, idx, inFuncBody := enclosingList(body, above, stmt)
	if list == nil {
		return
	}
	closed, terminated := w.scan(list[idx+1:])
	if closed || terminated {
		return
	}
	if !inFuncBody && w.closedLaterThan(body, list[len(list)-1].End()) {
		return // falls out of a nested block; a later close picks it up
	}
	pass.Reportf(call.Pos(), "%s acquired here is not closed on every path", res.Name())
}

// enclosingList finds the statement list directly containing stmt.
func enclosingList(body *ast.BlockStmt, above []ast.Node, stmt ast.Stmt) (list []ast.Stmt, idx int, inFuncBody bool) {
	var candidate []ast.Stmt
	var isBody bool
	if len(above) == 0 {
		return nil, 0, false
	}
	switch p := above[len(above)-1].(type) {
	case *ast.BlockStmt:
		candidate, isBody = p.List, p == body
	case *ast.CaseClause:
		candidate = p.Body
	case *ast.CommClause:
		candidate = p.Body
	case *ast.IfStmt:
		// Acquisition in an if Init: the guarded body is the scope.
		if p.Init == stmt {
			return p.Body.List, -1, false
		}
		return nil, 0, false
	default:
		return nil, 0, false
	}
	for k, s := range candidate {
		if s == stmt {
			return candidate, k, isBody
		}
	}
	return nil, 0, false
}

type walker struct {
	pass *driver.Pass
	res  *types.Var
	errv *types.Var
	call *ast.CallExpr
}

// prescan decides whether the resource escapes (returned, passed,
// stored, aliased, captured) or is defer-closed; either way the path
// analysis is unnecessary.
func (w *walker) prescan(body *ast.BlockStmt) bool {
	handled := false
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		id, ok := n.(*ast.Ident)
		if !ok || w.pass.TypesInfo.Uses[id] != w.res {
			return true
		}
		if w.useEscapes(id, stack) {
			handled = true
		}
		return true
	})
	return handled
}

// useEscapes classifies one use of the resource variable.
func (w *walker) useEscapes(id *ast.Ident, stack []ast.Node) bool {
	// The node denoting the value: the ident itself.
	for i := len(stack) - 2; i >= 0; i-- {
		child := stack[i+1]
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			continue
		case *ast.SelectorExpr:
			if p.X != child {
				return false // our ident IS the selector name of something else
			}
			if w.closeableField(p) {
				continue // c.Root stands for c from here up
			}
			if !lintutil.CloseMethods[p.Sel.Name] {
				return false // reading a field / calling another method: plain use
			}
			// s.Close — method value or call?
			if i > 0 {
				if grand, ok := stack[i-1].(*ast.CallExpr); ok && grand.Fun == ast.Node(p) {
					// The close call itself: handled here only when
					// deferred; otherwise the path analysis weighs it.
					return isDeferred(stack[:i-1])
				}
			}
			return true // bound method value passed along: ownership moved
		case *ast.CallExpr:
			for _, a := range p.Args {
				if a == child {
					return true // passed to a call
				}
			}
			return false
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt:
			return true
		case *ast.UnaryExpr:
			if p.Op == token.AND {
				return true
			}
			return false
		case *ast.AssignStmt:
			// The defining ident lives in Defs, not Uses, so any LHS
			// appearance seen here is a re-binding: tracking is muddied,
			// call it handled rather than guess.
			for _, l := range p.Lhs {
				if ast.Unparen(l) == child && child == ast.Node(id) {
					return true
				}
			}
			for _, r := range p.Rhs {
				if ast.Unparen(r) == child && child == ast.Node(id) {
					return true // aliased into another variable
				}
			}
			return false
		case *ast.FuncLit:
			return true // captured by a closure
		case *ast.DeferStmt:
			continue
		case *ast.IndexExpr:
			if p.Index == child {
				return false
			}
			continue
		case *ast.ExprStmt, *ast.BlockStmt, *ast.IfStmt, *ast.ForStmt,
			*ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt,
			*ast.CaseClause, *ast.CommClause, *ast.SelectStmt,
			*ast.LabeledStmt, *ast.IncDecStmt, *ast.GoStmt:
			return false
		case *ast.BinaryExpr, *ast.StarExpr, *ast.TypeAssertExpr:
			continue
		default:
			_ = p
			return false
		}
	}
	return false
}

// closeableField reports whether sel picks a struct field whose type is
// itself closeable — the operator a Run result wraps. Handing that
// field on, or closing it, is handing on or closing the handle.
func (w *walker) closeableField(sel *ast.SelectorExpr) bool {
	s, ok := w.pass.TypesInfo.Selections[sel]
	return ok && s.Kind() == types.FieldVal && lintutil.Closeable(s.Type())
}

// isDeferred reports whether the enclosing statement chain passes
// through a defer, without crossing a function-literal boundary.
func isDeferred(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.DeferStmt:
			return true
		case *ast.FuncLit:
			return false
		}
	}
	return false
}

// scan walks a statement list with the resource open. It reports
// returns that leak, and returns whether the fallthrough path closed
// the resource and whether every path exits before falling through.
func (w *walker) scan(stmts []ast.Stmt) (closed, terminated bool) {
	for _, s := range stmts {
		if closed {
			return true, false
		}
		switch s := s.(type) {
		case *ast.ExprStmt:
			if w.isCloseCall(s.X) {
				closed = true
			}
		case *ast.ReturnStmt:
			if !closed {
				w.pass.Reportf(s.Pos(), "return without closing %s (acquired at %s)",
					w.res.Name(), w.pass.Fset.Position(w.call.Pos()))
			}
			return closed, true
		case *ast.IfStmt:
			if w.isErrGuard(s) {
				// The constructor failed: no resource to close in there.
				if s.Else != nil {
					if eb, ok := s.Else.(*ast.BlockStmt); ok {
						c, t := w.scan(eb.List)
						if t {
							return closed, false // success path returned; keep going is moot
						}
						closed = closed || c
					}
				}
				continue
			}
			bc, bt := w.scan(s.Body.List)
			ec, et := closed, false
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				ec, et = w.scan(e.List)
			case *ast.IfStmt:
				ec, et = w.scan([]ast.Stmt{e})
			}
			switch {
			case bt && et:
				return closed, true
			case bt:
				closed = ec
			case et:
				closed = bc
			default:
				closed = bc && ec
			}
		case *ast.BlockStmt:
			c, t := w.scan(s.List)
			if t {
				return closed, true
			}
			closed = c
		case *ast.ForStmt, *ast.RangeStmt:
			// Paths inside the loop (close-then-return) are checked
			// normally, but a close falling out of the loop cannot pay
			// for the fallthrough: the loop may run zero times.
			var body []ast.Stmt
			if f, ok := s.(*ast.ForStmt); ok {
				body = f.Body.List
			} else {
				body = s.(*ast.RangeStmt).Body.List
			}
			w.scan(body)
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			// Conservative: case bodies may close on some paths only;
			// returns inside still get checked, fallthrough state is
			// unchanged.
			var bodies [][]ast.Stmt
			switch sw := s.(type) {
			case *ast.SwitchStmt:
				for _, c := range sw.Body.List {
					if cc, ok := c.(*ast.CaseClause); ok {
						bodies = append(bodies, cc.Body)
					}
				}
			case *ast.TypeSwitchStmt:
				for _, c := range sw.Body.List {
					if cc, ok := c.(*ast.CaseClause); ok {
						bodies = append(bodies, cc.Body)
					}
				}
			case *ast.SelectStmt:
				for _, c := range sw.Body.List {
					if cc, ok := c.(*ast.CommClause); ok {
						bodies = append(bodies, cc.Body)
					}
				}
			}
			allClose, allAny := true, len(bodies) > 0
			for _, b := range bodies {
				c, t := w.scan(b)
				if !c && !t {
					allClose = false
				}
			}
			if allAny && allClose && hasDefaultClause(s) {
				closed = true
			}
		case *ast.LabeledStmt:
			c, t := w.scan([]ast.Stmt{s.Stmt})
			if t {
				return closed, true
			}
			closed = c
		}
	}
	return closed, false
}

func hasDefaultClause(s ast.Stmt) bool {
	var clauses []ast.Stmt
	switch sw := s.(type) {
	case *ast.SwitchStmt:
		clauses = sw.Body.List
	case *ast.TypeSwitchStmt:
		clauses = sw.Body.List
	case *ast.SelectStmt:
		clauses = sw.Body.List
	}
	for _, c := range clauses {
		switch cc := c.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				return true
			}
		case *ast.CommClause:
			if cc.Comm == nil {
				return true
			}
		}
	}
	return false
}

// isErrGuard matches `if err != nil` where err came from the same
// acquisition.
func (w *walker) isErrGuard(s *ast.IfStmt) bool {
	if w.errv == nil || s.Init != nil {
		return false
	}
	be, ok := s.Cond.(*ast.BinaryExpr)
	if !ok || be.Op != token.NEQ {
		return false
	}
	isErr := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && w.pass.TypesInfo.Uses[id] == w.errv
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return isErr(be.X) && isNil(be.Y) || isNil(be.X) && isErr(be.Y)
}

func (w *walker) isCloseCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !lintutil.CloseMethods[sel.Sel.Name] {
		return false
	}
	x := ast.Unparen(sel.X)
	if f, ok := x.(*ast.SelectorExpr); ok && w.closeableField(f) {
		x = ast.Unparen(f.X) // c.Root.Close() closes c
	}
	id, ok := x.(*ast.Ident)
	return ok && w.pass.TypesInfo.Uses[id] == w.res
}

// closedLaterThan reports whether some close call on the resource
// appears after pos — used when the resource survives a nested block.
func (w *walker) closedLaterThan(body *ast.BlockStmt, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && call.Pos() > pos && w.isCloseCall(call) {
			found = true
		}
		return true
	})
	return found
}
