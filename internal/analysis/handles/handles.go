// Package handles checks the lifetime of snapshot, scan and ref
// handles. An acquisition is a call to a method with a
// resource-returning name (Snapshot, SnapshotTable, Retain,
// ScanPartition, Run and friends — see lintutil.AcqMethods) whose first
// result actually has a Close or Release method; the name list keeps
// ordinary getters out, the method-set check keeps the name list
// honest. One analyzer reports two kinds:
//
//   - snapclose: every acquisition is released. Dropping the result on
//     the floor — a bare call statement, assignment to blank, or a
//     chained call on the unbound result — is always reported. A result
//     bound to a variable must reach a Close/Release on every path
//     through the variable's scope (the failed side of the
//     acquisition's own `if err != nil` or `if err == nil` guard is
//     exempt: the constructor returned no resource), unless somewhere in that scope it is
//     deferred-closed or escapes: returned, passed to another call,
//     stored, aliased or captured by a closure — ownership moved, the
//     receiver is responsible now. Handing on the bound method value
//     (s.Close, as exec.OnClose takes it) or a closeable field of the
//     handle (c.Root of a query.Run result, whose drain releases it)
//     counts. A close inside a loop does not pay for the path that
//     skips the loop.
//   - closeowner: once a handle's release is handed to a new owner —
//     `exec.OnClose(op, s.Close)`, after which the operator tree closes
//     the handle exactly once — the original holder must neither close
//     it again (a double release of a refcount) nor keep using it (a
//     race with the consumer that now drives its lifetime). Reported:
//     a close or any other use after the hand-off, handing it off twice
//     or after an explicit close, handing it off while a deferred close
//     also releases it, and two explicit closes on one path. One
//     deferred close plus an explicit close on some path is the
//     idiomatic safety net (Close is documented idempotent) and allowed.
//
// Both kinds come from one walk per bound handle with per-path state,
// branches walked separately and merged: a close survives a merge only
// when every path closed, a hand-off or deferred close when any did,
// so the ubiquitous `if err != nil { s.Close(); return err }` guard
// neither marks the success path closed nor poisons it.
package handles

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"patchindex/internal/analysis/driver"
	"patchindex/internal/analysis/lintutil"
)

var Analyzer = &driver.Analyzer{
	Name:  "handles",
	Doc:   "check that snapshot/scan handles reach Close or Release on every path, and are neither closed nor used after their release is handed to a new owner",
	Kinds: []string{"snapclose", "closeowner"},
	Run:   run,
}

func run(pass *driver.Pass) (interface{}, error) {
	lintutil.Funcs(pass.Files, func(_ *ast.FuncDecl, body *ast.BlockStmt) {
		var stack []ast.Node
		ast.Inspect(body, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if _, ok := n.(*ast.FuncLit); ok {
				return false // a function body of its own
			}
			stack = append(stack, n)
			if call, ok := n.(*ast.CallExpr); ok && lintutil.IsAcquisition(pass.TypesInfo, call) {
				acquired(pass, call, stack)
			}
			return true
		})
	})
	return nil, nil
}

// acquired looks at where one acquisition's result goes (stack ends at
// the call): dropped, escaping into an expression, or bound to a fresh
// variable whose scope is then walked.
func acquired(pass *driver.Pass, call *ast.CallExpr, stack []ast.Node) {
	name := call.Fun.(*ast.SelectorExpr).Sel.Name
	i := up(stack, len(stack)-1)
	if i < 0 {
		return
	}
	var lhs []ast.Expr
	k, j := 0, i // j: the binding statement
	switch p := stack[i].(type) {
	case *ast.ExprStmt, *ast.DeferStmt, *ast.GoStmt:
		pass.ReportKindf("snapclose", call.Pos(), "result of %s is dropped; it must be closed", name)
		return
	case *ast.SelectorExpr:
		// Chained call on the unbound result: fine only if it is the
		// close itself (t.Snapshot().Close() — pointless but closed).
		if !lintutil.CloseMethods[p.Sel.Name] {
			pass.ReportKindf("snapclose", call.Pos(), "result of %s is used without being bound to a variable; it can never be closed", name)
		}
		return
	case *ast.AssignStmt:
		lhs, k = p.Lhs, valueIndex(p.Rhs, call)
	case *ast.ValueSpec:
		for _, id := range p.Names {
			lhs = append(lhs, id)
		}
		k, j = valueIndex(p.Values, call), i-2 // ValueSpec <- GenDecl <- DeclStmt
	default:
		// Argument, return value, composite literal, &x...: ownership
		// escapes to code we cannot see.
		return
	}
	if k >= len(lhs) || j < 1 {
		return
	}
	id, ok := ast.Unparen(lhs[k]).(*ast.Ident)
	if !ok {
		return // stored straight into a field, map or slice: escapes
	}
	if id.Name == "_" {
		pass.ReportKindf("snapclose", call.Pos(), "result of %s is assigned to _; it must be closed", name)
		return
	}
	v, ok := pass.TypesInfo.Defs[id].(*types.Var)
	if !ok {
		return // re-assigned into an existing variable: untracked
	}
	h := &handle{pass: pass, v: v, acq: call}
	// A trailing error of the binding enables the err-guard exemption.
	if n := len(lhs); n >= 2 {
		if e := localVar(pass.TypesInfo, lhs[n-1]); e != nil && isErrorType(e.Type()) {
			h.errv = e
		}
	}

	// The scope to walk: the statements after the binding in its list,
	// or the if statement whose init it is.
	stmt := stack[j]
	var scope []ast.Stmt
	switch p := stack[j-1].(type) {
	case *ast.BlockStmt:
		scope, ok = after(p.List, stmt)
	case *ast.CaseClause:
		scope, ok = after(p.Body, stmt)
	case *ast.CommClause:
		scope, ok = after(p.Body, stmt)
	case *ast.IfStmt:
		rest := *p
		rest.Init = nil
		scope, ok = []ast.Stmt{&rest}, p.Init == stmt
	default:
		ok = false
	}
	if !ok {
		return
	}
	st := &state{}
	if !h.walkStmts(scope, st) && !st.closed.IsValid() {
		h.leak(call.Pos(), "%s acquired here is not closed on every path", v.Name())
	}
	if !h.escaped {
		for _, l := range h.leaks {
			pass.ReportKindf("snapclose", l.pos, "%s", l.msg)
		}
	}
}

// valueIndex returns which result of a binding receives the resource:
// the call's own position, or 0 for a tuple-returning call.
func valueIndex(values []ast.Expr, call *ast.CallExpr) int {
	for k, e := range values {
		if ast.Unparen(e) == ast.Node(call) {
			return k
		}
	}
	return 0
}

func after(list []ast.Stmt, stmt ast.Node) ([]ast.Stmt, bool) {
	for k, s := range list {
		if s == stmt {
			return list[k+1:], true
		}
	}
	return nil, false
}

func localVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}

func isErrorType(t types.Type) bool {
	iface, ok := t.Underlying().(*types.Interface)
	return ok && iface.NumMethods() == 1 && iface.Method(0).Name() == "Error"
}

// up returns the index of the nearest ancestor of stack[k] that is not
// a parenthesis, -1 for none.
func up(stack []ast.Node, k int) int {
	for k--; k >= 0; k-- {
		if _, ok := stack[k].(*ast.ParenExpr); !ok {
			break
		}
	}
	return k
}

// handle is the walk of one bound acquisition.
type handle struct {
	pass *driver.Pass
	v    *types.Var
	errv *types.Var    // error bound with the handle, for the err guard
	acq  *ast.CallExpr // the acquisition

	// escaped: on some path the handle was deferred-closed or moved to a
	// new owner, so the leak findings below are void.
	escaped bool
	leaks   []leak
}

type leak struct {
	pos token.Pos
	msg string
}

func (h *handle) leak(pos token.Pos, format string, args ...interface{}) {
	h.leaks = append(h.leaks, leak{pos, fmt.Sprintf(format, args...)})
}

// state is the per-path state of one handle.
type state struct {
	closed      token.Pos // first explicit close on this path
	deferClosed token.Pos // a deferred close releases at function exit
	transferred token.Pos // release handed to a new owner
	transferVia string    // the receiving call, e.g. "exec.OnClose"
	dead        bool      // variable re-bound: a different handle from here on
}

func (st *state) clone() *state { c := *st; return &c }

// merge folds another fall-through path into this one. Transfers and
// deferred closes on any path poison the merge (either could have
// happened when execution continues); an explicit close survives only
// when every path closed.
func (st *state) merge(o *state) {
	if !st.transferred.IsValid() && o.transferred.IsValid() {
		st.transferred, st.transferVia = o.transferred, o.transferVia
	}
	if !st.deferClosed.IsValid() && o.deferClosed.IsValid() {
		st.deferClosed = o.deferClosed
	}
	if !o.closed.IsValid() {
		st.closed = token.NoPos
	}
	st.dead = st.dead || o.dead
}

func (h *handle) walkStmts(stmts []ast.Stmt, st *state) (terminated bool) {
	for _, s := range stmts {
		if h.walkStmt(s, st) {
			return true
		}
	}
	return false
}

func (h *handle) walkStmt(s ast.Stmt, st *state) (terminated bool) {
	if st.dead {
		return false
	}
	switch s := s.(type) {
	case *ast.ExprStmt:
		h.scan(s, s.X, st)
	case *ast.DeferStmt:
		h.scan(s, s.Call, st)
	case *ast.GoStmt:
		h.scan(s, s.Call, st)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			h.scan(s, e, st)
		}
		if !st.closed.IsValid() {
			h.leak(s.Pos(), "return without closing %s (acquired at %s)", h.v.Name(), h.pass.Fset.Position(h.acq.Pos()))
		}
		return true
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			h.scan(s, e, st)
		}
		for _, l := range s.Lhs {
			if id, ok := ast.Unparen(l).(*ast.Ident); ok {
				if h.pass.TypesInfo.Uses[id] == h.v {
					st.dead, h.escaped = true, true // re-bound: tracking stops
				}
				continue
			}
			h.scan(s, l, st)
		}
	case *ast.IfStmt:
		h.walkStmt(s.Init, st)
		h.scan(s, s.Cond, st)
		if failed, ok := h.errGuard(s); ok {
			// The constructor failed on one branch: no resource there.
			if failed {
				return s.Else != nil && h.walkStmt(s.Else, st)
			}
			return h.walkStmts(s.Body.List, st)
		}
		alts := [][]ast.Stmt{s.Body.List}
		if s.Else != nil {
			alts = append(alts, []ast.Stmt{s.Else})
		}
		return h.paths(st, alts, s.Else == nil)
	case *ast.ForStmt:
		h.walkStmt(s.Init, st)
		h.scan(s, s.Cond, st)
		h.paths(st, [][]ast.Stmt{s.Body.List}, true)
	case *ast.RangeStmt:
		h.scan(s, s.X, st)
		h.paths(st, [][]ast.Stmt{s.Body.List}, true)
	case *ast.BlockStmt:
		return h.walkStmts(s.List, st)
	case *ast.LabeledStmt:
		return h.walkStmt(s.Stmt, st)
	case *ast.SwitchStmt:
		h.walkStmt(s.Init, st)
		h.scan(s, s.Tag, st)
		return h.clauses(st, s.Body)
	case *ast.TypeSwitchStmt:
		h.walkStmt(s.Init, st)
		return h.clauses(st, s.Body)
	case *ast.SelectStmt:
		return h.clauses(st, s.Body)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						h.scan(s, v, st)
					}
				}
			}
		}
	case *ast.SendStmt:
		h.scan(s, s.Chan, st)
		h.scan(s, s.Value, st)
	case *ast.IncDecStmt:
		h.scan(s, s.X, st)
	}
	return false
}

// clauses walks the case or comm clauses of a switch or select as
// alternative paths; without a default clause, taking none of them is
// one more.
func (h *handle) clauses(st *state, body *ast.BlockStmt) (terminated bool) {
	var alts [][]ast.Stmt
	hasDefault := false
	for _, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			alts = append(alts, c.Body)
			hasDefault = hasDefault || c.List == nil
		case *ast.CommClause:
			alts = append(alts, append([]ast.Stmt{c.Comm}, c.Body...))
			hasDefault = hasDefault || c.Comm == nil
		}
	}
	return h.paths(st, alts, !hasDefault)
}

// paths walks alternative statement lists from the current state and
// merges the states of those that fall through; skip adds the path
// that takes none of them. It reports whether every path terminated.
func (h *handle) paths(st *state, alts [][]ast.Stmt, skip bool) (terminated bool) {
	var out []*state
	for _, alt := range alts {
		if cs := st.clone(); !h.walkStmts(alt, cs) {
			out = append(out, cs)
		}
	}
	if skip {
		out = append(out, st.clone())
	}
	if len(out) == 0 {
		return true
	}
	*st = *out[0]
	for _, o := range out[1:] {
		st.merge(o)
	}
	return false
}

// errGuard matches `if err != nil` (failed: the body is the path where
// the acquisition failed) and `if err == nil` (the else branch is),
// where err came from the same acquisition.
func (h *handle) errGuard(s *ast.IfStmt) (failed, ok bool) {
	if h.errv == nil || s.Init != nil {
		return false, false
	}
	be, ok := s.Cond.(*ast.BinaryExpr)
	if !ok || be.Op != token.NEQ && be.Op != token.EQL {
		return false, false
	}
	isErr := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && h.pass.TypesInfo.Uses[id] == h.errv
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return be.Op == token.NEQ, isErr(be.X) && isNil(be.Y) || isNil(be.X) && isErr(be.Y)
}

// scan visits every appearance of the handle inside one expression of
// statement stmt. Function literals are not entered: capturing the
// handle moves its lifetime into the closure.
func (h *handle) scan(stmt ast.Stmt, e ast.Expr, st *state) {
	if e == nil {
		return
	}
	_, deferred := stmt.(*ast.DeferStmt)
	stack := []ast.Node{stmt}
	ast.Inspect(e, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if lit, ok := n.(*ast.FuncLit); ok {
			h.escaped = h.escaped || h.captured(lit)
			return false
		}
		stack = append(stack, n)
		if id, ok := n.(*ast.Ident); ok && !st.dead && h.pass.TypesInfo.Uses[id] == h.v {
			h.use(id, stack, st, deferred)
		}
		return true
	})
}

func (h *handle) captured(lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && h.pass.TypesInfo.Uses[id] == h.v {
			found = true
		}
		return !found
	})
	return found
}

// use classifies one appearance of the handle (stack ends at id): a
// close, a hand-off of the bound release method, or a plain use — which
// may still move ownership.
func (h *handle) use(id *ast.Ident, stack []ast.Node, st *state, deferred bool) {
	// i indexes the parent of the expression standing for the handle:
	// id, or a closeable field of it (c.Root of a query.Run result), the
	// handle's resource.
	i := up(stack, len(stack)-1)
	for i >= 0 {
		sel, ok := stack[i].(*ast.SelectorExpr)
		if !ok || !h.closeableField(sel) {
			break
		}
		i = up(stack, i)
	}
	if i >= 0 {
		if sel, ok := stack[i].(*ast.SelectorExpr); ok && lintutil.CloseMethods[sel.Sel.Name] {
			// x.Close() is a close, the bound x.Close a hand-off.
			if j := up(stack, i); j >= 0 {
				if call, ok := stack[j].(*ast.CallExpr); ok && ast.Unparen(call.Fun) == ast.Node(sel) {
					h.close(st, call.Pos(), deferred)
					return
				}
			}
			h.escaped = true
			if via, ok := handOffTarget(stack[:i]); ok {
				h.transfer(st, sel.Pos(), via)
			} else {
				st.dead = true // stored somewhere we cannot follow
			}
			return
		}
	}
	if st.transferred.IsValid() {
		h.pass.ReportKindf("closeowner", id.Pos(), "%s used after its release was handed to %s at %s; the new owner drives its lifetime now",
			h.v.Name(), st.transferVia, h.pass.Fset.Position(st.transferred))
	}
	h.escaped = h.escaped || escapes(stack, i, id)
}

// escapes reports whether the value at stack[i+1] moves ownership:
// passed to a call, returned, stored, sent, address-taken, or — when
// it is the handle variable id itself — aliased into another variable.
func escapes(stack []ast.Node, i int, id *ast.Ident) bool {
	for ; i >= 0; i-- {
		child := stack[i+1]
		switch p := stack[i].(type) {
		case *ast.ParenExpr, *ast.DeferStmt, *ast.BinaryExpr, *ast.StarExpr, *ast.TypeAssertExpr:
		case *ast.IndexExpr:
			if p.Index == child {
				return false
			}
		case *ast.CallExpr:
			for _, a := range p.Args {
				if a == child {
					return true
				}
			}
			return false
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt:
			return true
		case *ast.UnaryExpr:
			return p.Op == token.AND
		case *ast.AssignStmt:
			return child == ast.Node(id)
		default:
			return false
		}
	}
	return false
}

// closeableField reports whether sel picks a struct field whose type is
// itself closeable — the operator a Run result wraps. Handing that
// field on, or closing it, is handing on or closing the handle.
func (h *handle) closeableField(sel *ast.SelectorExpr) bool {
	s, ok := h.pass.TypesInfo.Selections[sel]
	return ok && s.Kind() == types.FieldVal && lintutil.Closeable(s.Type())
}

// handOffTarget reports where a bound release method goes: the call it
// is an argument of ("exec.OnClose"), or "the caller" when returned.
func handOffTarget(stack []ast.Node) (string, bool) {
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr, *ast.CompositeLit, *ast.KeyValueExpr:
			continue // a struct of callbacks handed along; keep looking up
		case *ast.CallExpr:
			return types.ExprString(p.Fun), true
		case *ast.ReturnStmt:
			return "the caller", true
		default:
			return "", false
		}
	}
	return "", false
}

func (h *handle) close(st *state, pos token.Pos, deferred bool) {
	name, fset := h.v.Name(), h.pass.Fset
	if deferred {
		h.escaped = true // released on every exit: nothing can leak
	}
	if st.transferred.IsValid() {
		kind := "close"
		if deferred {
			kind = "deferred close"
		}
		h.pass.ReportKindf("closeowner", pos, "%s of %s after its release was handed to %s at %s; the new owner closes it",
			kind, name, st.transferVia, fset.Position(st.transferred))
		return
	}
	if deferred {
		if !st.deferClosed.IsValid() {
			st.deferClosed = pos
		}
		return
	}
	// One deferred close plus an explicit close on some path is the
	// idiomatic safety net (Close is idempotent); two explicit closes
	// on one path are a plain double close.
	if st.closed.IsValid() {
		h.pass.ReportKindf("closeowner", pos, "%s closed twice (first closed at %s)", name, fset.Position(st.closed))
		return
	}
	st.closed = pos
}

func (h *handle) transfer(st *state, pos token.Pos, via string) {
	name, fset := h.v.Name(), h.pass.Fset
	switch {
	case st.transferred.IsValid():
		h.pass.ReportKindf("closeowner", pos, "release of %s handed to %s, but it was already handed to %s at %s",
			name, via, st.transferVia, fset.Position(st.transferred))
	case st.closed.IsValid():
		h.pass.ReportKindf("closeowner", pos, "release of %s handed to %s after %s was already closed at %s",
			name, via, name, fset.Position(st.closed))
	}
	if st.deferClosed.IsValid() {
		h.pass.ReportKindf("closeowner", pos, "release of %s handed to %s, but a deferred close at %s also releases it at function exit",
			name, via, fset.Position(st.deferClosed))
	}
	if !st.transferred.IsValid() {
		st.transferred, st.transferVia = pos, via
	}
}
