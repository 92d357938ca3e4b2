// Package lintutil holds the small AST/type helpers shared by the
// pilint analyzers.
package lintutil

import (
	"go/ast"
	"go/types"
	"strings"
)

// MutexKind reports how expr's type participates in locking: "mutex"
// for sync.Mutex, "rwmutex" for sync.RWMutex (pointers included), ""
// otherwise.
func MutexKind(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return ""
	}
	switch obj.Name() {
	case "Mutex":
		return "mutex"
	case "RWMutex":
		return "rwmutex"
	}
	return ""
}

// LockMethod classifies a method name: acquire=true for Lock/RLock,
// acquire=false for Unlock/RUnlock; read reports the R-variants.
// ok=false for anything else.
func LockMethod(name string) (acquire, read, ok bool) {
	switch name {
	case "Lock":
		return true, false, true
	case "RLock":
		return true, true, true
	case "Unlock":
		return false, false, true
	case "RUnlock":
		return false, true, true
	}
	return false, false, false
}

// LockCall decomposes a call of the form <expr>.Lock() (or
// RLock/Unlock/RUnlock) where <expr> is mutex-typed. It returns the
// mutex expression and the method name.
func LockCall(info *types.Info, call *ast.CallExpr) (mutex ast.Expr, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || len(call.Args) != 0 {
		return nil, "", false
	}
	if _, _, isLock := LockMethod(sel.Sel.Name); !isLock {
		return nil, "", false
	}
	if MutexKind(info.TypeOf(sel.X)) == "" {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

// FieldVar resolves the variable a mutex expression denotes: for
// `t.mu` the field object, for `mu` the (package- or function-level)
// variable, for `t.pmu[i]` the slice field (index stripped). base is
// the expression with any index stripped.
func FieldVar(info *types.Info, expr ast.Expr) (v *types.Var, base ast.Expr) {
	base = expr
	if ix, ok := base.(*ast.IndexExpr); ok {
		base = ix.X
	}
	switch e := base.(type) {
	case *ast.SelectorExpr:
		if obj, ok := info.Uses[e.Sel].(*types.Var); ok {
			return obj, base
		}
	case *ast.Ident:
		if obj, ok := info.Uses[e].(*types.Var); ok {
			return obj, base
		}
	}
	return nil, base
}

// Funcs invokes fn for every function body in the files: declarations
// and function literals alike. Literals are visited as independent
// functions (decl is nil for them).
func Funcs(files []*ast.File, fn func(decl *ast.FuncDecl, body *ast.BlockStmt)) {
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn(fd, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					fn(nil, lit.Body)
					return false
				}
				return true
			})
		}
	}
}

// AcqMethods names the resource constructors across the engine,
// storage, query, and tpch packages, whose results the handles
// analyzer tracks. A call only counts when its first result is
// closeable (see IsAcquisition), so a same-named function elsewhere
// that returns plain data (t.Run, cmd.Run) is ignored.
var AcqMethods = map[string]bool{
	"Snapshot":         true,
	"MustSnapshot":     true,
	"SnapshotTable":    true,
	"ScanPartition":    true,
	"Run":              true,
	"Retain":           true,
	"RetainPartitions": true,
	"Queries":          true,
	"QueriesAt":        true,
}

// CloseMethods names the release entry points of acquired handles.
var CloseMethods = map[string]bool{"Close": true, "Release": true}

// IsAcquisition reports whether call invokes a listed method or
// function — or a func-typed variable re-exporting one, as the facade's
// `var Run = query.Run` does — whose first result is closeable.
func IsAcquisition(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !AcqMethods[sel.Sel.Name] {
		return false
	}
	obj := info.Uses[sel.Sel]
	if obj == nil {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	return Closeable(sig.Results().At(0).Type())
}

// Closeable reports whether t has a no-argument Close or Release
// method.
func Closeable(t types.Type) bool {
	for name := range CloseMethods {
		obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
		if m, ok := obj.(*types.Func); ok {
			if sig, ok := m.Type().(*types.Signature); ok && sig.Params().Len() == 0 {
				return true
			}
		}
	}
	return false
}

// IsBuiltinCall reports whether a call invokes a builtin (len, cap,
// append, ...) or a type conversion — calls that cannot panic in a way
// a deferred unlock must guard, or that are not calls at all.
func IsBuiltinCall(info *types.Info, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj := info.Uses[fun]; obj != nil {
			if _, isBuiltin := obj.(*types.Builtin); isBuiltin {
				return true
			}
			if _, isType := obj.(*types.TypeName); isType {
				return true // conversion
			}
		}
	case *ast.SelectorExpr:
		if obj := info.Uses[fun.Sel]; obj != nil {
			if _, isType := obj.(*types.TypeName); isType {
				return true
			}
		}
	case *ast.ArrayType, *ast.MapType, *ast.InterfaceType, *ast.StarExpr:
		return true // conversion via type literal
	}
	return false
}

// HasPrefixFold reports whether s starts with prefix, ASCII
// case-insensitively on the first letter — "lockPartition" and
// "LockAll" both match prefix "lock".
func HasPrefixFold(s, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	return strings.EqualFold(s[:len(prefix)], prefix)
}
