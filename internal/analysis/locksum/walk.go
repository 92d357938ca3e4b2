package locksum

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"patchindex/internal/analysis/driver"
	"patchindex/internal/analysis/lintutil"
)

// Ctx carries the per-occurrence context a Handler needs alongside an
// Event: where it happened, whether it is deferred to function exit,
// and — in check mode — the instance identity resolved into the
// current function's frame.
type Ctx struct {
	Pos      token.Pos
	Deferred bool // event applies at function exit (deferred unlock)
	FromCall bool // event replayed out of a callee summary at a call site
	Cut      bool // that summary was truncated at its event cap: its tail is lost

	// Check-mode instance resolution for lock events: the full instance
	// string in the current frame ("t.pmu", "tbl.store.regMu") and
	// whether it involves a loop variable (distinct per iteration).
	Inst  string
	Multi bool
}

// A Handler consumes the walker's event stream. The recorder (building
// raw summaries) and the lockorder checker implement it.
type Handler interface {
	Event(ev Event, ctx Ctx)
}

// Walker simulates one function body in source order, reporting every
// mutex acquisition, release, potentially-blocking operation, and —
// depending on mode — either the static calls it makes (record mode,
// Resolve nil) or the replayed lock behavior of those calls (check
// mode, Resolve set to look up flattened summaries).
//
// Approximations, chosen to stay quiet rather than clever: branches
// are walked in order against a single stream, loop bodies are walked
// once, goroutine bodies belong to their own analysis, and receivers
// that involve a loop variable are flagged Multi (distinct instances
// per iteration).
type Walker struct {
	Pass    *driver.Pass
	Mutexes map[*types.Var]MutexInfo
	RecvObj *types.Var

	// Resolve returns the flattened summary of a static callee, nil for
	// none. When Resolve is nil the walker is in record mode and emits
	// CallEv placeholders instead.
	Resolve func(*types.Func) *FuncSummary

	H Handler

	loopVars       map[*types.Var]loopVar
	suppressBlocks bool // inside select comm clauses: the select already blocked
}

type loopDir int

const (
	loopAscending loopDir = iota
	loopDescending
)

type loopVar struct {
	dir      loopDir
	fromZero bool
}

// WalkBody walks a statement list (normally a function body).
func (w *Walker) WalkBody(stmts []ast.Stmt) {
	if w.loopVars == nil {
		w.loopVars = make(map[*types.Var]loopVar)
	}
	for _, s := range stmts {
		w.walkStmt(s)
	}
}

func (w *Walker) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.ExprStmt:
		w.scanExpr(s.X)
	case *ast.DeferStmt:
		w.walkDefer(s.Call)
	case *ast.GoStmt:
		// Runs concurrently; its effects are not part of this stream.
		// The goroutine body itself is analyzed as its own function.
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.scanExpr(e)
		}
		for _, e := range s.Lhs {
			w.scanExpr(e)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.scanExpr(e)
		}
	case *ast.IfStmt:
		w.walkStmt(s.Init)
		w.scanExpr(s.Cond)
		w.WalkBody(s.Body.List)
		w.walkStmt(s.Else)
	case *ast.ForStmt:
		w.walkStmt(s.Init)
		if s.Cond != nil {
			w.scanExpr(s.Cond)
		}
		obj, lv, ok := forLoopVar(w.Pass, s)
		if ok {
			w.loopVars[obj] = lv
		}
		w.WalkBody(s.Body.List)
		if ok {
			delete(w.loopVars, obj)
		}
	case *ast.RangeStmt:
		w.scanExpr(s.X)
		if t := w.Pass.TypesInfo.TypeOf(s.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				w.block("range over channel", s.For)
			}
		}
		obj, ok := rangeKeyVar(w.Pass, s)
		if ok {
			w.loopVars[obj] = loopVar{dir: loopAscending, fromZero: true}
		}
		// The range value variable also identifies per-iteration state.
		if vobj, vok := rangeValueVar(w.Pass, s); vok {
			w.loopVars[vobj] = loopVar{dir: loopAscending, fromZero: true}
			defer delete(w.loopVars, vobj)
		}
		w.WalkBody(s.Body.List)
		if ok {
			delete(w.loopVars, obj)
		}
	case *ast.BlockStmt:
		w.WalkBody(s.List)
	case *ast.SwitchStmt:
		w.walkStmt(s.Init)
		if s.Tag != nil {
			w.scanExpr(s.Tag)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.WalkBody(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		w.walkStmt(s.Init)
		w.walkStmt(s.Assign)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.WalkBody(cc.Body)
			}
		}
	case *ast.SelectStmt:
		// A select without a default clause blocks until some case is
		// ready; the individual comm operations inside it do not block
		// beyond that, so they are suppressed while the clauses walk.
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			w.block("select", s.Select)
		}
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			old := w.suppressBlocks
			w.suppressBlocks = true
			w.walkStmt(cc.Comm)
			w.suppressBlocks = old
			w.WalkBody(cc.Body)
		}
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scanExpr(v)
					}
				}
			}
		}
	case *ast.SendStmt:
		w.scanExpr(s.Chan)
		w.scanExpr(s.Value)
		w.block("channel send", s.Arrow)
	case *ast.IncDecStmt:
		w.scanExpr(s.X)
	}
}

// walkDefer handles `defer f()`. A deferred acquire takes effect
// immediately; a deferred release applies at function exit, which the
// handler sees via Ctx.Deferred (the recorder queues it after the
// stream, the checker keeps the lock held). A deferred call to a
// helper likewise applies at exit: record mode emits a deferred CallEv
// for the flattener to splice at stream end, check mode ignores it —
// whatever the helper does happens after the body's ordering is done.
func (w *Walker) walkDefer(call *ast.CallExpr) {
	if mutex, method, ok := lintutil.LockCall(w.Pass.TypesInfo, call); ok {
		acquire, read, _ := lintutil.LockMethod(method)
		w.lockCall(call, mutex, acquire, read, !acquire)
		return
	}
	fn := w.staticCallee(call)
	if fn == nil || w.Resolve != nil {
		return
	}
	w.H.Event(w.callEvent(call, fn, true), Ctx{Pos: call.Pos(), Deferred: true})
}

// scanExpr visits calls and channel receives inside an expression,
// innermost first, without descending into function literals (those
// are analyzed separately).
func (w *Walker) scanExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.scanExpr(n.X)
				w.block("channel receive", n.OpPos)
				return false
			}
		case *ast.CallExpr:
			for _, a := range n.Args {
				w.scanExpr(a)
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				w.scanExpr(sel.X)
			}
			w.handleCall(n)
			return false
		}
		return true
	})
}

func (w *Walker) handleCall(call *ast.CallExpr) {
	if mutex, method, ok := lintutil.LockCall(w.Pass.TypesInfo, call); ok {
		acquire, read, _ := lintutil.LockMethod(method)
		w.lockCall(call, mutex, acquire, read, false)
		return
	}
	if op, ok := blockingCall(w.Pass, call); ok {
		w.block(op, call.Pos())
		return
	}
	fn := w.staticCallee(call)
	if fn == nil {
		return
	}
	if w.Resolve == nil {
		w.H.Event(w.callEvent(call, fn, false), Ctx{Pos: call.Pos()})
		return
	}
	if sum := w.Resolve(fn); sum != nil && len(sum.Events) > 0 {
		w.replay(call, sum)
	}
}

// staticCallee resolves a call to its static *types.Func target —
// any package; the consumer decides whether facts exist for it.
func (w *Walker) staticCallee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := w.Pass.TypesInfo.Uses[id].(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	return fn
}

// callEvent builds the CallEv placeholder for record mode, describing
// the call's receiver in the caller's frame so the flattener can
// re-root the callee's receiver-relative events.
func (w *Walker) callEvent(call *ast.CallExpr, fn *types.Func, deferred bool) Event {
	ev := Event{
		Kind:     CallEv,
		Callee:   fn.FullName(),
		Deferred: deferred,
		Posn:     ShortPosn(w.Pass.Fset, call.Pos()),
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ev // plain function call: no receiver
	}
	x := ast.Unparen(sel.X)
	if id, isIdent := x.(*ast.Ident); isIdent {
		if _, isPkg := w.Pass.TypesInfo.Uses[id].(*types.PkgName); isPkg {
			return ev // qualified call (storage.F): no receiver
		}
		if w.RecvObj != nil && w.Pass.TypesInfo.Uses[id] == w.RecvObj {
			ev.Rooted = true // t.helper(): callee paths stay receiver-relative
			return ev
		}
	}
	if path, rooted := w.receiverPath(x); rooted {
		ev.Rooted = true
		ev.RecvPath = path
		return ev
	}
	ev.Inst = types.ExprString(sel.X)
	ev.Multi = w.mentionsLoopVar(sel.X)
	return ev
}

// lockCall processes a direct mutex method call.
func (w *Walker) lockCall(call *ast.CallExpr, mutex ast.Expr, acquire, read, deferred bool) {
	kind := Acquire
	if !acquire {
		kind = Release
	}
	ev, ok := w.eventFor(mutex, kind, read, call.Pos())
	if !ok {
		return
	}
	_, base := lintutil.FieldVar(w.Pass.TypesInfo, mutex)
	w.H.Event(ev, Ctx{
		Pos:      call.Pos(),
		Deferred: deferred,
		Inst:     types.ExprString(base),
		Multi:    w.mentionsLoopVar(base),
	})
}

// eventFor builds the summary event for a direct lock call,
// resolving the mutex to its canonical ID and rank — through the
// defining package's facts when it is foreign.
func (w *Walker) eventFor(mutex ast.Expr, kind Kind, read bool, pos token.Pos) (Event, bool) {
	obj, base := lintutil.FieldVar(w.Pass.TypesInfo, mutex)
	if obj == nil {
		return Event{}, false
	}
	info, ok := w.Mutexes[obj]
	if !ok {
		if info, ok = foreignMutex(w.Pass, obj, base); !ok {
			return Event{}, false
		}
	}
	ev := Event{
		Kind:  kind,
		Mutex: info.ID,
		Rank:  info.Rank,
		Slice: info.Slice,
		Read:  read,
		Expr:  types.ExprString(mutex),
		Posn:  ShortPosn(w.Pass.Fset, pos),
	}
	if info.Slice {
		ev.Idx, ev.Index, ev.FromZero = w.classifyIndex(mutex)
	}
	if path, rooted := w.receiverPath(base); rooted {
		ev.RecvPath = path
	} else {
		ev.Inst = types.ExprString(base)
		ev.Multi = w.mentionsLoopVar(base)
	}
	return ev, true
}

// replay applies a callee's flattened summary at a call site (check
// mode), resolving receiver-relative events into the caller's frame.
func (w *Walker) replay(call *ast.CallExpr, sum *FuncSummary) {
	recvStr := ""
	recvMulti := false
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isPkg := w.Pass.TypesInfo.Uses[selIdent(sel.X)].(*types.PkgName); !isPkg {
			recvStr = types.ExprString(sel.X)
			recvMulti = w.mentionsLoopVar(sel.X)
		}
	}
	for _, ev := range sum.Events {
		ctx := Ctx{Pos: call.Pos(), FromCall: true, Cut: sum.Truncated}
		switch {
		case ev.Kind == Block:
		case ev.RecvPath != "":
			if recvStr == "" {
				continue // method value or unexpected shape; skip
			}
			ctx.Inst = recvStr + "." + ev.RecvPath
			ctx.Multi = ev.Multi || recvMulti
		default:
			ctx.Inst = ev.Inst
			ctx.Multi = ev.Multi
		}
		w.H.Event(ev, ctx)
	}
}

// selIdent unwraps a bare identifier receiver, returning nil for
// anything else (nil is safe to look up in types.Info maps).
func selIdent(x ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(x).(*ast.Ident)
	return id
}

func (w *Walker) block(op string, pos token.Pos) {
	if w.suppressBlocks {
		return
	}
	w.H.Event(Event{
		Kind: Block,
		Op:   op,
		Posn: ShortPosn(w.Pass.Fset, pos),
	}, Ctx{Pos: pos})
}

// receiverPath reports whether base is rooted at the function's
// receiver ("t.pmu" for receiver t), returning the path below it.
func (w *Walker) receiverPath(base ast.Expr) (string, bool) {
	if w.RecvObj == nil {
		return "", false
	}
	root := base
	var path string
	for {
		sel, ok := root.(*ast.SelectorExpr)
		if !ok {
			break
		}
		if path == "" {
			path = sel.Sel.Name
		} else {
			path = sel.Sel.Name + "." + path
		}
		root = ast.Unparen(sel.X)
	}
	if id, ok := root.(*ast.Ident); ok && path != "" {
		if w.Pass.TypesInfo.Uses[id] == w.RecvObj {
			return path, true
		}
	}
	return "", false
}

func (w *Walker) classifyIndex(mutex ast.Expr) (int, int64, bool) {
	ix, ok := mutex.(*ast.IndexExpr)
	if !ok {
		return IdxUnknown, 0, false
	}
	if tv, ok := w.Pass.TypesInfo.Types[ix.Index]; ok && tv.Value != nil {
		if c, exact := intConst(tv); exact {
			return IdxConst, c, false
		}
	}
	if id, ok := ast.Unparen(ix.Index).(*ast.Ident); ok {
		if obj, ok := w.Pass.TypesInfo.Uses[id].(*types.Var); ok {
			if lv, isLoop := w.loopVars[obj]; isLoop {
				if lv.dir == loopAscending {
					return IdxLoopAsc, 0, lv.fromZero
				}
				return IdxLoopDesc, 0, false
			}
		}
	}
	return IdxUnknown, 0, false
}

func (w *Walker) mentionsLoopVar(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj, ok := w.Pass.TypesInfo.Uses[id].(*types.Var); ok {
				if _, isLoop := w.loopVars[obj]; isLoop {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// osNonBlocking lists the os functions that only touch process state —
// everything else in os, net, and net/http is presumed to reach the
// kernel or the network and so may block.
var osNonBlocking = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Setenv": true, "Unsetenv": true,
	"Environ": true, "Expand": true, "ExpandEnv": true, "Clearenv": true,
	"Getpid": true, "Getppid": true, "Getuid": true, "Geteuid": true,
	"Getgid": true, "Getegid": true, "Getgroups": true, "Getpagesize": true,
	"Getwd": true, "Exit": true, "TempDir": true,
	"IsNotExist": true, "IsExist": true, "IsPermission": true, "IsTimeout": true,
	"IsPathSeparator": true, "NewSyscallError": true,
	"UserCacheDir": true, "UserConfigDir": true, "UserHomeDir": true,
}

// osFileNonBlocking lists the *os.File methods that never reach the
// kernel.
var osFileNonBlocking = map[string]bool{"Name": true, "Fd": true}

// blockingCall classifies a call as a potentially-blocking operation:
// time.Sleep, WaitGroup/Cond waits, filesystem and network I/O, and
// the io copy helpers that drive them.
func blockingCall(pass *driver.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "time":
		if name == "Sleep" {
			return "time.Sleep", true
		}
	case "sync":
		if name == "Wait" {
			switch recvTypeName(fn) {
			case "WaitGroup":
				return "sync.WaitGroup.Wait", true
			case "Cond":
				return "sync.Cond.Wait", true
			}
		}
	case "os":
		if recv := recvTypeName(fn); recv != "" {
			if recv == "File" && !osFileNonBlocking[name] {
				return "(*os.File)." + name, true
			}
			return "", false
		}
		if !osNonBlocking[name] {
			return "os." + name, true
		}
	case "io":
		switch name {
		case "Copy", "CopyN", "CopyBuffer", "ReadAll", "ReadFull", "ReadAtLeast":
			return "io." + name, true
		}
	case "net", "net/http":
		qual := fn.Pkg().Path() + "." + name
		if recv := recvTypeName(fn); recv != "" {
			qual = "(" + fn.Pkg().Path() + "." + recv + ")." + name
		}
		return qual, true
	}
	return "", false
}

// recvTypeName returns the name of a method's receiver type, "" for a
// plain function.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

func forLoopVar(pass *driver.Pass, s *ast.ForStmt) (*types.Var, loopVar, bool) {
	assign, ok := s.Init.(*ast.AssignStmt)
	if !ok || assign.Tok != token.DEFINE || len(assign.Lhs) != 1 {
		return nil, loopVar{}, false
	}
	id, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return nil, loopVar{}, false
	}
	obj, ok := pass.TypesInfo.Defs[id].(*types.Var)
	if !ok {
		return nil, loopVar{}, false
	}
	inc, ok := s.Post.(*ast.IncDecStmt)
	if !ok {
		return nil, loopVar{}, false
	}
	postID, ok := inc.X.(*ast.Ident)
	if !ok || pass.TypesInfo.Uses[postID] != obj {
		return nil, loopVar{}, false
	}
	lv := loopVar{}
	switch inc.Tok {
	case token.INC:
		lv.dir = loopAscending
		if len(assign.Rhs) == 1 {
			if tv, ok := pass.TypesInfo.Types[assign.Rhs[0]]; ok && tv.Value != nil {
				if c, exact := intConst(tv); exact && c == 0 {
					lv.fromZero = true
				}
			}
		}
	case token.DEC:
		lv.dir = loopDescending
	default:
		return nil, loopVar{}, false
	}
	return obj, lv, true
}

func rangeKeyVar(pass *driver.Pass, s *ast.RangeStmt) (*types.Var, bool) {
	id, ok := s.Key.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil, false
	}
	if s.Tok == token.DEFINE {
		obj, ok := pass.TypesInfo.Defs[id].(*types.Var)
		return obj, ok
	}
	obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
	return obj, ok
}

func rangeValueVar(pass *driver.Pass, s *ast.RangeStmt) (*types.Var, bool) {
	id, ok := s.Value.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil, false
	}
	if s.Tok == token.DEFINE {
		obj, ok := pass.TypesInfo.Defs[id].(*types.Var)
		return obj, ok
	}
	obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
	return obj, ok
}

func intConst(tv types.TypeAndValue) (int64, bool) {
	if tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}
