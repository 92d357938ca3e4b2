// Package locksum computes the lock-behavior facts that make pilint
// interprocedural: for every function of a package, an ordered summary
// of the mutex acquisitions, releases, and potentially-blocking
// operations it performs — including, transitively, those of everything
// it calls.
//
// Summaries are computed bottom-up over the package DAG. Within one
// package, mutually recursive functions are resolved by a bounded
// fixpoint (the within-package SCC); across packages, the already-
// flattened facts of each dependency are consulted, so by construction
// a summary replays the full transitive lock behavior of a call — an
// engine → storage → bitmap chain included. The driver keeps each
// package's fact in memory by import path, computed in the same
// `go list -deps` order the type information is loaded in.
//
// Two consumers read the facts: the lockorder analyzer (rank and
// partition-index ordering and no blocking under a ranked lock, through
// arbitrary call chains) and its whole-tree lock graph (the "acquired B
// while holding A" graph and its cycle check).
//
// Mutex identity is canonical and package-independent:
// "pkgpath.Type.field" for struct fields, "pkgpath.var" for
// package-level variables. Events carry the rank from the defining
// package's `// lock-rank:` markers (RankNone for an explicit
// `lock-rank: none`, RankUnmarked for no marker at all), so consuming
// packages never need the foreign source comments.
package locksum

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"patchindex/internal/analysis/driver"
	"patchindex/internal/analysis/lintutil"
)

// Rank sentinels. Non-negative values are real `// lock-rank: N` ranks.
const (
	RankNone     = -1 // explicit `lock-rank: none <reason>` marker
	RankUnmarked = -2 // no marker at all
)

// Kind of one summary event.
type Kind uint8

const (
	Acquire Kind = iota
	Release
	Block
	// CallEv is a placeholder for a static call, present only in raw
	// (unflattened) summaries; the flattening fixpoint expands or drops
	// every one before a summary is published.
	CallEv
)

// Index kinds for slice-mutex acquisitions (t.pmu[i]).
const (
	IdxNone     = iota // not a slice mutex
	IdxConst           // constant index, value in Index
	IdxLoopAsc         // index is an ascending loop variable
	IdxLoopDesc        // index is a descending loop variable
	IdxUnknown         // anything else — not order-checked
)

// Event is one entry of a function's lock-behavior summary. All fields
// are strings or scalars so summaries stay meaningful outside the
// defining package.
type Event struct {
	Kind Kind

	// Lock events (Acquire/Release).
	Mutex    string // canonical mutex ID, e.g. "patchindex/internal/storage.Table.regMu"
	Rank     int    // >= 0, RankNone, or RankUnmarked
	Slice    bool   // []sync.Mutex — per-index lock with the ascending rule
	Read     bool   // RLock/RUnlock
	Idx      int    // Idx* classification for slice mutexes
	Index    int64  // constant index when Idx == IdxConst
	FromZero bool   // ascending loop variable known to start at 0
	RecvPath string // path below the summarized function's receiver ("pmu", "store.regMu")
	Inst     string // instance expression when not receiver-rooted
	Multi    bool   // instance involves a loop variable: distinct per iteration

	// Call events (raw summaries only). RecvPath/Inst/Rooted/Multi
	// describe the call's receiver in the calling function's frame.
	Callee   string // types.Func.FullName of the static callee
	Rooted   bool   // the call receiver is (a path below) the caller's receiver
	Deferred bool   // the call is deferred: its summary applies at exit

	// Block events.
	Op string // "channel send", "select", "time.Sleep", "os.Open", ...

	// Context for diagnostics at distant call sites.
	Via  string // function whose body performs the event, e.g. "(*Registry).Note"
	Posn string // short position of the operation, e.g. "storage/table.go:210"

	Expr string // source text of the mutex expression, for messages
}

// Marked reports whether the event's mutex carries any lock-rank
// marker (numeric or none).
func (e *Event) Marked() bool { return e.Rank != RankUnmarked }

// FuncSummary is one function's flattened event stream.
type FuncSummary struct {
	Events    []Event
	Truncated bool // fixpoint hit the event cap; the stream is a prefix whose trailing releases may be lost
}

// MutexRank describes one declared mutex for consumers that see only
// the canonical ID (foreign direct acquisitions, the lock graph).
type MutexRank struct {
	Rank  int
	Slice bool
	Posn  string // declaration site, for graph labels
}

// PackageFact is the per-package fact: flattened summaries keyed by
// types.Func.FullName, plus the package's mutex table.
type PackageFact struct {
	Funcs   map[string]*FuncSummary
	Mutexes map[string]MutexRank
}

// Of returns the locksum facts of the package with the given import
// path (the pass's own path included), or nil when none were computed
// (standard library, no source).
func Of(pass *driver.Pass, path string) *PackageFact {
	pf, _ := pass.Facts[path].(*PackageFact)
	return pf
}

// MutexInfo describes one mutex reachable from the package under
// analysis.
type MutexInfo struct {
	ID    string
	Rank  int
	Slice bool
}

// markerRE matches a lock-rank marker: the rank (a number or none) and
// the rest of its line, the reason a none marker must give.
var markerRE = regexp.MustCompile(`lock-rank:\s*(\d+|none\b)[ \t]*(.*)`)

// A BadMarker is a lock-rank marker defect found while collecting the
// package's mutexes, tagged with the report kind it belongs to:
// "lockorder" for a numeric marker on something that is not a mutex,
// "rankdecl" for a mutex declared outside a _test.go file without a
// marker or with a reason-less `none` (test-local mutexes do not
// interact with the engine's lock order).
type BadMarker struct {
	Kind    string
	Pos     token.Pos
	Message string
}

// Mutexes scans the package's declarations for sync.Mutex / RWMutex
// struct fields and package-level variables (slices and arrays of them
// included), resolving each to its canonical ID and marker rank, and
// returns the marker defects for the caller to report.
func Mutexes(pass *driver.Pass) (map[*types.Var]MutexInfo, []BadMarker) {
	infos := make(map[*types.Var]MutexInfo)
	var bad []BadMarker
	report := func(kind string, pos token.Pos, format string, args ...interface{}) {
		bad = append(bad, BadMarker{Kind: kind, Pos: pos, Message: fmt.Sprintf(format, args...)})
	}
	pkgPath := pass.Pkg.Path()

	// note records one declaration: what ("field" or "package
	// variable") and owner (the struct type) name it in IDs and
	// messages.
	note := func(what, owner string, inTest bool, names []*ast.Ident, typ ast.Expr, groups ...*ast.CommentGroup) {
		m := marker(groups...)
		ids := names
		if len(ids) == 0 && typ != nil {
			// Embedded field (struct { sync.Mutex }): the implicit field
			// object is defined at the type's terminal identifier.
			if id := embeddedIdent(typ); id != nil {
				ids = []*ast.Ident{id}
			}
		}
		for _, name := range ids {
			obj, ok := pass.TypesInfo.Defs[name].(*types.Var)
			if !ok {
				// An embedded field's identifier resolves through Uses.
				if obj, ok = pass.TypesInfo.Uses[name].(*types.Var); !ok {
					continue
				}
			}
			t := obj.Type()
			slice := false
			switch u := t.Underlying().(type) {
			case *types.Slice:
				t = u.Elem()
				slice = true
			case *types.Array:
				t = u.Elem()
				slice = true
			}
			if lintutil.MutexKind(t) == "" {
				if m != nil && m[1] != "none" {
					report("lockorder", name.Pos(), "lock-rank marker on %s, which is not a sync mutex or mutex slice", name.Name)
				}
				continue
			}
			r := RankUnmarked
			switch {
			case m == nil:
				if !inTest {
					report("rankdecl", name.Pos(), "%s %s is a sync mutex without a lock-rank marker; add `// lock-rank: N` or `// lock-rank: none <reason>`", what, name.Name)
				}
			case m[1] == "none":
				r = RankNone
				if !inTest && strings.TrimSpace(m[2]) == "" {
					report("rankdecl", name.Pos(), "`lock-rank: none` on %s needs a reason explaining why the lock stands outside the ranked order", name.Name)
				}
			default:
				r, _ = strconv.Atoi(m[1])
			}
			id := pkgPath + "." + name.Name
			if owner != "" {
				id = pkgPath + "." + owner + "." + name.Name
			}
			infos[obj] = MutexInfo{ID: id, Rank: r, Slice: slice}
		}
	}

	for _, f := range pass.Files {
		inTest := strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go")
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			switch gd.Tok {
			case token.VAR:
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						note("package variable", "", inTest, vs.Names, vs.Type, gd.Doc, vs.Doc, vs.Comment)
					}
				}
			case token.TYPE:
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						note("field", ts.Name.Name, inTest, field.Names, field.Type, field.Doc, field.Comment)
					}
				}
			}
		}
	}
	return infos, bad
}

func embeddedIdent(typ ast.Expr) *ast.Ident {
	switch t := ast.Unparen(typ).(type) {
	case *ast.Ident:
		return t
	case *ast.SelectorExpr:
		return t.Sel
	case *ast.StarExpr:
		return embeddedIdent(t.X)
	}
	return nil
}

// marker returns the first lock-rank marker in the comment groups as
// markerRE submatches, nil when there is none.
func marker(groups ...*ast.CommentGroup) []string {
	for _, g := range groups {
		if g == nil {
			continue
		}
		if m := markerRE.FindStringSubmatch(g.Text()); m != nil {
			return m
		}
	}
	return nil
}

// foreignMutex resolves a direct acquisition of a mutex declared in
// another package (`t.store.regMu.Lock()` from engine): the canonical
// ID is derived from the selector's receiver type, and the rank from
// the defining package's facts (its source comments are not part of
// this pass).
func foreignMutex(pass *driver.Pass, obj *types.Var, base ast.Expr) (MutexInfo, bool) {
	if obj.Pkg() == nil || obj.Pkg() == pass.Pkg {
		return MutexInfo{}, false
	}
	owner := ""
	if sel, ok := ast.Unparen(base).(*ast.SelectorExpr); ok {
		if recv := pass.TypesInfo.TypeOf(sel.X); recv != nil {
			t := recv
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				owner = named.Obj().Name()
			}
		}
	}
	id := obj.Pkg().Path() + "." + obj.Name()
	if owner != "" {
		id = obj.Pkg().Path() + "." + owner + "." + obj.Name()
	}
	info := MutexInfo{ID: id, Rank: RankUnmarked}
	switch obj.Type().Underlying().(type) {
	case *types.Slice, *types.Array:
		info.Slice = true
	}
	if pf := Of(pass, obj.Pkg().Path()); pf != nil {
		if mr, ok := pf.Mutexes[id]; ok {
			info.Rank = mr.Rank
			info.Slice = mr.Slice
		}
	}
	return info, true
}

// ShortPosn renders a position as "dir/file.go:line" — stable across
// checkouts, so it can live in facts and committed DOT output.
func ShortPosn(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	dir := filepath.Base(filepath.Dir(p.Filename))
	return fmt.Sprintf("%s/%s:%d", dir, filepath.Base(p.Filename), p.Line)
}

// Compute is the driver.FactFunc deriving a package's PackageFact:
// record raw per-function event streams, then flatten them against
// same-package raw summaries and the already-flattened facts of
// dependencies.
func Compute(pass *driver.Pass) interface{} {
	mutexes, _ := Mutexes(pass)

	raw := make(map[string]*FuncSummary)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			rec := &recorder{pass: pass, via: shortFuncName(fn)}
			w := &Walker{Pass: pass, Mutexes: mutexes, RecvObj: RecvVar(pass, fd), H: rec}
			w.WalkBody(fd.Body.List)
			raw[fn.FullName()] = &FuncSummary{Events: append(rec.events, rec.deferred...)}
		}
	}

	fact := &PackageFact{
		Funcs:   flatten(raw, pass),
		Mutexes: make(map[string]MutexRank),
	}
	for obj, info := range mutexes {
		fact.Mutexes[info.ID] = MutexRank{
			Rank:  info.Rank,
			Slice: info.Slice,
			Posn:  ShortPosn(pass.Fset, obj.Pos()),
		}
	}
	return fact
}

// shortFuncName renders "(*Table).Retain" / "helper" — package-local
// and human-oriented (the full identity is the summary map key).
func shortFuncName(fn *types.Func) string {
	full := fn.FullName()
	if i := strings.LastIndex(full, "/"); i >= 0 {
		tail := full[i+1:]
		if strings.HasPrefix(full, "(") && !strings.HasPrefix(tail, "(") {
			tail = "(*" + tail // "(*pkgpath/pkg.T).M" loses its "(*" with the path
		}
		full = tail
	}
	if i := strings.IndexByte(full, '.'); i >= 0 && !strings.HasPrefix(full, "(") {
		return full[i+1:]
	}
	return full
}

// Fixpoint bounds: no summary grows past maxEvents, no package
// iterates past maxRounds — in-package recursion beyond that
// truncates (flagged on the summary). A truncated stream is an exact
// prefix, so lock checks may still trust every event in it, but not the
// locks it leaves held: their releases may be in the lost tail
// (lockorder skips checks against them and says so).
const (
	maxEvents = 512
	maxRounds = 12
)

// flatten expands every CallEv against the current summaries until the
// package reaches a fixpoint. Cross-package callees resolve against
// dependency facts (already flattened); unresolvable calls (interface
// methods, func values, packages with no facts) are dropped.
func flatten(raw map[string]*FuncSummary, pass *driver.Pass) map[string]*FuncSummary {
	cur := make(map[string]*FuncSummary, len(raw))
	for k := range raw {
		cur[k] = &FuncSummary{}
	}
	own := pass.Pkg.Path()
	lookup := func(callee string) *FuncSummary {
		pkg := calleePkgOf(callee)
		if pkg == own {
			return cur[callee]
		}
		if pf := Of(pass, pkg); pf != nil {
			return pf.Funcs[callee]
		}
		return nil
	}
	for round := 0; round < maxRounds; round++ {
		changed := false
		for name, rs := range raw {
			next := expand(rs, lookup)
			if !summaryEqual(cur[name], next) {
				cur[name] = next
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for name, s := range cur {
		if len(s.Events) == 0 {
			delete(cur, name)
		}
	}
	return cur
}

// calleePkgOf splits the package path out of a FullName:
// "patchindex/internal/storage.Retain" or
// "(*patchindex/internal/storage.Table).Retain".
func calleePkgOf(full string) string {
	s := strings.TrimLeft(full, "(*")
	if i := strings.IndexByte(s, ')'); i >= 0 {
		s = s[:i]
	}
	if i := strings.LastIndexByte(s, '.'); i >= 0 {
		return s[:i]
	}
	return ""
}

// expand splices callee summaries into one raw stream. A deferred
// call's summary applies at exit — appended after the stream — so
// locks a deferred helper releases stay held across the rest of the
// body, exactly as the checker simulates direct deferred unlocks.
func expand(rs *FuncSummary, lookup func(callee string) *FuncSummary) *FuncSummary {
	out := &FuncSummary{}
	var exit []Event
	push := func(ev Event) {
		if len(out.Events) >= maxEvents {
			out.Truncated = true
			return
		}
		out.Events = append(out.Events, ev)
	}
	for _, ev := range rs.Events {
		if ev.Kind != CallEv {
			push(ev)
			continue
		}
		sum := lookup(ev.Callee)
		if sum == nil {
			continue
		}
		if sum.Truncated {
			out.Truncated = true
		}
		for _, ce := range sum.Events {
			r := RewriteEvent(ce, ev)
			if ev.Deferred {
				if len(exit) < maxEvents {
					exit = append(exit, r)
				}
				continue
			}
			push(r)
		}
	}
	for _, ev := range exit {
		push(ev)
	}
	return out
}

// RewriteEvent maps a callee summary event into the caller's frame
// using the call's receiver description (carried on the CallEv):
// receiver-rooted paths re-root through the call receiver, absolute
// instances pass through unchanged.
func RewriteEvent(ce Event, call Event) Event {
	if ce.Kind == Block || ce.RecvPath == "" {
		return ce // blocks, package-level, and callee-local instances: verbatim
	}
	r := ce
	r.Multi = ce.Multi || call.Multi
	switch {
	case call.Rooted:
		if call.RecvPath != "" {
			r.RecvPath = call.RecvPath + "." + ce.RecvPath
		}
		// A call on the caller's own receiver keeps the path unchanged.
	case call.Inst != "":
		r.RecvPath = ""
		r.Inst = call.Inst + "." + ce.RecvPath
		r.Expr = r.Inst
	default:
		// Method value or unexpected receiver shape: instance unknown.
		// Keep the callee-relative path as an opaque, never-merged
		// instance so rank checks still apply.
		r.RecvPath = ""
		r.Inst = ce.RecvPath
		r.Multi = true
	}
	return r
}

func summaryEqual(a, b *FuncSummary) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Truncated != b.Truncated || len(a.Events) != len(b.Events) {
		return false
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			return false
		}
	}
	return true
}

// RecvVar returns the receiver variable of a method declaration.
func RecvVar(pass *driver.Pass, fd *ast.FuncDecl) *types.Var {
	if fd == nil || fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	obj, _ := pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]].(*types.Var)
	return obj
}

// recorder is the record-mode handler: it turns walker callbacks back
// into summary events. Calls whose packages can never have facts
// (the standard library) are dropped at the source.
type recorder struct {
	pass     *driver.Pass
	via      string
	events   []Event
	deferred []Event
}

func (r *recorder) Event(ev Event, ctx Ctx) {
	ev.Via = r.via
	if ev.Kind == CallEv {
		pkg := calleePkgOf(ev.Callee)
		if pkg != r.pass.Pkg.Path() && Of(r.pass, pkg) == nil {
			return // no facts will ever exist for this callee
		}
	}
	if ctx.Deferred && ev.Kind == Release {
		r.deferred = append(r.deferred, ev)
		return
	}
	r.events = append(r.events, ev)
}
