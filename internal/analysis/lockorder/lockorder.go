// Package lockorder checks the engine's lock discipline. One analyzer
// reports three kinds from one scan of the mutex declarations and one
// walk per function:
//
//   - lockorder: locks are acquired in the documented order. Mutexes
//     participate by carrying a `// lock-rank: N` marker comment on
//     their field or variable declaration; acquiring a rank lower than
//     one already held is reported. For `[]sync.Mutex` fields (the
//     per-partition locks) ascending index order is enforced too:
//     constant indexes must increase, sweep loops must iterate
//     ascending, and nothing may be re-acquired after a full ascending
//     sweep. A numeric marker on something that is not a mutex is
//     reported as well.
//   - lockblock: no rank-marked lock is held across a potentially
//     blocking operation — channel send/receive, range over a channel,
//     select without a default clause, time.Sleep, WaitGroup/Cond
//     waits, and os/net/io calls that reach the kernel. The ranked
//     mutexes guard in-memory structures and are meant to be held for
//     microseconds; blocking under one turns every reader of that
//     structure into a co-waiter. Locks explicitly marked
//     `lock-rank: none` are exempt — the marker is the author's
//     statement that the lock is a leaf with its own rules.
//   - rankdecl: every sync.Mutex / sync.RWMutex struct field and
//     package-level variable (slices and arrays of them included)
//     carries either a numeric marker or an explicit
//     `// lock-rank: none <reason>`; a mutex without one is invisible to
//     the two checks above. The reason is mandatory. Declarations in
//     _test.go files are exempt.
//
// The walk is interprocedural: every call to a statically resolved
// function replays that function's flattened locksum summary — the full
// transitive lock behavior of the callee and everything it calls,
// across package boundaries (see package locksum for how the summaries
// are computed bottom-up over the package DAG). A call whose summary
// acquires a ranked lock is order-checked against the caller's held
// set and extends it for the statements that follow; a call whose
// summary blocks is reported at the call site. Diagnostics for replayed
// events name the function and position actually performing the
// operation.
//
// A callee summary truncated at locksum's event cap is an exact prefix
// whose trailing releases may be lost, so a lock it leaves held may not
// be held at all. A finding that would blame such a lock is not
// reported; one finding at that position names the truncated call
// instead.
//
// Approximations, chosen to stay quiet rather than clever: branches
// are walked in source order against a single lock set, loop bodies
// are walked once, non-constant indexes other than the loop variable
// are not checked, and locks whose receiver involves a loop variable
// are treated as distinct instances per iteration (multi-table sweeps
// legitimately hold one table's locks while taking the next's).
//
// Check and WriteDot (graph.go) are the whole-program side: the lock
// graph built from the same facts, its cycle check, and its DOT render.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"patchindex/internal/analysis/driver"
	"patchindex/internal/analysis/lintutil"
	"patchindex/internal/analysis/locksum"
)

var Analyzer = &driver.Analyzer{
	Name:  "lockorder",
	Doc:   "check lock-rank order (and partition index order), that no ranked lock is held across a blocking operation, and that every mutex declares its rank",
	Kinds: []string{"lockorder", "lockblock", "rankdecl"},
	Run:   run,
}

// held is one entry of the simulated set of ranked locks.
type held struct {
	mutex    string // canonical locksum ID
	rank     int
	slice    bool
	read     bool
	idx      int
	c        int64
	fromZero bool
	inst     string // instance identity in this frame, e.g. "t.pmu"
	multi    bool   // instance involves a loop variable (distinct per iteration)
	expr     string // for diagnostics
	pos      token.Pos
	fromCall bool // acquired inside a replayed callee summary
	cut      bool // that summary was truncated: the release may be lost
}

// lost reports whether h may not be held any more at ctx: it came from
// a truncated summary, and ctx is past the call that replayed it.
func (h *held) lost(ctx locksum.Ctx) bool {
	return h.cut && !(ctx.FromCall && h.pos == ctx.Pos)
}

func run(pass *driver.Pass) (interface{}, error) {
	mutexes, bad := locksum.Mutexes(pass)
	for _, b := range bad {
		pass.ReportKindf(b.Kind, b.Pos, "%s", b.Message)
	}

	resolve := func(fn *types.Func) *locksum.FuncSummary {
		pf := locksum.Of(pass, fn.Pkg().Path())
		if pf == nil {
			return nil
		}
		return pf.Funcs[fn.FullName()]
	}
	lintutil.Funcs(pass.Files, func(decl *ast.FuncDecl, body *ast.BlockStmt) {
		ck := &checker{pass: pass, reported: make(map[string]bool)}
		w := &locksum.Walker{Pass: pass, Mutexes: mutexes, Resolve: resolve, H: ck}
		if decl != nil {
			w.RecvObj = locksum.RecvVar(pass, decl)
		}
		w.WalkBody(body.List)
	})
	return nil, nil
}

// checker consumes the walker's event stream for one function,
// maintaining the ranked-lock set and reporting order violations and
// blocking operations under it.
type checker struct {
	pass     *driver.Pass
	locks    []held
	reported map[string]bool // one lockblock report per (position, op, lock), one skip report per (position, call)
}

func (ck *checker) Event(ev locksum.Event, ctx locksum.Ctx) {
	switch ev.Kind {
	case locksum.Block:
		ck.blocked(ev, ctx)
	case locksum.Acquire:
		if ev.Rank >= 0 { // unranked and rank-none mutexes are not checked
			ck.acquire(ev, ctx)
		}
	case locksum.Release:
		if ev.Rank >= 0 && !ctx.Deferred { // deferred unlock: held until function exit
			ck.release(ev, ctx)
		}
	}
}

// reportf reports a lockorder finding at the event's position in this
// frame; events replayed out of a callee summary name the function and
// position actually performing the operation.
func (ck *checker) reportf(ctx locksum.Ctx, ev locksum.Event, format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	if ctx.FromCall {
		msg += fmt.Sprintf(" (in %s at %s)", ev.Via, ev.Posn)
	}
	ck.pass.ReportKindf("lockorder", ctx.Pos, "%s", msg)
}

// skipped reports, once per position and truncated call, a kind check
// of what against h that was not made because h came from a truncated
// summary.
func (ck *checker) skipped(kind string, ctx locksum.Ctx, h *held, what string) {
	key := fmt.Sprintf("cut|%d|%d", ctx.Pos, h.pos)
	if ck.reported[key] {
		return
	}
	ck.reported[key] = true
	ck.pass.ReportKindf(kind, ctx.Pos, "%s not checked against %s: the call at %s replays a lock summary truncated at its event cap, which may have lost the release",
		what, h.expr, ck.pass.Fset.Position(h.pos))
}

func (ck *checker) acquire(ev locksum.Event, ctx locksum.Ctx) {
	// A lock loop sweeping indexes downward is an ordering violation on
	// its own; reported where the loop is written, not at call sites.
	if !ctx.FromCall && ev.Slice && ev.Idx == locksum.IdxLoopDesc {
		ck.pass.ReportKindf("lockorder", ctx.Pos, "%s locked in a descending loop; partition locks must be acquired in ascending index order", ev.Expr)
	}
	inst, multi := ctx.Inst, ctx.Multi
	for i := range ck.locks {
		h := &ck.locks[i]
		report := func(format string, args ...interface{}) {
			if h.lost(ctx) {
				ck.skipped("lockorder", ctx, h, ev.Expr+" acquisition")
				return
			}
			ck.reportf(ctx, ev, format, args...)
		}
		if h.mutex == ev.Mutex {
			sameInst := h.inst == inst && !h.multi && !multi
			if !sameInst {
				continue
			}
			if !ev.Slice {
				if !h.read || !ev.Read {
					report("%s acquired while already held (acquired at %s)", ev.Expr, ck.pass.Fset.Position(h.pos))
				}
				continue
			}
			switch {
			case h.idx == locksum.IdxConst && ev.Idx == locksum.IdxConst:
				if ev.Index <= h.c {
					report("%s[%d] acquired while holding %s[%d]; partition locks must be acquired in ascending index order", inst, ev.Index, inst, h.c)
				}
			case h.idx == locksum.IdxLoopAsc:
				report("%s acquired after an ascending sweep already locked every element of %s", ev.Expr, inst)
			case h.idx == locksum.IdxConst && ev.Idx == locksum.IdxLoopAsc && ev.FromZero:
				report("ascending sweep of %s would re-acquire index %d, which is already held", inst, h.c)
			}
			continue
		}
		if h.rank > ev.Rank {
			report("%s (lock-rank %d) acquired while holding %s (lock-rank %d); locks must be acquired in ascending lock-rank order", ev.Expr, ev.Rank, h.expr, h.rank)
		}
	}
	ck.locks = append(ck.locks, held{
		mutex: ev.Mutex, rank: ev.Rank, slice: ev.Slice, read: ev.Read,
		idx: ev.Idx, c: ev.Index, fromZero: ev.FromZero,
		inst: inst, multi: multi, expr: ev.Expr, pos: ctx.Pos, fromCall: ctx.FromCall, cut: ctx.Cut,
	})
}

func (ck *checker) release(ev locksum.Event, ctx locksum.Ctx) {
	inst, multi := ctx.Inst, ctx.Multi
	out := ck.locks[:0]
	for _, h := range ck.locks {
		if h.mutex == ev.Mutex && (h.inst == inst || h.multi || multi) {
			if ev.Slice && ev.Idx == locksum.IdxConst {
				// Releasing one constant index frees only that entry.
				if h.idx == locksum.IdxConst && h.c != ev.Index {
					out = append(out, h)
				}
				continue
			}
			continue // released
		}
		out = append(out, h)
	}
	ck.locks = out
}

// blocked reports a blocking operation under every ranked lock held.
func (ck *checker) blocked(ev locksum.Event, ctx locksum.Ctx) {
	for _, h := range ck.locks {
		// A lock acquired by the same replayed call that now blocks is
		// the callee's own acquire+block pair; the callee's direct walk
		// reports it once at the defining site, not at every caller.
		if ctx.FromCall && h.fromCall && h.pos == ctx.Pos {
			continue
		}
		if h.lost(ctx) {
			ck.skipped("lockblock", ctx, &h, ev.Op)
			continue
		}
		key := fmt.Sprintf("%d|%s|%s", ctx.Pos, ev.Op, h.mutex)
		if ck.reported[key] {
			continue
		}
		ck.reported[key] = true
		if ctx.FromCall {
			ck.pass.ReportKindf("lockblock", ctx.Pos, "call blocks (%s in %s at %s) while holding %s (lock-rank %d); rank-marked locks must not be held across blocking operations",
				ev.Op, ev.Via, ev.Posn, h.expr, h.rank)
		} else {
			ck.pass.ReportKindf("lockblock", ctx.Pos, "%s while holding %s (lock-rank %d); rank-marked locks must not be held across blocking operations",
				ev.Op, h.expr, h.rank)
		}
	}
}
