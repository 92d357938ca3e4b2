package driver

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// ignorePrefix introduces a suppression comment:
//
//	//pilint:ignore lockorder,deferunlock upgrade pattern, see package docs
//
// The kind list is comma-separated; everything after it is the
// mandatory free-text reason. A suppression applies to diagnostics on
// the comment's own line (trailing form) and on the line directly below
// (own-line form).
const ignorePrefix = "//pilint:ignore"

// knownKinds is every report kind of the full suite, used to validate
// suppression names even when a driver runs a subset (analysistest runs
// one analyzer at a time, but a fixture may legitimately suppress a
// sibling).
var knownKinds = map[string]bool{
	"lockorder":   true,
	"lockblock":   true,
	"rankdecl":    true,
	"snapclose":   true,
	"closeowner":  true,
	"atomicmix":   true,
	"deferunlock": true,
}

type suppression struct {
	names  []string
	reason string
	posn   token.Position
	used   bool
}

type lineKey struct {
	file string
	line int
}

// suppressions maps file:line (of the comment) to its suppressions.
type suppressions map[lineKey][]*suppression

// collectSuppressions gathers every //pilint:ignore comment in the
// unit's files.
func collectSuppressions(fset *token.FileSet, files []*ast.File) suppressions {
	s := make(suppressions)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				// An analysistest fixture may carry its expectation inside
				// the same comment (`//pilint:ignore ... // want "..."`);
				// the expectation is not part of the reason.
				if i := strings.Index(rest, "// want "); i >= 0 {
					rest = rest[:i]
				}
				posn := fset.Position(c.Pos())
				sup := &suppression{posn: posn}
				fields := strings.Fields(rest)
				if len(fields) > 0 {
					sup.names = strings.Split(fields[0], ",")
					sup.reason = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0]))
				}
				k := lineKey{posn.Filename, posn.Line}
				s[k] = append(s[k], sup)
			}
		}
	}
	return s
}

// suppressed reports whether a diagnostic of kind at posn is covered by
// an ignore comment on the same line or the line above.
func (s suppressions) suppressed(kind string, posn token.Position) bool {
	hit := false
	for _, line := range []int{posn.Line, posn.Line - 1} {
		for _, sup := range s[lineKey{posn.Filename, line}] {
			for _, n := range sup.names {
				if n == kind {
					sup.used = true
					hit = true
				}
			}
		}
	}
	return hit
}

// problems reports defective suppressions: a missing reason, a kind
// outside the known suite, or — when every kind the comment names was
// reported by an analyzer in this run — an ignore that suppressed
// nothing (stale). They surface as findings under the pseudo-kind
// "pilint", so a typoed or left-behind ignore fails the build instead
// of silently suppressing nothing.
func (s suppressions) problems(running []*Analyzer) []Finding {
	ran := make(map[string]bool)
	for _, a := range running {
		for _, k := range a.kinds() {
			ran[k] = true
		}
	}
	var out []Finding
	report := func(sup *suppression, msg string) {
		out = append(out, Finding{Kind: "pilint", Posn: sup.posn, Message: msg})
	}
	for _, sups := range s {
		for _, sup := range sups {
			if len(sup.names) == 0 {
				report(sup, "pilint:ignore needs an analyzer name and a reason")
				continue
			}
			malformed := false
			for _, n := range sup.names {
				if !knownKinds[n] && !ran[n] {
					report(sup, "pilint:ignore names unknown analyzer \""+n+"\"")
					malformed = true
				}
			}
			if sup.reason == "" {
				report(sup, "pilint:ignore needs a reason after the analyzer name")
				malformed = true
			}
			// Stale check: only decidable when every named kind was in
			// this run (analysistest runs one analyzer at a time).
			allRan := true
			for _, n := range sup.names {
				allRan = allRan && ran[n]
			}
			if !malformed && !sup.used && allRan {
				report(sup, "pilint:ignore suppresses no diagnostic; remove the stale comment")
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Posn.Filename != out[j].Posn.Filename {
			return out[i].Posn.Filename < out[j].Posn.Filename
		}
		return out[i].Posn.Line < out[j].Posn.Line
	})
	return out
}
