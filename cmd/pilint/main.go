// Pilint runs the patchindex concurrency-invariant analyzers over the
// named packages, their _test.go files included:
//
//	go run ./cmd/pilint ./...
//	go run ./cmd/pilint -lockgraph ./... # lock graph as DOT on stdout, findings on stderr
//
// Four analyzers report seven kinds, and every finding ends in its
// kind, the name a //pilint:ignore comment uses:
//
//   - lockorder: lockorder, lockblock, rankdecl
//   - handles: snapclose, closeowner
//   - atomicmix, deferunlock: one kind each, named after the analyzer
//
// The lock checks are interprocedural: every package's per-function
// lock behavior is summarized into facts (internal/analysis/locksum)
// computed bottom-up over the dependency graph and kept in memory, so
// they see through arbitrary call chains, across package boundaries.
// The whole-program lockgraph check builds the global
// acquired-while-holding graph from the same facts and reports cycles —
// including among mutexes that carry no rank.
//
// See the analyzer package docs (internal/analysis/...) for what each
// kind enforces and internal/analysis/driver for the suppression
// syntax.
package main

import (
	"patchindex/internal/analysis/atomicmix"
	"patchindex/internal/analysis/deferunlock"
	"patchindex/internal/analysis/driver"
	"patchindex/internal/analysis/handles"
	"patchindex/internal/analysis/lockorder"
	"patchindex/internal/analysis/locksum"
)

func main() {
	driver.Main(driver.Suite{
		Analyzers: []*driver.Analyzer{
			lockorder.Analyzer,
			handles.Analyzer,
			atomicmix.Analyzer,
			deferunlock.Analyzer,
		},
		Facts:   locksum.Compute,
		Globals: []*driver.GlobalCheck{lockorder.Check},
		Graph:   lockorder.WriteDot,
	})
}
