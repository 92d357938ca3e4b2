// Package snapclose is the golden fixture for the snapclose analyzer.
package snapclose

import "errors"

type Snap struct{}

func (s *Snap) Close()       {}
func (s *Snap) NumRows() int { return 0 }

type Op struct{}

func (o *Op) Close() {}

// Compiled is the shape of a query.Run result: a handle whose resource
// is the closeable operator in its Root field.
type Compiled struct {
	Root      *Op
	Decisions int
}

func (c *Compiled) Close() { c.Root.Close() }

type Table struct{}

func (t *Table) Snapshot() *Snap { return &Snap{} }

// Run is reached through a func-typed variable, as the facade re-exports
// it (`var Run = query.Run`); the analyzer must see through that.
var db = struct {
	Run func(plan string) (*Compiled, error)
}{Run: func(string) (*Compiled, error) { return nil, errors.New("unknown table") }}

func sink(s *Snap) {}

func drain(o *Op) {}

var keep *Snap

func dropped(t *Table) {
	t.Snapshot() // want `result of Snapshot is dropped`
}

func blankAssigned(t *Table) {
	_ = t.Snapshot() // want `result of Snapshot is assigned to _`
}

func blankWithErr() error {
	_, err := db.Run("q") // want `result of Run is assigned to _`
	return err
}

func droppedRun() {
	db.Run("q") // want `result of Run is dropped`
}

// neverDrainedNorClosed: reading the result is plain use; nothing here
// releases the snapshot.
func neverDrainedNorClosed() (int, error) {
	c, err := db.Run("q")
	if err != nil {
		return 0, err
	}
	return c.Decisions, nil // want `return without closing c`
}

// rootDrained: handing the root to a call is the escape it is.
func rootDrained() error {
	c, err := db.Run("q")
	if err != nil {
		return err
	}
	drain(c.Root)
	return nil
}

func neverClosed(t *Table) int {
	snap := t.Snapshot()
	return snap.NumRows() // want `return without closing snap`
}

func fallsOffEnd(t *Table) {
	snap := t.Snapshot() // want `snap acquired here is not closed on every path`
	snap.NumRows()
}

func closed(t *Table) int {
	snap := t.Snapshot()
	n := snap.NumRows()
	snap.Close()
	return n
}

func deferClosed(t *Table) int {
	snap := t.Snapshot()
	defer snap.Close()
	return snap.NumRows()
}

// escape shapes: ownership moves to the caller or another holder.
func escapeDirect(t *Table) *Snap { return t.Snapshot() }

func escapeVar(t *Table) *Snap {
	snap := t.Snapshot()
	return snap
}

func escapeArg(t *Table) {
	snap := t.Snapshot()
	sink(snap)
}

func escapeGlobal(t *Table) {
	snap := t.Snapshot()
	keep = snap
}

// errGuard: the acquisition's own error path carries no resource.
func errGuard() error {
	c, err := db.Run("q")
	if err != nil {
		return err
	}
	c.Root.Close()
	return nil
}

func returnWithoutClose(t *Table, b bool) {
	snap := t.Snapshot()
	if b {
		return // want `return without closing snap`
	}
	snap.Close()
}

// loopCloseThenReturn: every in-loop path closes before leaving
// (regression: close-then-return inside a loop body is complete).
func loopCloseThenReturn(t *Table, n int) {
	for i := 0; i < n; i++ {
		snap := t.Snapshot()
		if i == 3 {
			snap.Close()
			return
		}
		snap.Close()
	}
}

func switchAllArmsClose(t *Table, k int) {
	snap := t.Snapshot()
	switch k {
	case 0:
		snap.Close()
	default:
		snap.Close()
	}
}

func switchMissingDefault(t *Table, k int) {
	snap := t.Snapshot() // want `snap acquired here is not closed on every path`
	switch k {
	case 0:
		snap.Close()
	}
}

func suppressedProbe() {
	//pilint:ignore snapclose fixture: error-path probe to test suppression
	if _, err := db.Run("missing"); err == nil {
		panic("unexpected success")
	}
}
