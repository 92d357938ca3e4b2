package query

import (
	"patchindex/internal/engine"
	"patchindex/internal/exec"
)

// Run compiles and binds the plan against an ephemeral database
// snapshot of exactly the tables the plan reads, captured atomically.
// The snapshot is owned by the returned operator tree: it is released
// when the root is drained to end of stream or Closed, whichever comes
// first — callers must drain the root or Close the result on every
// path, including early abandonment. On a compile error the snapshot is
// released before returning and no operator escapes.
func Run(db *engine.Database, p *Plan, opts Options) (*Compiled, error) {
	snap, err := db.Snapshot(p.Tables()...)
	if err != nil {
		return nil, err
	}
	c, err := CompileSnapshot(p, snap, opts)
	if err != nil {
		snap.Close()
		return nil, err
	}
	c.Root = exec.OnClose(c.Root, snap.Close)
	return c, nil
}
