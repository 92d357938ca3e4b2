package main

import (
	"fmt"
	"time"

	"patchindex/internal/engine"
	"patchindex/internal/exec"
	"patchindex/internal/plan"
	"patchindex/internal/query"
	"patchindex/internal/storage"
)

type opKind int

const (
	opInsert opKind = iota
	opDelete
	opModify
	numUpdateKinds
)

var updateSpans = [numUpdateKinds][2]spanName{
	opInsert: {spOpInsert, spEngineInsert},
	opDelete: {spOpDelete, spEngineDelete},
	opModify: {spOpModify, spEngineModify},
}

// client is one closed-loop client goroutine of the measured phase: it
// issues its next operation only after the previous one returned. It
// owns everything it records, so nothing here is locked.
type client struct {
	deadline time.Time
	tr       *tracer // nil unless this is the traced run

	queries    []time.Duration
	updates    [numUpdateKinds][]time.Duration
	rows       int64 // rows inserted + deleted + modified
	updateTime time.Duration
	attempted  int64
	failed     int64
	problems   []string
	// verifyTime is spent checking outputs and is taken out of the
	// client's wall time before rates are computed.
	verifyTime time.Duration

	// Counts taken at the layer boundaries (traced run only).
	decisions, patchDecisions int64
	rowsVisited, rowsOut      int64
}

func (c *client) running() bool { return time.Now().Before(c.deadline) }

func (c *client) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 8 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// update times one engine update call. fn returns the number of rows
// it changed.
func (c *client) update(kind opKind, fn func() (int, error)) bool {
	c.attempted++
	op := c.tr.begin(updateSpans[kind][0], -1)
	call := c.tr.begin(updateSpans[kind][1], op)
	t0 := time.Now()
	rows, err := fn()
	d := time.Since(t0)
	c.tr.end(call)
	c.tr.end(op)
	if err != nil {
		c.fail("%s: %v", spanNames[updateSpans[kind][1]], err)
		return false
	}
	c.updates[kind] = append(c.updates[kind], d)
	c.updateTime += d
	c.rows += int64(rows)
	return true
}

// query runs one query the way a user of the query layer does:
// query.Run, root drained and closed. One latency sample covers
// snapshot capture, compile, execute and release. With collect the
// result rows are returned (small results only); otherwise the root is
// drained with exec.Count. The traced run unrolls query.Run into its
// steps so that each layer gets its own span.
func (c *client) query(db *engine.Database, p *query.Plan, opts query.Options, collect bool) (rows []storage.Row, n int, ok bool) {
	c.attempted++
	drain := func(root exec.Operator) error {
		var err error
		if collect {
			rows, err = exec.Collect(root)
			n = len(rows)
		} else {
			n, err = exec.Count(root)
		}
		return err
	}
	t0 := time.Now()
	var err error
	if c.tr == nil {
		var comp *query.Compiled
		if comp, err = query.Run(db, p, opts); err == nil {
			err = drain(comp.Root)
		}
	} else {
		err = c.tracedQuery(db, p, opts, drain)
	}
	d := time.Since(t0)
	if err != nil {
		c.fail("query %s: %v", p.Fingerprint(), err)
		return nil, 0, false
	}
	c.queries = append(c.queries, d)
	if c.tr != nil {
		c.rowsOut += int64(n)
	}
	return rows, n, true
}

func (c *client) tracedQuery(db *engine.Database, p *query.Plan, opts query.Options, drain func(exec.Operator) error) error {
	op := c.tr.begin(spOpQuery, -1)
	defer c.tr.end(op)
	s := c.tr.begin(spEngineSnapshot, op)
	snap, err := db.Snapshot(p.Tables()...)
	c.tr.end(s)
	if err != nil {
		return err
	}
	s = c.tr.begin(spQueryCompile, op)
	comp, err := query.CompileSnapshot(p, snap, opts)
	c.tr.end(s)
	if err == nil {
		s = c.tr.begin(spExecDrain, op)
		err = drain(comp.Root)
		c.tr.end(s)
	}
	s = c.tr.begin(spEngineRelease, op)
	snap.Close()
	c.tr.end(s)
	if err != nil {
		return err
	}
	for _, d := range comp.Decisions {
		c.decisions++
		if d.Access == plan.AccessPatchIndex {
			c.patchDecisions++
		}
	}
	for _, sc := range comp.Scans {
		c.rowsVisited += int64(sc.RowsVisited)
	}
	return nil
}

// verifyQuery re-runs a plan in Auto and in ForceReference mode on one
// snapshot and compares the results. It is not timed as a query.
func (c *client) verifyQuery(db *engine.Database, p *query.Plan, opts query.Options, ordered bool) {
	t0 := time.Now()
	defer func() { c.verifyTime += time.Since(t0) }()
	c.attempted++
	snap, err := db.Snapshot(p.Tables()...)
	if err != nil {
		c.fail("verify %s: %v", p.Fingerprint(), err)
		return
	}
	defer snap.Close()
	var results [2][]storage.Row
	for i, mode := range []query.Mode{opts.Mode, query.ForceReference} {
		o := opts
		o.Mode = mode
		comp, err := query.CompileSnapshot(p, snap, o)
		if err == nil {
			results[i], err = exec.Collect(comp.Root)
		}
		if err != nil {
			c.fail("verify %s: %v", p.Fingerprint(), err)
			return
		}
	}
	if !sameRows(results[0], results[1], ordered) {
		c.fail("verify %s: plan and reference results differ (%d vs %d rows)", p.Fingerprint(), len(results[0]), len(results[1]))
	}
}
