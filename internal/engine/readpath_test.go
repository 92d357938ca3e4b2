package engine

import (
	"patchindex/internal/exec"
	"patchindex/internal/plan"
)

// internal/query imports this package, so in-package tests read through
// the primitives its compileDistinct/compileSort lower to, with the plan
// forced by the test (refPlan, patchPlan): distinctOn/sortOn over a held
// snapshot, distinctQuery/sortQuery over an ephemeral one the operator
// releases when drained or closed, like query.Run's.
type testPlan struct {
	patch bool
	plan.Options
}

var refPlan, patchPlan = testPlan{}, testPlan{patch: true}

func distinctOn(s *TableSnapshot, column string, tp testPlan) exec.Operator {
	lower := plan.DistinctReference
	if tp.patch {
		lower = plan.Distinct
	}
	return lower(s.Inputs(column), s.schema.MustColumnIndex(column), tp.Options)
}

func sortOn(s *TableSnapshot, column string, desc bool, tp testPlan) exec.Operator {
	lower := plan.SortReference
	if tp.patch {
		lower = plan.Sort
	}
	return lower(s.Inputs(column), s.schema.MustColumnIndex(column), desc, tp.Options)
}

func distinctQuery(db *Database, table, column string, tp testPlan) (exec.Operator, error) {
	s, err := db.SnapshotTable(table)
	if err != nil {
		return nil, err
	}
	return exec.OnClose(distinctOn(s, column, tp), s.Close), nil
}

func sortQuery(db *Database, table, column string, desc bool, tp testPlan) (exec.Operator, error) {
	s, err := db.SnapshotTable(table)
	if err != nil {
		return nil, err
	}
	return exec.OnClose(sortOn(s, column, desc, tp), s.Close), nil
}
