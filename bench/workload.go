package main

import (
	"fmt"

	"patchindex/internal/engine"
	"patchindex/internal/wal"
)

// scale fixes the input sizes. "full" is what BENCHMARK.json's numbers
// are measured at; "tiny" exists for the smoke tests. Every workload is
// stationary — rows inserted match rows deleted — so the state a run
// ends in, and with it checkpoint size, recovery time and memory, does
// not depend on how many operations a faster or slower machine fits
// into the measured seconds.
type scale struct {
	name string

	setups      int // set-ups timed per run; the median is reported
	checkpoints int // harness-driven CheckpointToDisk calls timed per run; the first third is warm-up
	recovers    int // Recover calls timed per run, each on a fresh copy of the killed directory; the first third is warm-up

	tpchSF float64

	microRows       int
	microQueryEvery int // one query per this many update batches

	churnRows int // preloaded rows
	churnTail int // writer steps logged between the last checkpoint and the kill

	durableRows       int
	durableQueryEvery int
	durableTail       int // batches per writer logged between the last checkpoint and the kill
}

var scales = map[string]scale{
	"full": {
		name: "full", setups: 3, checkpoints: 30, recovers: 9,
		tpchSF:    0.05,
		microRows: 200_000, microQueryEvery: 32,
		churnRows: 200_000, churnTail: 4_000,
		durableRows: 200_000, durableQueryEvery: 16, durableTail: 400,
	},
	"tiny": {
		name: "tiny", setups: 2, checkpoints: 3, recovers: 3,
		tpchSF:    0.002,
		microRows: 8_000, microQueryEvery: 8,
		churnRows: 4_000, churnTail: 200,
		durableRows: 8_000, durableQueryEvery: 4, durableTail: 20,
	},
}

const partitions = 4

// workload is what the harness needs from each of the four workloads.
// setup runs before the measured phase and is timed as setup_s; the
// client loops are the measured phase; everything after is the
// durability tail every workload shares (checkpoint, kill, recover).
type workload interface {
	// setup generates the inputs from the seed and builds the database.
	// dir is where this instance keeps WAL segments and checkpoints.
	setup(seed int64, sc scale, dir string) error
	db() *engine.Database
	// tables lists every table; indexed lists the (table, column) pairs
	// that carry a PatchIndex.
	tables() []string
	indexed() [][2]string
	// clients returns the closed loop of each client goroutine.
	clients() []func(*client)
	// quiesce stops the instance's background work: once the clients
	// have returned, and for a set-up instance that will not be measured.
	quiesce()
	// walPolicy is the flush policy; it does not matter when the
	// workload never enables the WAL.
	walPolicy() wal.SyncPolicy
	// tail applies the fixed logged suffix between the last checkpoint
	// and the simulated kill; a no-op when the WAL is off, since an
	// unlogged suffix would rightly be lost.
	tail(c *client)
	// verify compares the final state with the harness-side reference.
	verify() []error
	// shape describes the workload's inputs to the layer probes.
	shape() probeShape
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "tpch_refresh":
		return &tpchRefresh{}, nil
	case "micro_update":
		return &microUpdate{}, nil
	case "churn_daemon":
		return &churnDaemon{}, nil
	case "durable_ingest":
		return &durableIngest{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

var workloadNames = []string{"tpch_refresh", "micro_update", "churn_daemon", "durable_ingest"}

// applyKV sends one generated batch to the kv table through client c.
func applyKV(c *client, db *engine.Database, op kvOp, roundRobin bool) bool {
	switch op.kind {
	case opInsert:
		return c.update(opInsert, func() (int, error) {
			if roundRobin {
				return len(op.rows), db.InsertRows("kv", op.rows)
			}
			return len(op.rows), db.InsertRowsPartition("kv", op.part, op.rows)
		})
	case opDelete:
		return c.update(opDelete, func() (int, error) {
			return len(op.rowIDs), db.DeleteRowIDs("kv", op.part, op.rowIDs)
		})
	default:
		return c.update(opModify, func() (int, error) {
			return len(op.rowIDs), db.Modify("kv", op.part, op.rowIDs, op.column, op.values)
		})
	}
}

// verifyKV replays the regenerated streams on the reference model and
// compares it with the table, then checks both index invariants.
func verifyKV(tb *engine.Table, model *kvModel) []error {
	var errs []error
	if got, want := tableChecksum(tb), model.checksum(); got != want {
		errs = append(errs, fmt.Errorf("kv holds %d rows (checksum %x), the reference model %d (%x)", got.rows, got.sum, want.rows, want.sum))
	}
	for _, col := range []string{"key", "val"} {
		if err := checkIndex(tb, col); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}
