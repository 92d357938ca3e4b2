package engine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"patchindex/internal/core"
)

// The maintenance daemon. The paper leaves index upkeep to the host
// system's discretion ("the index is recomputed when update handling
// has eroded optimality", Sections 5.1/5.3); this engine makes that
// concrete with a self-managing background sweep. A Maintainer
// periodically samples every table's per-partition health — exception
// rates and patch-storage utilization from the index slots
// (PartitionIndexStats) and physical sortedness measured against the
// stored values (PartitionSortedness) — and repairs exactly the
// partitions whose metrics crossed the configured thresholds:
//
//   - a NSC partition whose physical order decayed is handed to its
//     registered PartitionReorderer (the SortKey rebuild), which goes
//     through ReorderPartition: checkpoint, permute aside, log, publish
//     — the slot comes out patch-free;
//   - an eroded slot without a reorderer (or one that is merely
//     over-patched, not disordered) is recomputed in place
//     (RecomputePartitionIndex);
//   - sparse patch bitmaps are condensed (CondensePartitionIndex).
//
// Lock discipline: the daemon is an ordinary engine client. It holds no
// engine lock of its own across actions — every sample and every repair
// acquires the standard locks of the entry point it calls (shared
// structure lock + one partition lock for all per-partition work) and
// releases them before the next step. No repair waits for a snapshot: a
// reorder publishes a new partition and leaves the old one to the
// snapshots that hold it, so each repair runs once per sweep, and a
// failed one is counted and left to the next sweep.
//
// Shutdown: Stop (or Database.Close) closes the stop channel and waits
// for the sweep goroutine to exit; an in-flight sweep finishes, and
// returns. Stop is idempotent and safe to call concurrently.

// PartitionReorderer physically re-sorts one partition through the
// engine's reorder guard. *sortkey.SortKey satisfies it with
// RebuildPartitionChecked; the indirection exists because the engine
// cannot import the sortkey package (it imports the engine).
type PartitionReorderer interface {
	RebuildPartitionChecked(p int) error
}

// MaintainerConfig tunes the daemon. Zero thresholds disable their
// respective repairs; Interval <= 0 disables the background goroutine
// entirely, leaving a manual-Sweep maintainer (the deterministic mode
// tests drive).
type MaintainerConfig struct {
	// Interval is the sweep period.
	Interval time.Duration
	// MaxExceptionRate triggers repair of an index slot whose
	// per-partition exception rate exceeds it.
	MaxExceptionRate float64
	// MinSortedness picks the repair for an eroded NSC slot: below it
	// (and with a reorderer registered) the partition is physically
	// re-sorted; at or above it the slot is merely recomputed.
	MinSortedness float64
	// MinUtilization triggers condensing of patch storage whose live
	// fraction fell below it (bitmap designs only).
	MinUtilization float64
	// CheckpointEvery, when > 0 and WAL logging is enabled
	// (Database.EnableWAL), runs Database.CheckpointToDisk every
	// CheckpointEvery-th sweep — the self-managing truncation that keeps
	// WAL segments from growing without bound. 0 leaves checkpointing
	// manual.
	CheckpointEvery int
}

// DefaultMaintainerConfig returns the thresholds the daemon ships with.
func DefaultMaintainerConfig() MaintainerConfig {
	return MaintainerConfig{
		Interval:         100 * time.Millisecond,
		MaxExceptionRate: 0.05,
		MinSortedness:    0.5,
		MinUtilization:   0.25,
	}
}

// MaintainerStats is a point-in-time snapshot of the daemon's counters:
// Sweeps completed, successful repair Actions (broken out by kind) and
// failed repairs (Errors). Refusals reads 0, for no repair refuses; it
// stays because the benchmark harness reads it.
type MaintainerStats struct {
	Sweeps   uint64
	Actions  uint64
	Refusals uint64
	Errors   uint64

	Reorders    uint64
	Recomputes  uint64
	Condenses   uint64
	Checkpoints uint64
}

// Maintainer is the engine-owned maintenance daemon. Create one with
// Database.StartMaintainer; drive it deterministically with Sweep or
// let its goroutine tick at the configured interval.
type Maintainer struct {
	db  *Database
	cfg MaintainerConfig

	// regMu guards reorderers. Leaf-level: nothing else is ever
	// acquired while it is held (registry snapshots are copied out
	// before any engine call).
	regMu      sync.Mutex // lock-rank: none leaf lock, registry snapshots are copied out before any engine call
	reorderers map[string]map[string]PartitionReorderer

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	sweeps, actions, errs           atomic.Uint64
	reorders, recomputes, condenses atomic.Uint64
	checkpoints                     atomic.Uint64
}

// StartMaintainer creates the database's maintenance daemon and, when
// cfg.Interval > 0, starts its sweep goroutine. A database owns at most
// one maintainer; a second call fails.
func (db *Database) StartMaintainer(cfg MaintainerConfig) (*Maintainer, error) {
	m := &Maintainer{
		db:         db,
		cfg:        cfg,
		reorderers: make(map[string]map[string]PartitionReorderer),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	if !db.maint.CompareAndSwap(nil, m) {
		return nil, fmt.Errorf("engine: database already has a maintainer")
	}
	if cfg.Interval > 0 {
		go m.run()
	} else {
		close(m.done) // manual-Sweep mode: nothing to wait for on Stop
	}
	return m, nil
}

// Maintainer returns the database's maintenance daemon, or nil.
func (db *Database) Maintainer() *Maintainer { return db.maint.Load() }

// Close shuts the database down: the maintenance daemon (if any) is
// stopped and its goroutine joined. Tables stay readable — Close exists
// to give the daemon a clean shutdown contract, not to invalidate data.
func (db *Database) Close() {
	if m := db.maint.Load(); m != nil {
		m.Stop()
	}
}

// Stop terminates the sweep goroutine and waits for it to exit. An
// in-flight sweep finishes before the join returns. Idempotent.
func (m *Maintainer) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
}

func (m *Maintainer) run() {
	defer close(m.done)
	tick := time.NewTicker(m.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-tick.C:
			m.Sweep()
		}
	}
}

// RegisterReorderer attaches a physical reorderer for table.column —
// typically a *sortkey.SortKey on the NSC column — making the daemon
// prefer a real re-sort over an in-place recompute when the partition's
// physical sortedness decays.
func (m *Maintainer) RegisterReorderer(table, column string, r PartitionReorderer) {
	m.regMu.Lock()
	defer m.regMu.Unlock()
	byCol := m.reorderers[table]
	if byCol == nil {
		byCol = make(map[string]PartitionReorderer)
		m.reorderers[table] = byCol
	}
	byCol[column] = r
}

func (m *Maintainer) reorderer(table, column string) PartitionReorderer {
	m.regMu.Lock()
	defer m.regMu.Unlock()
	return m.reorderers[table][column]
}

// Stats snapshots the daemon's counters.
func (m *Maintainer) Stats() MaintainerStats {
	return MaintainerStats{
		Sweeps:      m.sweeps.Load(),
		Actions:     m.actions.Load(),
		Errors:      m.errs.Load(),
		Reorders:    m.reorders.Load(),
		Recomputes:  m.recomputes.Load(),
		Condenses:   m.condenses.Load(),
		Checkpoints: m.checkpoints.Load(),
	}
}

// Sweep runs one full maintenance pass over every table, synchronously.
// The background goroutine calls it each tick; tests call it directly
// for deterministic schedules.
func (m *Maintainer) Sweep() {
	defer m.sweeps.Add(1)
	for _, t := range m.db.tablesSnapshot() {
		m.sweepTable(t)
	}
	// Periodic durability checkpoint: every CheckpointEvery-th sweep,
	// persist a snapshot and truncate the WAL segments behind it. Like
	// every other action the daemon takes, this is an ordinary exported
	// entry point called with no daemon lock held.
	if n := m.cfg.CheckpointEvery; n > 0 {
		if dir := m.db.WALDir(); dir != "" && (m.sweeps.Load()+1)%uint64(n) == 0 {
			if err := m.db.CheckpointToDisk(dir); err != nil {
				m.errs.Add(1)
			} else {
				m.checkpoints.Add(1)
				m.actions.Add(1)
			}
		}
	}
}

// tablesSnapshot lists the tables in name order (deterministic sweeps),
// holding the map lock only for the copy.
func (db *Database) tablesSnapshot() []*Table {
	db.tablesMu.RLock()
	out := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t)
	}
	db.tablesMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// indexedColumn pairs an indexed column with its constraint kind — the
// sweep's working unit, copied out under the structure lock.
type indexedColumn struct {
	name       string
	constraint core.Constraint
}

func (t *Table) indexedColumnsSnapshot() []indexedColumn {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]indexedColumn, 0, len(t.indexes))
	for column, idx := range t.indexes {
		out = append(out, indexedColumn{name: column, constraint: idx[0].ConstraintKind()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// sweepTable repairs every indexed column's eroded partitions and
// condenses its sparse ones.
func (m *Maintainer) sweepTable(t *Table) {
	for _, c := range t.indexedColumnsSnapshot() {
		for _, ps := range t.PartitionIndexStats(c.name) {
			if m.cfg.MaxExceptionRate > 0 && ps.ExceptionRate > m.cfg.MaxExceptionRate && ps.Rows > 0 {
				m.repairSlot(t, c, ps.Partition)
			}
			if m.cfg.MinUtilization > 0 && ps.Utilization < m.cfg.MinUtilization {
				column, p := c.name, ps.Partition
				m.attempt(&m.condenses, func() error { return t.CondensePartitionIndex(column, p) })
			}
		}
	}
}

// repairSlot fixes one index slot whose exception rate crossed the
// threshold: a physically disordered NSC partition with a registered
// reorderer is re-sorted (the repair that actually removes patches);
// everything else is recomputed in place.
func (m *Maintainer) repairSlot(t *Table, c indexedColumn, p int) {
	if c.constraint == core.NearlySorted {
		if r := m.reorderer(t.name, c.name); r != nil {
			sorted, err := t.PartitionSortedness(c.name, p)
			if err == nil && sorted < m.cfg.MinSortedness {
				m.attempt(&m.reorders, func() error { return r.RebuildPartitionChecked(p) })
				return
			}
		}
	}
	column := c.name
	m.attempt(&m.recomputes, func() error { return t.RecomputePartitionIndex(column, p) })
}

// attempt runs one repair and counts its outcome.
func (m *Maintainer) attempt(kind *atomic.Uint64, repair func() error) {
	if err := repair(); err != nil {
		m.errs.Add(1)
		return
	}
	kind.Add(1)
	m.actions.Add(1)
}
