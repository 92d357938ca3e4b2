package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"patchindex/internal/core"
	"patchindex/internal/plan"
	"patchindex/internal/storage"
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
//     through ReorderPartition: checkpoint, permute, re-anchor — the
//     slot comes out patch-free;
//   - an eroded slot without a reorderer (or one that is merely
//     over-patched, not disordered) is recomputed in place
//     (RecomputePartitionIndex);
//   - sparse patch bitmaps are condensed (CondensePartitionIndex);
//   - optionally, unindexed BIGINT columns are probed for
//     near-uniqueness on a bounded per-partition sample and adopted as
//     NUC PatchIndexes when their exception rate is low enough
//     (core.DiscoverNUCInt64's counting pass, surfaced as
//     core.MatchRateNUC).
//
// Lock discipline: the daemon is an ordinary engine client. It holds no
// engine lock of its own across actions — every sample and every repair
// acquires the standard locks of the entry point it calls (shared
// structure lock + one partition lock for all per-partition work; the
// exclusive lock only for index adoption, which is DDL) and releases
// them before the next step. A repair refused because a live snapshot
// still captures the partition (ErrSnapshotCaptured) is retried with
// bounded exponential backoff, sleeping without any lock held — the
// daemon never blocks writers waiting for a snapshot to drain; it
// gives the partition up until the next sweep instead.
//
// Shutdown: Stop (or Database.Close) closes the stop channel and waits
// for the sweep goroutine to exit; an in-flight sweep finishes its
// current action, skips its remaining backoff sleeps, and returns. Stop
// is idempotent and safe to call concurrently.

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
	// MaxCostErosion, when > 0, derives each partition's repair
	// threshold from the optimizer's cost model instead of the static
	// MaxExceptionRate: a slot is repaired once its exception rate
	// exceeds plan.ErosionExceptionRate(rows, MaxCostErosion) — the
	// rate at which the partition's patch plan prices MaxCostErosion
	// (a fraction, e.g. 0.25) above a patch-free one, capped at the
	// break-even past which the optimizer abandons the patch plan
	// anyway. Small partitions whose patch plan never wins report a
	// threshold of 1 and are left alone — repairing them has no
	// plan-cost payoff.
	MaxCostErosion float64
	// MinSortedness picks the repair for an eroded NSC slot: below it
	// (and with a reorderer registered) the partition is physically
	// re-sorted; at or above it the slot is merely recomputed.
	MinSortedness float64
	// MinUtilization triggers condensing of patch storage whose live
	// fraction fell below it (bitmap designs only).
	MinUtilization float64
	// DiscoverNearUnique probes unindexed BIGINT columns each sweep and
	// adopts a NUC PatchIndex when the column's exception rate is at
	// most NearUniqueMaxRate.
	DiscoverNearUnique bool
	NearUniqueMaxRate  float64
	// DiscoverySampleRows bounds the rows the discovery probe reads per
	// partition: larger partitions are stride-sampled down to this many
	// values instead of having the whole column materialized and
	// concatenated. <= 0 uses DefaultDiscoverySampleRows. Partitions at
	// or below the bound are read in full, so small tables keep exact
	// discovery.
	DiscoverySampleRows int
	// MaxRetries bounds re-attempts of a snapshot-refused repair within
	// one sweep; RetryBackoff is the initial sleep between attempts,
	// doubled per retry.
	MaxRetries   int
	RetryBackoff time.Duration
	// CheckpointEvery, when > 0 and WAL logging is enabled
	// (Database.EnableWAL), runs Database.CheckpointToDisk every
	// CheckpointEvery-th sweep — the self-managing truncation that keeps
	// WAL segments from growing without bound. 0 leaves checkpointing
	// manual.
	CheckpointEvery int
}

// DefaultDiscoverySampleRows is the per-partition row budget of the
// discovery probe when MaintainerConfig.DiscoverySampleRows is unset.
const DefaultDiscoverySampleRows = 4096

// DefaultMaintainerConfig returns the thresholds the daemon ships with.
func DefaultMaintainerConfig() MaintainerConfig {
	return MaintainerConfig{
		Interval:          100 * time.Millisecond,
		MaxExceptionRate:  0.05,
		MinSortedness:     0.5,
		MinUtilization:    0.25,
		NearUniqueMaxRate: 0.01,
		MaxRetries:        3,
		RetryBackoff:      time.Millisecond,
	}
}

// MaintainerStats is a point-in-time snapshot of the daemon's counters:
// Sweeps completed, successful repair Actions (broken out by kind),
// snapshot-refused attempts (Refusals), re-attempts after a refusal
// (Retries), and hard Errors.
type MaintainerStats struct {
	Sweeps   uint64
	Actions  uint64
	Refusals uint64
	Retries  uint64
	Errors   uint64

	Reorders    uint64
	Recomputes  uint64
	Condenses   uint64
	Discoveries uint64
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

	sweeps, actions, refusals, retries, errs     atomic.Uint64
	reorders, recomputes, condenses, discoveries atomic.Uint64
	checkpoints                                  atomic.Uint64
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
// in-flight sweep finishes its current repair (skipping remaining
// backoff sleeps) before the join returns. Idempotent.
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
		Refusals:    m.refusals.Load(),
		Retries:     m.retries.Load(),
		Errors:      m.errs.Load(),
		Reorders:    m.reorders.Load(),
		Recomputes:  m.recomputes.Load(),
		Condenses:   m.condenses.Load(),
		Discoveries: m.discoveries.Load(),
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

func (m *Maintainer) sweepTable(t *Table) {
	cols := m.sweepIndexes(t)
	if m.cfg.DiscoverNearUnique {
		m.sweepDiscovery(t, cols)
	}
}

// sweepIndexes repairs every indexed column's eroded partitions and
// returns the indexed column set (for the discovery pass).
func (m *Maintainer) sweepIndexes(t *Table) []indexedColumn {
	cols := t.indexedColumnsSnapshot()
	for _, c := range cols {
		for _, ps := range t.PartitionIndexStats(c.name) {
			if threshold, ok := m.repairThreshold(ps.Rows); ok && ps.ExceptionRate > threshold && ps.Rows > 0 {
				m.repairSlot(t, c, ps.Partition)
			}
			if m.cfg.MinUtilization > 0 && ps.Utilization < m.cfg.MinUtilization {
				column, p := c.name, ps.Partition
				if m.attempt(&m.condenses, func() error { return t.CondensePartitionIndex(column, p) }) {
					continue
				}
			}
		}
	}
	return cols
}

// repairThreshold returns the exception rate above which a partition of
// the given size is repaired, and whether exception-rate repair is
// enabled at all. MaxCostErosion > 0 selects the cost-derived
// threshold; otherwise the static MaxExceptionRate applies (0 disables
// the repair).
func (m *Maintainer) repairThreshold(rows uint64) (float64, bool) {
	if m.cfg.MaxCostErosion > 0 {
		return plan.ErosionExceptionRate(rows, m.cfg.MaxCostErosion), true
	}
	if m.cfg.MaxExceptionRate > 0 {
		return m.cfg.MaxExceptionRate, true
	}
	return 0, false
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

// sweepDiscovery probes unindexed BIGINT columns for near-uniqueness
// and adopts a NUC PatchIndex (bitmap design) on columns whose
// exception rate is within the configured bound — the daemon noticing a
// column drifting into near-uniqueness before anyone declares it.
//
// The probe reads at most DiscoverySampleRows evenly spaced values per
// partition (SampleInt64Column) rather than materializing and
// concatenating whole columns, so its footprint stays bounded on large
// tables. Sampling can under-count duplicates, but a wrongly adopted
// column is self-correcting: its index carries the true patch set, and
// the next sweepIndexes pass sees the real exception rate.
func (m *Maintainer) sweepDiscovery(t *Table, indexed []indexedColumn) {
	have := make(map[string]bool, len(indexed))
	for _, c := range indexed {
		have[c.name] = true
	}
	budget := m.cfg.DiscoverySampleRows
	if budget <= 0 {
		budget = DefaultDiscoverySampleRows
	}
	for _, def := range t.Schema() {
		if have[def.Name] || def.Kind != storage.KindInt64 {
			continue
		}
		var vals []int64
		for p := 0; p < t.NumPartitions(); p++ {
			sample, _ := t.SampleInt64Column(p, def.Name, budget)
			vals = append(vals, sample...)
		}
		if len(vals) == 0 {
			continue
		}
		if rate := 1 - core.MatchRateNUC(vals); rate <= m.cfg.NearUniqueMaxRate {
			if m.attempt(&m.discoveries, func() error {
				return t.CreatePatchIndex(def.Name, core.NearlyUnique, core.Options{Design: core.DesignBitmap})
			}) {
				continue
			}
		}
	}
}

// attempt runs one repair through the refusal/retry protocol: a
// transient snapshot refusal (ErrSnapshotCaptured) is retried up to
// MaxRetries times with doubling backoff — sleeping with no lock held,
// and cut short by Stop — after which the partition is given up until
// the next sweep. Returns whether the repair ran.
func (m *Maintainer) attempt(kind *atomic.Uint64, repair func() error) bool {
	backoff := m.cfg.RetryBackoff
	if backoff <= 0 {
		backoff = time.Millisecond
	}
	for try := 0; ; try++ {
		err := repair()
		switch {
		case err == nil:
			kind.Add(1)
			m.actions.Add(1)
			return true
		case errors.Is(err, ErrSnapshotCaptured):
			m.refusals.Add(1)
			if try >= m.cfg.MaxRetries {
				return false
			}
			select {
			case <-m.stop:
				return false
			case <-time.After(backoff):
			}
			m.retries.Add(1)
			backoff *= 2
		default:
			m.errs.Add(1)
			return false
		}
	}
}
