package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"patchindex/internal/bitmap"
	"patchindex/internal/core"
	"patchindex/internal/datagen"
	"patchindex/internal/engine"
	"patchindex/internal/exec"
	"patchindex/internal/pdt"
	"patchindex/internal/query"
	"patchindex/internal/storage"
	"patchindex/internal/wal"
)

// probeShape hands a workload's own inputs to the layer probes: the
// layers the harness never calls directly (bitmap, core, pdt, storage,
// wal) are measured after the measured phase by driving their public
// functions in isolation at the sizes the workload runs them at.
type probeShape struct {
	rows   int     // rows per partition as the run left them
	batch  int     // rows one update batch sends to one partition
	column []int64 // one partition of the workload's NSC column, as the run left it
	// The workload's query shapes and how it compiles them; the first
	// shape is the one the paper-shape check looks at.
	queries []*query.Plan
	opts    query.Options
}

// probeDeletes is the size of the delete batches the probes replay.
const probeDeletes = 512

type prober struct {
	tr      *tracer
	rng     *rand.Rand
	shape   probeShape
	metrics map[string]float64
}

// timed runs fn under a probe span and returns its wall time.
func (p *prober) timed(name spanName, fn func()) time.Duration {
	s := p.tr.begin(name, -1)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	p.tr.end(s)
	return d
}

// medianOf runs fn n times under probe spans and returns the median wall time.
func (p *prober) medianOf(name spanName, n int, fn func()) time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		ds[i] = p.timed(name, fn)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[n/2]
}

func ns(d time.Duration) float64 { return float64(d) }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (p *prober) positions(n, k int) []uint64 { return spreadPositions(p.rng, n, k) }

func (p *prober) bitmapProbe() {
	n := uint64(max(p.shape.rows, 4*probeDeletes))
	build := func() *bitmap.Sharded {
		s := bitmap.NewSharded(n, bitmap.DefaultShardBits)
		for i := uint64(0); i < n; i += 20 {
			s.Set(i)
		}
		return s
	}
	s := build()
	const sets = 50_000
	at := make([]uint64, sets)
	for i := range at {
		at[i] = uint64(p.rng.Int63n(int64(n)))
	}
	p.metrics["bitmap.set_ns"] = ns(p.timed(spProbeBitmap, func() {
		for _, i := range at {
			s.Set(i)
		}
	})) / sets
	var seen int
	p.metrics["bitmap.scan_ns_per_kbit"] = ns(p.medianOf(spProbeBitmap, 5, func() {
		s.ForEachSet(func(uint64) bool { seen++; return true })
	})) / (float64(n) / 1000)
	p.metrics["bitmap.bytes_per_bit"] = float64(s.SizeBytes()) / float64(n)

	// Fig. 6: the same delete batch on a flat bitmap, one shifting
	// Delete per position, against one sharded BulkDelete.
	s = build()
	flat := bitmap.New(n)
	for i := uint64(0); i < n; i += 20 {
		flat.Set(i)
	}
	const rounds = 10
	var sharded, flatTime time.Duration
	var deleted int
	for r := 0; r < rounds; r++ {
		pos := p.positions(int(s.Len()), min(probeDeletes, int(s.Len())/4))
		deleted += len(pos)
		sharded += p.timed(spProbeBitmap, func() { s.BulkDelete(pos) })
		flatTime += p.timed(spProbeBitmap, func() {
			for i := len(pos) - 1; i >= 0; i-- {
				flat.Delete(pos[i])
			}
		})
	}
	p.metrics["bitmap.bulk_delete_ns_per_pos"] = ratio(ns(sharded), float64(deleted))
	p.metrics["bitmap.flat_vs_sharded_delete_ratio"] = ratio(ns(flatTime), ns(sharded))
	p.metrics["bitmap.condense_ms"] = ms(p.timed(spProbeBitmap, func() { s.Condense() }))

	grow := uint64(max(p.shape.batch, 1))
	const grows = 500
	p.metrics["bitmap.grow_ns_per_kbit"] = ns(p.timed(spProbeBitmap, func() {
		for i := 0; i < grows; i++ {
			s.Grow(grow)
		}
	})) / (grows * float64(grow) / 1000)

	// The first write after a Freeze pays for the shard it copies.
	p.metrics["bitmap.cow_first_write_us"] = us(p.medianOf(spProbeBitmap, 21, func() {
		s.Freeze()
		s.Set(uint64(p.rng.Int63n(int64(s.Len()))))
	}))
}

func (p *prober) coreProbe() {
	vals := p.shape.column
	if len(vals) == 0 {
		return
	}
	rows := float64(len(vals))
	opts := core.Options{Design: core.DesignBitmap}
	var nsc, nuc *core.Index
	p.metrics["core.build_nsc_ns_per_row"] = ns(p.medianOf(spProbeCore, 3, func() { nsc = core.BuildNSC(vals, opts) })) / rows
	p.metrics["core.build_nuc_ns_per_row"] = ns(p.medianOf(spProbeCore, 3, func() { nuc = core.BuildNUCInt64(vals, opts) })) / rows
	p.metrics["core.index_bytes_per_row"] = float64(nsc.MemoryBytes()+nuc.MemoryBytes()) / rows

	sel := make([]int32, 0, exec.BatchSize)
	p.metrics["core.appendsel_ns_per_row"] = ns(p.medianOf(spProbeCore, 5, func() {
		for lo := uint64(0); lo < nsc.Rows(); lo += exec.BatchSize {
			sel = nsc.AppendSel(lo, min(lo+exec.BatchSize, nsc.Rows()), true, sel[:0])
		}
	})) / rows

	var buf bytes.Buffer
	d := p.timed(spProbeCore, func() {
		if _, err := nsc.WriteTo(&buf); err != nil {
			panic(err)
		}
		if _, err := new(core.Index).ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
			panic(err)
		}
	})
	p.metrics["core.checkpoint_mb_per_s"] = ratio(float64(buf.Len())/(1<<20), d.Seconds())

	batch := max(p.shape.batch, 1)
	last, _ := nsc.LastSortedValue()
	const inserts = 200
	p.metrics["core.insert_nsc_ns_per_row"] = ns(p.timed(spProbeCore, func() {
		for i := 0; i < inserts; i++ {
			in := make([]int64, batch)
			for j := range in {
				last++
				in[j] = last
			}
			nsc.HandleInsertNSC(in)
		}
	})) / float64(inserts*batch)

	const rounds = 20
	var del time.Duration
	var deleted int
	for r := 0; r < rounds; r++ {
		pos := p.positions(int(nsc.Rows()), min(probeDeletes, int(nsc.Rows())/4))
		del += p.timed(spProbeCore, func() { nsc.HandleDelete(pos) })
		deleted += len(pos)
	}
	p.metrics["core.delete_ns_per_row"] = ratio(ns(del), float64(deleted))

	p.metrics["core.freeze_first_write_us"] = us(p.medianOf(spProbeCore, 21, func() {
		nsc.Freeze()
		nsc.AddPatches([]uint64{uint64(p.rng.Int63n(int64(nsc.Rows())))})
	}))
}

func (p *prober) partition() *storage.Partition {
	part := storage.NewPartition(datagen.KeyValueSchema())
	for i, v := range p.shape.column {
		part.AppendRow(storage.Row{storage.I64(v), storage.I64(int64(i))})
	}
	return part
}

func (p *prober) batchRows() []storage.Row {
	rows := make([]storage.Row, max(p.shape.batch, 1))
	for i := range rows {
		rows[i] = storage.Row{storage.I64(p.rng.Int63()), storage.I64(p.rng.Int63())}
	}
	return rows
}

func (p *prober) pdtProbe() {
	base := p.partition()
	n := base.NumRows()
	if n == 0 {
		return
	}
	rows := p.batchRows()
	const rounds = 50
	var ins, del, mat, apply time.Duration
	var resolved int
	var resolve time.Duration
	for r := 0; r < rounds; r++ {
		d := pdt.NewDelta(datagen.KeyValueSchema(), base.NumRows())
		ins += p.timed(spProbePDT, func() { d.InsertRows(rows) })
		pos := p.positions(base.NumRows(), min(probeDeletes, base.NumRows()/2))
		logical := make([]int, len(pos))
		for i, x := range pos {
			logical[i] = int(x)
		}
		del += p.timed(spProbePDT, func() { d.DeleteRows(logical) })
		resolve += p.timed(spProbePDT, func() {
			for i := 0; i < 1000; i++ {
				d.Resolve(p.rng.Intn(d.NumRows()))
			}
		})
		resolved += 1000
		view := pdt.NewView(base, d)
		mat += p.timed(spProbePDT, func() { view.MaterializeInt64(0) })
		// Put back what the delta removed, so every round applies to a
		// partition of the size the workload left.
		for range logical {
			d.Insert(rows[0])
		}
		apply += p.timed(spProbePDT, func() { d.ApplyTo(base) })
	}
	p.metrics["pdt.insert_ns_per_row"] = ns(ins) / float64(rounds*len(rows))
	p.metrics["pdt.delete_ns_per_row"] = ns(del) / float64(rounds*min(probeDeletes, n/2))
	p.metrics["pdt.resolve_ns"] = ns(resolve) / float64(resolved)
	p.metrics["pdt.materialize_ns_per_row"] = ns(mat) / float64(rounds*n)
	p.metrics["pdt.checkpoint_ms"] = ms(apply) / rounds
}

func (p *prober) storageProbe() {
	part := p.partition()
	n := part.NumRows()
	if n == 0 {
		return
	}
	p.metrics["storage.bytes_per_row"] = float64(part.SizeBytes()) / float64(n)
	row := storage.Row{storage.I64(1), storage.I64(2)}
	p.metrics["storage.freeze_us"] = us(p.medianOf(spProbeStorage, 21, func() { part.Freeze() }))
	p.metrics["storage.cow_append_us"] = us(p.medianOf(spProbeStorage, 21, func() {
		part.Freeze()
		part.AppendRow(row)
	}))

	mm := part.MinMax(0)
	var kept int
	const windows = 200
	for i := 0; i < windows; i++ {
		lo := p.shape.column[p.rng.Intn(len(p.shape.column))]
		kept += len(mm.PruneBlocks([]storage.Range{{Min: lo, Max: lo + churnWindow}}))
	}
	p.metrics["storage.minmax_prune_ratio"] = 1 - ratio(float64(kept), float64(windows*mm.Blocks()))

	const rounds = 20
	var del time.Duration
	for r := 0; r < rounds; r++ {
		pos := p.positions(part.NumRows(), min(probeDeletes, part.NumRows()/2))
		del += p.timed(spProbeStorage, func() { part.DeleteRows(pos) })
		for range pos {
			part.AppendRow(row)
		}
	}
	p.metrics["storage.delete_rows_ns_per_row"] = ns(del) / float64(rounds*min(probeDeletes, n/2))
}

// walProbe appends records the size of the workload's update batches to
// a segment of its own, once without and once with a flush per record.
func (p *prober) walProbe(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	body := make([]byte, 8+16*max(p.shape.batch, 1))
	p.rng.Read(body)
	appendP50 := func(policy wal.SyncPolicy, n int) (float64, *wal.Segment, error) {
		path := filepath.Join(dir, fmt.Sprintf("probe-%d.wal", policy))
		os.Remove(path)
		seg, err := wal.OpenSegment(path, policy)
		if err != nil {
			return 0, nil, err
		}
		ds := make([]time.Duration, n)
		for i := range ds {
			ds[i] = p.timed(spProbeWAL, func() { err = seg.Append(uint64(i+1), 1, body) })
			if err != nil {
				seg.Close()
				return 0, nil, err
			}
		}
		return percentile(sortedMillis(ds), 0.5) * 1e3, seg, nil
	}
	const plain, flushed = 4000, 300
	none, seg, err := appendP50(wal.SyncNone, plain)
	if err != nil {
		return err
	}
	defer seg.Close()
	each, synced, err := appendP50(wal.SyncEach, flushed)
	if err != nil {
		return err
	}
	synced.Close()
	p.metrics["wal.append_us_p50"] = none
	p.metrics["wal.fsync_us_p50"] = max(each-none, 0)

	var size int64
	if st, err := os.Stat(seg.Path()); err == nil {
		size = st.Size()
	}
	d := p.timed(spProbeWAL, func() { _, _, err = wal.ReadSegment(seg.Path()) })
	if err != nil {
		return err
	}
	p.metrics["wal.read_segment_mb_per_s"] = ratio(float64(size)/(1<<20), d.Seconds())
	d = p.timed(spProbeWAL, func() { err = seg.TruncateThrough(plain / 2) })
	p.metrics["wal.truncate_ms"] = ms(d)
	return err
}

// queryProbe runs each of the workload's query shapes on one snapshot
// of the final state in every plan mode: how far Auto is from the best
// forced mode (regret), and what the patch plan buys over the
// reference plan. It also counts what one query allocates, with every
// client stopped.
func (p *prober) queryProbe(db *engine.Database) error {
	modes := []query.Mode{query.Auto, query.ForcePatchIndex, query.ForceReference}
	const reps = 3
	var regret float64
	for qi, plan := range p.shape.queries {
		snap, err := db.Snapshot(plan.Tables()...)
		if err != nil {
			return err
		}
		best := [3]time.Duration{}
		for r := 0; r < reps; r++ {
			for mi, mode := range modes {
				o := p.shape.opts
				o.Mode = mode
				comp, err := query.CompileSnapshot(plan, snap, o)
				if err != nil {
					snap.Close()
					return err
				}
				d := p.timed(spProbePlan, func() { _, err = exec.Count(comp.Root) })
				if err != nil {
					snap.Close()
					return err
				}
				if best[mi] == 0 || d < best[mi] {
					best[mi] = d
				}
			}
		}
		regret = max(regret, ratio(ns(best[0]), ns(min(best[1], best[2]))))
		if qi == 0 {
			p.metrics["plan.patch_vs_reference_ratio"] = ratio(ns(best[1]), ns(best[2]))
			var before, after runtime.MemStats
			const runs = 5
			runtime.ReadMemStats(&before)
			for r := 0; r < runs; r++ {
				comp, err := query.CompileSnapshot(plan, snap, p.shape.opts)
				if err == nil {
					_, err = exec.Count(comp.Root)
				}
				if err != nil {
					snap.Close()
					return err
				}
			}
			runtime.ReadMemStats(&after)
			p.metrics["exec.allocs_per_query"] = float64(after.Mallocs-before.Mallocs) / runs
			p.metrics["exec.alloc_bytes_per_query"] = float64(after.TotalAlloc-before.TotalAlloc) / runs
		}
		snap.Close()
	}
	p.metrics["plan.chooser_regret"] = regret
	return nil
}
