package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"
	"time"

	"patchindex/internal/engine"
	"patchindex/internal/wal"
)

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    scale
	work     string // scratch directory for WAL segments, checkpoints and their copies
	out      string // where the traced run writes its trace file
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	problems  []string
	tracePath string
}

// run carries one workload through its whole life: set-up (several
// times, timed), the measured phase, then the tail every workload
// shares — harness-driven checkpoints, a fixed logged suffix, a
// simulated kill, recovery — and the output checks.
type run struct {
	cfg  runConfig
	w    workload
	base string // this run's scratch directory
	dir  string // the measured database's durability directory

	setups  []float64 // seconds
	epoch   time.Time // start of the measured phase; spans count from it
	phase   time.Duration
	clients []*client
	tail    *client // issues the checkpoints, the logged tail, the recoveries and the final checks

	indexSamples []float64 // index bytes per row, sampled through the phase
	indexBytes   uint64    // at the end of the phase
	rssMiB       float64

	checkpoints, recovers []float64 // seconds, warm-up dropped
	checkpointBytes       int64
	killed                string // the copy of dir recovery runs from
	diskBytes             int64  // under killed
	liveRows              int    // in the database at the kill
	walRecords            int    // logged between the last checkpoint and the kill
	walBytes              int64
	applied               int // records the last recovery replayed
}

func runWorkload(cfg runConfig) (*result, error) {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	r := &run{cfg: cfg, w: w, base: filepath.Join(cfg.work, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))}
	if err := os.RemoveAll(r.base); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.base)
	if err := r.setUp(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r.measure()
	if err := r.durabilityTail(); err != nil {
		return nil, err
	}
	res := &result{}
	for _, c := range append(r.clients, r.tail) {
		res.Attempted += c.attempted
		res.Failed += c.failed
		res.problems = append(res.problems, c.problems...)
	}
	res.Correct = res.Failed == 0
	if !cfg.trace {
		res.Metrics = report(endToEnd, r.endToEnd())
		return res, nil
	}
	m, tracers, err := r.perLayer()
	if err != nil {
		return nil, err
	}
	res.Metrics = report(perLayer, m)
	res.tracePath, err = writeTrace(cfg.out, cfg.workload, cfg.seed, tracers, res.Metrics)
	return res, err
}

// setUp builds the database several times so that set-up time can be
// reported as a median. The same seed builds the same database every
// time; the last one is measured.
func (r *run) setUp() error {
	for i := 0; i < r.cfg.scale.setups; i++ {
		if i > 0 {
			r.w.quiesce()
			runtime.GC() // so that one set-up's garbage is not the next one's peak memory
		}
		r.dir = filepath.Join(r.base, fmt.Sprintf("db%d", i))
		t0 := time.Now()
		if err := r.w.setup(r.cfg.seed, r.cfg.scale, r.dir); err != nil {
			return err
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
	}
	runtime.GC()
	return nil
}

func (r *run) newClient(deadline time.Time) *client {
	c := &client{deadline: deadline}
	if r.cfg.trace {
		c.tr = newTracer(r.epoch)
	}
	return c
}

// indexBytesPerRow is Σ IndexMemoryBytes / Σ NumRows over the indexed tables.
func (r *run) indexBytesPerRow() (bytes uint64, perRow float64) {
	var rows int
	counted := map[string]bool{}
	for _, tc := range r.w.indexed() {
		tb := r.w.db().MustTable(tc[0])
		bytes += tb.IndexMemoryBytes(tc[1])
		if !counted[tc[0]] {
			counted[tc[0]] = true
			rows += tb.NumRows()
		}
	}
	return bytes, ratio(float64(bytes), float64(rows))
}

// measure is the measured phase: every client loops until the deadline.
func (r *run) measure() {
	loops := r.w.clients()
	r.epoch = time.Now()
	deadline := r.epoch.Add(time.Duration(r.cfg.seconds * float64(time.Second)))

	// Index memory saws up and down as bitmaps grow and condense, so it
	// is sampled throughout the phase and reported as a mean.
	stopSampling, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			_, perRow := r.indexBytesPerRow()
			r.indexSamples = append(r.indexSamples, perRow)
			select {
			case <-stopSampling:
				return
			case <-tick.C:
			}
		}
	}()
	var wg sync.WaitGroup
	for _, loop := range loops {
		c := r.newClient(deadline)
		r.clients = append(r.clients, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop(c)
		}()
	}
	wg.Wait()
	r.phase = time.Since(r.epoch)
	close(stopSampling)
	<-sampled
	r.w.quiesce()
	r.rssMiB = peakRSSMiB()
	r.indexBytes, _ = r.indexBytesPerRow()
}

// timedTail times one call of the durability tail under an op span and
// a layer span. The call starts from a collected heap and runs without
// a collection: what the previous call left behind is not charged to
// it, and whether a cycle happens to land inside a call this short does
// not decide the sample. The call still pays for what it allocates.
func (r *run) timedTail(op, call spanName, fn func() error) (seconds float64, err error) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r.tail.attempted++
	o := r.tail.tr.begin(op, -1)
	c := r.tail.tr.begin(call, o)
	t0 := time.Now()
	err = fn()
	seconds = time.Since(t0).Seconds()
	r.tail.tr.end(c)
	r.tail.tr.end(o)
	return seconds, err
}

func (r *run) durabilityTail() error {
	db, sc := r.w.db(), r.cfg.scale
	r.tail = r.newClient(time.Time{})
	for i := 0; i < sc.checkpoints; i++ {
		s, err := r.timedTail(spOpCheckpoint, spEngineCheckpoint, func() error { return db.CheckpointToDisk(r.dir) })
		if err != nil {
			r.tail.fail("CheckpointToDisk: %v", err)
		}
		r.checkpoints = append(r.checkpoints, s)
	}
	r.checkpointBytes = treeBytes(r.dir)
	r.w.tail(r.tail)

	// Output checks, outside every timed window: the final state against
	// the harness-side reference.
	for _, err := range r.w.verify() {
		r.tail.attempted++
		r.tail.fail("final state: %v", err)
	}
	live, err := databaseChecksums(db, r.w.tables())
	if err != nil {
		return err
	}
	for _, c := range live {
		r.liveRows += c.rows
	}

	// Simulated kill: the database is abandoned without Close, nothing
	// is flushed, and recovery sees only a copy of what is on disk —
	// with the last frame of one segment torn mid-record, as a crash
	// during an append leaves it.
	r.killed = filepath.Join(r.base, "killed")
	if err := copyTree(r.dir, r.killed); err != nil {
		return err
	}
	// Recover re-attaches logging under wal/, which a database that never
	// logged has not created.
	if err := os.MkdirAll(filepath.Join(r.killed, "wal"), 0o755); err != nil {
		return err
	}
	r.diskBytes = treeBytes(r.killed)
	r.walRecords, r.walBytes = walVolume(r.killed)
	torn, err := tearLastFrame(r.killed)
	if err != nil {
		return err
	}
	for i := 0; i < sc.recovers; i++ {
		rdir := filepath.Join(r.base, fmt.Sprintf("recover%d", i))
		if err := copyTree(r.killed, rdir); err != nil {
			return err
		}
		fresh := engine.NewDatabase()
		var stats *engine.RecoverStats
		s, err := r.timedTail(spOpRecover, spEngineRecover, func() (err error) {
			stats, err = fresh.Recover(rdir)
			return err
		})
		r.recovers = append(r.recovers, s)
		if err != nil {
			r.tail.fail("Recover: %v", err)
			continue
		}
		r.applied = stats.Applied
		// Every acknowledged operation is present and the torn frame is not.
		if stats.TornSegments != torn {
			r.tail.fail("Recover saw %d torn segments, the harness tore %d", stats.TornSegments, torn)
		}
		got, err := databaseChecksums(fresh, r.w.tables())
		if err != nil {
			r.tail.fail("recovered database: %v", err)
			continue
		}
		for name, want := range live {
			if got[name] != want {
				r.tail.fail("recovered table %s holds %d rows (checksum %x), the killed database held %d (%x)",
					name, got[name].rows, got[name].sum, want.rows, want.sum)
			}
		}
		if err := os.RemoveAll(rdir); err != nil {
			return err
		}
	}
	// The first third of the repeated calls warms up files, page cache
	// and heap; the medians are taken over the rest.
	r.checkpoints = r.checkpoints[len(r.checkpoints)/3:]
	r.recovers = r.recovers[len(r.recovers)/3:]
	return nil
}

// phaseTally merges what the clients of the measured phase recorded.
type phaseTally struct {
	queries    []time.Duration
	updates    [numUpdateKinds][]time.Duration
	rows       int64
	updateTime time.Duration
	verifyTime time.Duration // the longest any one client spent checking outputs
}

func (r *run) tally() phaseTally {
	var t phaseTally
	for _, c := range r.clients {
		t.queries = append(t.queries, c.queries...)
		for k := range t.updates {
			t.updates[k] = append(t.updates[k], c.updates[k]...)
		}
		t.rows += c.rows
		t.updateTime += c.updateTime
		t.verifyTime = max(t.verifyTime, c.verifyTime)
	}
	return t
}

func (r *run) endToEnd() map[string]float64 {
	t := r.tally()
	lat := sortedMillis(t.queries)
	return map[string]float64{
		"setup_s":             median(r.setups),
		"query_p50_ms":        percentile(lat, 0.50),
		"query_p95_ms":        percentile(lat, 0.95),
		"queries_per_s":       ratio(float64(len(t.queries)), (r.phase - t.verifyTime).Seconds()),
		"update_rows_per_s":   ratio(float64(t.rows), t.updateTime.Seconds()),
		"checkpoint_s":        median(r.checkpoints),
		"recover_s":           median(r.recovers),
		"disk_bytes_per_row":  ratio(float64(r.diskBytes), float64(r.liveRows)),
		"index_bytes_per_row": mean(r.indexSamples),
		"peak_rss_mb":         r.rssMiB,
	}
}

// perLayer is the traced run's output: numbers from the spans and the
// counts taken at the layer boundaries, then the probes.
func (r *run) perLayer() (map[string]float64, []*tracer, error) {
	db, t, m := r.w.db(), r.tally(), map[string]float64{}
	var tracers []*tracer
	var spans int
	for _, c := range append(r.clients, r.tail) {
		tracers = append(tracers, c.tr)
		spans += len(c.tr.spans)
	}
	m["bench.trace_overhead"] = ratio(float64(spans)*spanCost().Seconds(), float64(len(r.clients))*r.phase.Seconds())
	m["bench.phase_s"] = r.phase.Seconds()
	m["bench.queries"] = float64(len(t.queries))
	var calls int
	var stall time.Duration
	for k := range t.updates {
		calls += len(t.updates[k])
		for _, d := range t.updates[k] {
			stall = max(stall, d)
		}
	}
	m["bench.update_calls"] = float64(calls)
	m["engine.insert_ms_p50"] = percentile(sortedMillis(t.updates[opInsert]), 0.5)
	m["engine.delete_ms_p50"] = percentile(sortedMillis(t.updates[opDelete]), 0.5)
	m["engine.modify_ms_p50"] = percentile(sortedMillis(t.updates[opModify]), 0.5)
	m["engine.update_max_stall_ms"] = ms(stall)

	// Time per layer over the measured phase: each span's self time.
	busy := map[string]time.Duration{}
	for _, c := range r.clients {
		for layer, d := range selfTimes(c.tr.spans) {
			busy[layer] += d
		}
	}
	m["engine.busy_s"] = busy["engine"].Seconds()
	m["query.busy_s"] = busy["query"].Seconds()
	m["exec.busy_s"] = busy["exec"].Seconds()

	capture := durations(tracers, spEngineSnapshot)
	m["engine.snapshot_capture_us_p50"] = percentile(capture, 0.5) * 1e3
	m["engine.snapshot_capture_us_p95"] = percentile(capture, 0.95) * 1e3
	m["query.compile_us_p50"] = percentile(durations(tracers, spQueryCompile), 0.5) * 1e3
	var queryTime time.Duration
	for _, d := range t.queries {
		queryTime += d
	}
	m["query.compile_share"] = ratio(busy["query"].Seconds(), queryTime.Seconds())
	drain := durations(tracers, spExecDrain)
	m["exec.drain_ms_p50"] = percentile(drain, 0.5)
	m["exec.drain_ms_p95"] = percentile(drain, 0.95)
	var decisions, patchDecisions, visited, out int64
	for _, c := range r.clients {
		decisions += c.decisions
		patchDecisions += c.patchDecisions
		visited += c.rowsVisited
		out += c.rowsOut
	}
	m["plan.patch_choice_ratio"] = ratio(float64(patchDecisions), float64(decisions))
	m["exec.rows_per_s"] = ratio(float64(visited), busy["exec"].Seconds())
	m["exec.rows_scanned_per_row_out"] = ratio(float64(visited), float64(out))

	var fast, fallback, joins uint64
	var excRows, excPatches float64
	counted := map[string]bool{}
	for _, tc := range r.w.indexed() {
		tb := db.MustTable(tc[0])
		for _, st := range tb.PartitionIndexStats(tc[1]) {
			excRows += float64(st.Rows)
			excPatches += float64(st.Patches)
		}
		if !counted[tc[0]] {
			counted[tc[0]] = true
			f, fb := tb.InsertStats()
			fast, fallback, joins = fast+f, fallback+fb, joins+tb.CollisionJoins()
		}
	}
	m["engine.insert_fast_ratio"] = ratio(float64(fast), float64(fast+fallback))
	m["engine.collision_joins"] = float64(joins)
	m["engine.exception_rate_end"] = ratio(excPatches, excRows)
	m["engine.index_bytes_end"] = float64(r.indexBytes)
	if mt := db.Maintainer(); mt != nil {
		st := mt.Stats()
		m["engine.maint_actions"] = float64(st.Actions)
		m["engine.maint_refusal_ratio"] = ratio(float64(st.Refusals), float64(st.Actions+st.Refusals))
	}
	m["engine.checkpoint_to_disk_ms"] = median(r.checkpoints) * 1e3
	m["engine.checkpoint_bytes"] = float64(r.checkpointBytes)
	m["engine.recover_records_applied"] = float64(r.applied)

	// Recovery from the checkpoint alone separates loading from replay.
	if err := os.RemoveAll(filepath.Join(r.killed, "wal")); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(filepath.Join(r.killed, "wal"), 0o755); err != nil {
		return nil, nil, err
	}
	runtime.GC()
	t0 := time.Now()
	if _, err := engine.NewDatabase().Recover(r.killed); err != nil {
		return nil, nil, fmt.Errorf("checkpoint-only recovery: %w", err)
	}
	load := time.Since(t0)
	m["engine.recover_load_ms"] = ms(load)
	m["engine.recover_us_per_record"] = ratio(max(median(r.recovers)-load.Seconds(), 0)*1e6, float64(r.applied))

	m["wal.records"] = float64(r.walRecords)
	m["wal.bytes_per_record"] = ratio(float64(r.walBytes), float64(r.walRecords))
	if r.w.walPolicy() == wal.SyncEach {
		m["wal.fsyncs"] = float64(r.walRecords) // one flush per record
	}

	p := &prober{tr: newTracer(r.epoch), rng: rand.New(rand.NewSource(r.cfg.seed)), shape: r.w.shape(), metrics: m}
	p.bitmapProbe()
	p.coreProbe()
	p.pdtProbe()
	p.storageProbe()
	if err := p.walProbe(filepath.Join(r.base, "walprobe")); err != nil {
		return nil, nil, fmt.Errorf("wal probe: %w", err)
	}
	if err := p.queryProbe(db); err != nil {
		return nil, nil, fmt.Errorf("query probe: %w", err)
	}
	return m, append(tracers, p.tr), nil
}

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// treeBytes sums the sizes of the regular files under dir.
func treeBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// walFrames walks the frames (u32 payload length | u32 CRC | payload)
// of one segment file and returns their count and the offset of the last.
func walFrames(data []byte) (frames int, last int) {
	for off := 0; off+8 <= len(data); {
		next := off + 8 + int(binary.LittleEndian.Uint32(data[off:]))
		if next > len(data) {
			break
		}
		frames, last, off = frames+1, off, next
	}
	return frames, last
}

// walVolume counts the records and bytes in the segments under dir/wal:
// what was logged between the last checkpoint and the kill.
func walVolume(dir string) (records int, bytes int64) {
	segs, _ := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			continue
		}
		n, _ := walFrames(data)
		records += n
		bytes += int64(len(data))
	}
	return records, bytes
}

// tearLastFrame appends the first half of a segment's last frame to the
// segment again: an append the crash cut short, which recovery must
// discard while keeping every complete record before it. It returns the
// number of segments torn (0 when no segment holds a record).
func tearLastFrame(dir string) (int, error) {
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	if err != nil {
		return 0, err
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			return 0, err
		}
		frames, last := walFrames(data)
		if frames == 0 {
			continue
		}
		frame := data[last:]
		f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			return 0, err
		}
		_, werr := f.Write(frame[:len(frame)/2])
		if err := errors.Join(werr, f.Close()); err != nil {
			return 0, err
		}
		return 1, nil
	}
	return 0, nil
}
