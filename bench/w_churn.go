package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"patchindex/internal/core"
	"patchindex/internal/engine"
	"patchindex/internal/query"
	"patchindex/internal/sortkey"
	"patchindex/internal/storage"
	"patchindex/internal/wal"
)

// churnDaemon is sustained mixed read/write with background work, the
// only workload with contention: a writer trickles 1–4 row inserts into
// one partition after another and every eighth step expires the oldest
// values with a table-wide DeleteWhereInt64, a reader runs small
// windowed aggregates, and the maintenance daemon repairs the indexes
// and checkpoints underneath both. WAL on (SyncNone).
//
// The table is experiments/daemon.go's: k carries an NSC PatchIndex and
// is fed mostly ascending keys with 30 % inversions, v carries an NUC
// PatchIndex and is fed private values with 3 % drawn from a shared
// pool of 64 duplicates. Expiring as many private values as were issued
// since the last expiry keeps the table at its preloaded size.
type churnDaemon struct {
	database *engine.Database
	tb       *engine.Table
	maint    *engine.Maintainer
	sc       scale

	rng  *rand.Rand
	key  int64   // last ascending key issued
	keys []int64 // keys[i] is the key issued with private value privateBase+i, or noRow
	head int     // private values expired so far
	step int
	// sum is the reference model: the checksum of the rows the writer's
	// acknowledged operations must have left in the table.
	sum checksum

	// The live key range, published by the writer for the reader.
	lowKey, highKey atomic.Int64
}

const (
	privateBase = int64(1) << 40
	noRow       = math.MinInt64
	churnWindow = 512 // width of the reader's key window
)

// row issues the next row: the key ascends with 30 % inversions, the
// value is private unless the 3 % pool draw replaces it.
func (w *churnDaemon) row() storage.Row {
	k := w.key
	if w.rng.Intn(100) < 30 {
		k -= 40 + w.rng.Int63n(50)
	} else {
		w.key += 1 + w.rng.Int63n(3)
		k = w.key
	}
	v := privateBase + int64(len(w.keys))
	if w.rng.Intn(100) < 3 {
		v = 100 + w.rng.Int63n(64)
		w.keys = append(w.keys, noRow)
	} else {
		w.keys = append(w.keys, k)
	}
	w.sum.addInts(k, v)
	return storage.Row{storage.I64(k), storage.I64(v)}
}

func (w *churnDaemon) setup(seed int64, sc scale, dir string) error {
	*w = churnDaemon{sc: sc, rng: rand.New(rand.NewSource(seed)), database: engine.NewDatabase()}
	tb, err := w.database.CreateTable("churn", storage.Schema{
		{Name: "k", Kind: storage.KindInt64},
		{Name: "v", Kind: storage.KindInt64},
	}, partitions)
	if err != nil {
		return err
	}
	w.tb = tb
	rows := make([]storage.Row, sc.churnRows)
	for i := range rows {
		rows[i] = w.row()
	}
	if err := tb.Load(rows); err != nil {
		return err
	}
	sk, err := sortkey.CreateEngine(tb, "k", false)
	if err != nil {
		return err
	}
	opts := core.Options{Design: core.DesignBitmap}
	if err := tb.CreatePatchIndex("k", core.NearlySorted, opts); err != nil {
		return err
	}
	if err := tb.CreatePatchIndex("v", core.NearlyUnique, opts); err != nil {
		return err
	}
	if err := w.database.EnableWAL(dir, wal.SyncNone); err != nil {
		return err
	}
	cfg := engine.DefaultMaintainerConfig()
	cfg.Interval = 20 * time.Millisecond
	cfg.CheckpointEvery = 50
	if w.maint, err = w.database.StartMaintainer(cfg); err != nil {
		return err
	}
	w.maint.RegisterReorderer("churn", "k", sk)
	w.publish()
	return nil
}

func (w *churnDaemon) publish() {
	low := w.key
	for i := w.head; i < len(w.keys); i++ {
		if w.keys[i] != noRow {
			low = w.keys[i]
			break
		}
	}
	w.lowKey.Store(low)
	w.highKey.Store(w.key)
}

func (w *churnDaemon) quiesce()                  { w.database.Close() }
func (w *churnDaemon) db() *engine.Database      { return w.database }
func (w *churnDaemon) walPolicy() wal.SyncPolicy { return wal.SyncNone }
func (w *churnDaemon) tables() []string          { return []string{"churn"} }
func (w *churnDaemon) indexed() [][2]string      { return [][2]string{{"churn", "k"}, {"churn", "v"}} }

// writeStep is one step of the writer: an insert of 1–4 rows into the
// next partition, or on every eighth step the expiry of every private
// value issued up to the previous expiry's high-water mark.
func (w *churnDaemon) writeStep(c *client) {
	w.step++
	if w.step%8 != 0 {
		rows := make([]storage.Row, 1+w.rng.Intn(4))
		before := w.sum
		for i := range rows {
			rows[i] = w.row()
		}
		if !c.update(opInsert, func() (int, error) {
			return len(rows), w.database.InsertRowsPartition("churn", w.step%partitions, rows)
		}) {
			w.sum = before
			for i := range rows {
				w.keys[len(w.keys)-1-i] = noRow
			}
		}
		return
	}
	// Expire as many values as seven insert steps issue on average.
	lo, hi := w.head, min(w.head+18, len(w.keys))
	var want int
	for i := lo; i < hi; i++ {
		if w.keys[i] != noRow {
			want++
		}
	}
	vlo, vhi := privateBase+int64(lo), privateBase+int64(hi)
	var got int
	ok := c.update(opDelete, func() (int, error) {
		var err error
		got, err = w.database.DeleteWhereInt64("churn", "v", func(x int64) bool { return x >= vlo && x < vhi })
		return got, err
	})
	if !ok {
		return
	}
	if got != want {
		c.fail("expiry of values [%d,%d) deleted %d rows, the reference model holds %d", vlo, vhi, got, want)
	}
	for i := lo; i < hi; i++ {
		if w.keys[i] != noRow {
			w.sum.removeInts(w.keys[i], privateBase+int64(i))
		}
	}
	w.head = hi
	w.publish()
}

func (w *churnDaemon) window(rng *rand.Rand) *query.Plan {
	low, high := w.lowKey.Load(), w.highKey.Load()
	lo := low
	if span := high - low - churnWindow; span > 0 {
		lo += rng.Int63n(span)
	}
	return query.From("churn", "k", "v").
		Where(query.Between(query.Col("k"), query.Int(lo), query.Int(lo+churnWindow))).
		Aggregate(nil, query.CountAll("n"), query.MaxOf(query.Col("v"), "vmax"))
}

func (w *churnDaemon) clients() []func(*client) {
	writer := func(c *client) {
		for c.running() {
			w.writeStep(c)
		}
	}
	// Drawn here, before the writer goroutine owns w.rng.
	readerSeed := w.rng.Int63()
	reader := func(c *client) {
		rng := rand.New(rand.NewSource(readerSeed))
		for n := 0; c.running(); n++ {
			c.query(w.database, w.window(rng), query.Options{}, false)
			if n%200 == 0 {
				c.verifyQuery(w.database, w.window(rng), query.Options{}, true)
			}
		}
	}
	return []func(*client){writer, reader}
}

func (w *churnDaemon) tail(c *client) {
	for i := 0; i < w.sc.churnTail; i++ {
		w.writeStep(c)
	}
}

func (w *churnDaemon) verify() []error {
	var errs []error
	if got := tableChecksum(w.tb); got != w.sum {
		errs = append(errs, fmt.Errorf("churn holds %d rows (checksum %x), the reference model %d (%x)", got.rows, got.sum, w.sum.rows, w.sum.sum))
	}
	for _, col := range []string{"k", "v"} {
		if err := checkIndex(w.tb, col); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

func (w *churnDaemon) shape() probeShape {
	rng := rand.New(rand.NewSource(1))
	return probeShape{
		rows: w.tb.NumRows() / partitions, batch: 3, column: w.tb.ReadInt64Column(0, "k"),
		queries: []*query.Plan{w.window(rng)},
	}
}
