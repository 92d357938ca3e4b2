package main

import (
	"patchindex/internal/engine"
	"patchindex/internal/query"
	"patchindex/internal/wal"
)

// durableMix is ingest-dominated: of every ten batches eight insert 128
// rows into one partition, one deletes as many rowIDs as those eight
// inserted, and one modifies 64. Values are all fresh, so no batch
// leaves the partition-parallel insert path.
var durableMix = kvMix{
	cycle:      []opKind{opInsert, opInsert, opInsert, opInsert, opDelete, opInsert, opInsert, opInsert, opInsert, opModify},
	insertRows: 128, deleteRows: 1024, modifyRows: 64,
	keyExc: 0.02,
}

const durableWriters = 2

// durableIngest is the durability path end to end: two writers on
// disjoint partition pairs append to a WAL that fsyncs every record
// (SyncEach — the flush policy is part of the workload), and each reads
// its own writes back every few batches. Daemon off.
type durableIngest struct {
	database   *engine.Database
	tb         *engine.Table
	seed       int64
	sc         scale
	keys, vals []int64
	streams    [durableWriters]*kvStream
	failed     [durableWriters]failedSet
}

func (w *durableIngest) setup(seed int64, sc scale, dir string) error {
	var err error
	w.seed, w.sc = seed, sc
	if w.database, w.tb, w.keys, w.vals, err = loadKV(sc.durableRows, seed); err != nil {
		return err
	}
	for i := range w.streams {
		w.streams[i] = w.stream(i)
	}
	return w.database.EnableWAL(dir, wal.SyncEach)
}

// stream is writer i's: it owns partitions 2i and 2i+1 and issues keys
// and values from ranges of its own.
func (w *durableIngest) stream(i int) *kvStream {
	base := int64(i+1) << 40
	return newKVStream(w.seed+2+int64(i), durableMix, loadCounts(len(w.keys), partitions), []int{2 * i, 2*i + 1}, base, base, base)
}

func (w *durableIngest) quiesce()                  {}
func (w *durableIngest) db() *engine.Database      { return w.database }
func (w *durableIngest) walPolicy() wal.SyncPolicy { return wal.SyncEach }
func (w *durableIngest) tables() []string          { return []string{"kv"} }
func (w *durableIngest) indexed() [][2]string      { return [][2]string{{"kv", "key"}, {"kv", "val"}} }

func (w *durableIngest) batch(c *client, i int) kvOp {
	s := w.streams[i]
	op := s.next()
	if !applyKV(c, w.database, op, false) {
		w.failed[i] = append(w.failed[i], s.n-1)
	}
	return op
}

// readBack counts the rows whose key lies in [lo, hi].
func readBack(lo, hi int64) *query.Plan {
	return query.From("kv", "key").
		Where(query.Between(query.Col("key"), query.Int(lo), query.Int(hi))).
		Aggregate(nil, query.CountAll("n"))
}

func (w *durableIngest) clients() []func(*client) {
	loops := make([]func(*client), durableWriters)
	for i := range loops {
		loops[i] = func(c *client) {
			var inserts int
			for c.running() {
				op := w.batch(c, i)
				if op.kind != opInsert {
					continue
				}
				if inserts++; inserts%w.sc.durableQueryEvery != 0 {
					continue
				}
				// Read the batch back: every acknowledged row whose key
				// continues the sequence must be visible at once.
				p := readBack(op.loKey, op.hiKey)
				rows, _, ok := c.query(w.database, p, query.Options{}, true)
				if ok && (len(rows) != 1 || rows[0][0].I != int64(op.inRange)) {
					c.fail("read-back of keys [%d,%d] returned %v, want one row counting %d", op.loKey, op.hiKey, rows, op.inRange)
				}
				if inserts%(50*w.sc.durableQueryEvery) == 0 {
					c.verifyQuery(w.database, p, query.Options{}, true)
				}
			}
		}
	}
	return loops
}

func (w *durableIngest) tail(c *client) {
	for i := range w.streams {
		for n := 0; n < w.sc.durableTail; n++ {
			w.batch(c, i)
		}
	}
}

func (w *durableIngest) verify() []error {
	model := newKVModel(w.keys, w.vals, partitions)
	for i := range w.streams {
		s := w.stream(i)
		for n := 0; n < w.streams[i].n; n++ {
			if op := s.next(); !w.failed[i].has(n) {
				model.apply(op, false)
			}
		}
	}
	return verifyKV(w.tb, model)
}

func (w *durableIngest) shape() probeShape {
	return probeShape{
		rows: w.tb.NumRows() / partitions, batch: durableMix.insertRows, column: w.tb.ReadInt64Column(0, "key"),
		queries: []*query.Plan{readBack(0, int64(durableMix.insertRows))},
	}
}
