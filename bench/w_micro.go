package main

import (
	"patchindex/internal/core"
	"patchindex/internal/datagen"
	"patchindex/internal/engine"
	"patchindex/internal/query"
	"patchindex/internal/storage"
	"patchindex/internal/wal"
)

// microMix is the paper's Fig. 9 / Table 3 update mix on both
// constraint kinds: of every four batches two insert 256 rows, one
// deletes 512 rowIDs of one partition and one modifies 32 rowIDs
// (alternating column). 2 % of the inserted keys break the sort order, and three in
// ten batches repeat recent values in 8 % of their rows; with the
// modifies that keeps both columns near the 5 % exceptions the table is
// loaded with, however long the stream runs.
var microMix = kvMix{
	cycle:      []opKind{opInsert, opDelete, opInsert, opModify},
	insertRows: 256, deleteRows: 512, modifyRows: 32,
	keyExc: 0.02, dirtyPct: 30, valDup: 0.08, roundRobin: true,
}

// microUpdate is write-dominated: one client sends a seeded stream of
// insert, delete and modify batches to kv(key NSC, val NUC), and every
// few batches reads the table back through the two queries those
// indexes exist for — a distinct over val and a sort over key. WAL off,
// daemon off.
type microUpdate struct {
	database   *engine.Database
	tb         *engine.Table
	seed       int64
	sc         scale
	keys, vals []int64
	batches    int // batches the client sent
	failed     failedSet
}

func kvPlans() (distinct, sorted *query.Plan) {
	return query.From("kv", "val").Distinct("val"), query.From("kv", "key").OrderBy(query.Asc("key"))
}

// loadKV creates kv(key,val) with an NSC PatchIndex on key and an NUC
// PatchIndex on val (bitmap design), both loaded at a 5 % exception rate.
func loadKV(rows int, seed int64) (*engine.Database, *engine.Table, []int64, []int64, error) {
	keys := datagen.NSCColumn(datagen.Config{Rows: rows, ExceptionRate: 0.05, Seed: seed})
	vals := datagen.NUCColumn(datagen.Config{Rows: rows, ExceptionRate: 0.05, Seed: seed + 1})
	db := engine.NewDatabase()
	tb, err := db.CreateTable("kv", datagen.KeyValueSchema(), partitions)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	data := make([]storage.Row, rows)
	for i := range data {
		data[i] = storage.Row{storage.I64(keys[i]), storage.I64(vals[i])}
	}
	if err := tb.Load(data); err != nil {
		return nil, nil, nil, nil, err
	}
	opts := core.Options{Design: core.DesignBitmap}
	if err := tb.CreatePatchIndex("key", core.NearlySorted, opts); err != nil {
		return nil, nil, nil, nil, err
	}
	if err := tb.CreatePatchIndex("val", core.NearlyUnique, opts); err != nil {
		return nil, nil, nil, nil, err
	}
	return db, tb, keys, vals, nil
}

func (w *microUpdate) setup(seed int64, sc scale, dir string) error {
	var err error
	w.seed, w.sc = seed, sc
	w.database, w.tb, w.keys, w.vals, err = loadKV(sc.microRows, seed)
	return err
}

func (w *microUpdate) stream() *kvStream {
	all := []int{0, 1, 2, 3}
	n := int64(len(w.keys))
	return newKVStream(w.seed+2, microMix, loadCounts(len(w.keys), partitions), all, 0, n, 2*n)
}

func (w *microUpdate) quiesce()                  {}
func (w *microUpdate) tail(*client)              {}
func (w *microUpdate) db() *engine.Database      { return w.database }
func (w *microUpdate) walPolicy() wal.SyncPolicy { return wal.SyncNone }
func (w *microUpdate) tables() []string          { return []string{"kv"} }
func (w *microUpdate) indexed() [][2]string      { return [][2]string{{"kv", "key"}, {"kv", "val"}} }

func (w *microUpdate) clients() []func(*client) {
	return []func(*client){func(c *client) {
		distinct, sorted := kvPlans()
		s := w.stream()
		for c.running() {
			if !applyKV(c, w.database, s.next(), true) {
				w.failed = append(w.failed, s.n-1)
			}
			if s.n%w.sc.microQueryEvery != 0 {
				continue
			}
			// Two sorts to one distinct: with an even split the median
			// query would sit on the boundary between the two kinds.
			q := s.n / w.sc.microQueryEvery
			p, ordered := sorted, true
			if q%3 == 2 {
				p, ordered = distinct, false
			}
			c.query(w.database, p, query.Options{}, false)
			if q%40 < 3 {
				c.verifyQuery(w.database, p, query.Options{}, ordered)
			}
		}
		w.batches = s.n
	}}
}

func (w *microUpdate) verify() []error {
	model := newKVModel(w.keys, w.vals, partitions)
	s := w.stream()
	for i := 0; i < w.batches; i++ {
		if op := s.next(); !w.failed.has(i) {
			model.apply(op, true)
		}
	}
	return verifyKV(w.tb, model)
}

func (w *microUpdate) shape() probeShape {
	distinct, sorted := kvPlans()
	return probeShape{
		rows: w.tb.NumRows() / partitions, batch: microMix.insertRows / partitions, column: w.tb.ReadInt64Column(0, "key"),
		queries: []*query.Plan{sorted, distinct},
	}
}
