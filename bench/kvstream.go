package main

import (
	"math/rand"
	"sort"

	"patchindex/internal/storage"
)

// kvMix describes a seeded update stream against a kv(key,val) table.
// The batch kinds follow a fixed cycle in which rows inserted equal rows
// deleted, so the table keeps its size — to within one cycle — however
// long the stream runs; the seed decides what the batches hold.
type kvMix struct {
	cycle      []opKind // batch kinds, repeated
	insertRows int      // rows per insert batch
	deleteRows int      // rowIDs per delete batch
	modifyRows int      // rowIDs per modify batch
	keyExc     float64  // share of inserted keys that break the sort order
	dirtyPct   int      // share of batches that carry duplicate values at all, percent
	valDup     float64  // share of a dirty batch's values that repeat a recent value
	roundRobin bool     // inserts spread over all partitions (InsertRows) or go to one (InsertRowsPartition)
}

// kvOp is one generated update batch.
type kvOp struct {
	kind   opKind
	part   int           // target partition (unused for round-robin inserts)
	rows   []storage.Row // insert
	rowIDs []uint64      // delete, modify: strictly ascending partition-local positions
	column string        // modify
	values []storage.Value
	// inRange counts the inserted rows whose key continues the
	// ascending sequence [loKey, hiKey]: what a read-back over that key
	// range must find.
	inRange      int
	loKey, hiKey int64
}

// kvStream generates the batches. It tracks only the row count of each
// partition it writes to — what it needs to pick valid rowIDs — so the
// same seed gives the same stream with or without a database attached,
// and the reference model can regenerate it after the measured phase.
type kvStream struct {
	mix     kvMix
	rng     *rand.Rand
	counts  []int // rows per partition, all partitions of the table
	owned   []int // partitions this stream deletes from, modifies and (unless round-robin) inserts into
	nextKey int64
	nextVal int64
	// keyFloor bounds the out-of-order keys from below: they are drawn
	// from [keyFloor, first key of the batch).
	keyFloor int64
	recent   [256]int64 // recently issued values, the source of duplicates
	issued   int
	dirty    bool // the batch being generated carries duplicates
	n        int  // batches generated
	inserts  int  // insert batches generated
	modifies int  // modify batches generated; they alternate between the columns
}

func newKVStream(seed int64, mix kvMix, counts []int, owned []int, keyFloor, nextKey, nextVal int64) *kvStream {
	return &kvStream{
		mix: mix, rng: rand.New(rand.NewSource(seed)),
		counts: append([]int(nil), counts...), owned: owned,
		keyFloor: keyFloor, nextKey: nextKey, nextVal: nextVal,
	}
}

func (s *kvStream) next() kvOp {
	s.n++
	// Duplicates come clustered in some batches, as a load that repeats
	// part of an earlier delivery does; the other batches stay on the
	// partition-parallel insert path.
	s.dirty = s.rng.Intn(100) < s.mix.dirtyPct
	switch s.mix.cycle[(s.n-1)%len(s.mix.cycle)] {
	case opInsert:
		return s.insert()
	case opDelete:
		return s.delete()
	default:
		return s.modify()
	}
}

func (s *kvStream) freshVal() int64 {
	v := s.nextVal
	s.nextVal++
	if s.dirty && s.issued > 0 && s.rng.Float64() < s.mix.valDup {
		v = s.recent[s.rng.Intn(min(s.issued, len(s.recent)))]
	}
	s.recent[s.issued%len(s.recent)] = v
	s.issued++
	return v
}

func (s *kvStream) insert() kvOp {
	op := kvOp{kind: opInsert, rows: make([]storage.Row, s.mix.insertRows), loKey: s.nextKey}
	for i := range op.rows {
		key := s.nextKey
		s.nextKey++
		if op.loKey > s.keyFloor && s.rng.Float64() < s.mix.keyExc {
			key = s.keyFloor + s.rng.Int63n(op.loKey-s.keyFloor)
		} else {
			op.inRange++
		}
		op.rows[i] = storage.Row{storage.I64(key), storage.I64(s.freshVal())}
	}
	op.hiKey = s.nextKey - 1
	if s.mix.roundRobin {
		for i := range op.rows {
			s.counts[i%len(s.counts)]++
		}
	} else {
		op.part = s.owned[s.inserts%len(s.owned)]
		s.counts[op.part] += len(op.rows)
	}
	s.inserts++
	return op
}

// spreadPositions picks n strictly ascending positions below size, one
// at a random offset in each of n equal strides (fewer when size < n).
func spreadPositions(rng *rand.Rand, size, n int) []uint64 {
	n = min(n, size)
	out := make([]uint64, n)
	for i := range out {
		lo, hi := i*size/n, (i+1)*size/n
		out[i] = uint64(lo + rng.Intn(hi-lo))
	}
	return out
}

// delete takes its rowIDs from the fullest partition, which keeps the
// partitions level as well as the table.
func (s *kvStream) delete() kvOp {
	p := s.owned[0]
	for _, q := range s.owned {
		if s.counts[q] > s.counts[p] {
			p = q
		}
	}
	op := kvOp{kind: opDelete, part: p, rowIDs: spreadPositions(s.rng, s.counts[p], s.mix.deleteRows)}
	s.counts[p] -= len(op.rowIDs)
	return op
}

// modify visits the owned partitions in turn, each with both columns.
func (s *kvStream) modify() kvOp {
	p := s.owned[s.modifies/2%len(s.owned)]
	op := kvOp{kind: opModify, part: p, rowIDs: spreadPositions(s.rng, s.counts[p], s.mix.modifyRows), column: "key"}
	if s.modifies++; s.modifies%2 == 0 {
		op.column = "val"
	}
	op.values = make([]storage.Value, len(op.rowIDs))
	for i := range op.values {
		if op.column == "val" {
			op.values[i] = storage.I64(s.freshVal())
		} else {
			op.values[i] = storage.I64(s.keyFloor + s.rng.Int63n(max(1, s.nextKey-s.keyFloor)))
		}
	}
	return op
}

// kvModel is the harness-side reference for a kv table: the rows of
// every partition in engine order, kept by applying the same batches
// with plain slice operations.
type kvModel struct {
	parts [][][2]int64
}

// newKVModel splits the loaded rows into contiguous chunks the way the
// engine's bulk load does.
func newKVModel(keys, vals []int64, nparts int) *kvModel {
	m := &kvModel{parts: make([][][2]int64, nparts)}
	per := (len(keys) + nparts - 1) / nparts
	for i := range keys {
		p := min(i/per, nparts-1)
		m.parts[p] = append(m.parts[p], [2]int64{keys[i], vals[i]})
	}
	return m
}

// loadCounts is the row count of each partition after a bulk load.
func loadCounts(rows, nparts int) []int {
	out := make([]int, nparts)
	per := (rows + nparts - 1) / nparts
	for p := range out {
		out[p] = max(0, min(per, rows-p*per))
	}
	return out
}

func (m *kvModel) apply(op kvOp, roundRobin bool) {
	switch op.kind {
	case opInsert:
		for i, r := range op.rows {
			p := op.part
			if roundRobin {
				p = i % len(m.parts)
			}
			m.parts[p] = append(m.parts[p], [2]int64{r[0].I, r[1].I})
		}
	case opDelete:
		rows := m.parts[op.part]
		out, next := rows[:0], 0
		for i, r := range rows {
			if next < len(op.rowIDs) && uint64(i) == op.rowIDs[next] {
				next++
				continue
			}
			out = append(out, r)
		}
		m.parts[op.part] = out
	case opModify:
		col := 0
		if op.column == "val" {
			col = 1
		}
		for i, id := range op.rowIDs {
			m.parts[op.part][id][col] = op.values[i].I
		}
	}
}

func (m *kvModel) checksum() checksum {
	var c checksum
	for _, rows := range m.parts {
		for _, r := range rows {
			c.addInts(r[0], r[1])
		}
	}
	return c
}

// failedSet records which batches of a stream the engine refused, so
// the model skips exactly those.
type failedSet []int

func (f failedSet) has(i int) bool {
	j := sort.SearchInts(f, i)
	return j < len(f) && f[j] == i
}
