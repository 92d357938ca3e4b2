package engine

import (
	"fmt"
	"testing"

	"patchindex/internal/core"
	"patchindex/internal/exec"
	"patchindex/internal/storage"
)

// The paper's NUC update handling (Section 5.1/5.2, Fig. 5) joins the
// changed tuples against every partition. Production code classifies
// them from the exact collision directory instead (insert.go,
// maintenance.go); the join lives on here, verbatim, as the oracle the
// differential tests drive on a twin table: insertViaJoin below,
// modifyViaJoin in modify_differential_test.go.

// nucKinds are the column kinds a NUC index supports, each with a
// constructor of its d-th domain value — what the differential and
// regression tests iterate to cover the int64 and the string instances
// of the collision directory.
var nucKinds = []struct {
	name string
	kind storage.Kind
	mk   func(d int) storage.Value
}{
	{"int64", storage.KindInt64, func(d int) storage.Value { return storage.I64(int64(d)) }},
	{"string", storage.KindString, func(d int) storage.Value { return storage.Str(fmt.Sprintf("v%06d", d)) }},
}

// nucSealed reports whether v is in the sealed exception set of tb's
// NUC column "v".
func nucSealed(tb *Table, v storage.Value) bool {
	if c := tb.nuc["v"]; c.strs != nil {
		return c.strs.Sealed().Contains(v.S)
	}
	return tb.nuc["v"].ints.Sealed().Contains(v.I)
}

// nucSealedLen returns the size of the sealed exception set of tb's NUC
// column "v".
func nucSealedLen(tb *Table) int {
	if c := tb.nuc["v"]; c.strs != nil {
		return c.strs.Sealed().Len()
	}
	return tb.nuc["v"].ints.Sealed().Len()
}

// nucLocalCount returns partition p's directory count of v in tb's NUC
// column "v".
func nucLocalCount(tb *Table, p int, v storage.Value) uint32 {
	if c := tb.nuc["v"]; c.strs != nil {
		return c.strs.Count(p, v.S)
	}
	return tb.nuc["v"].ints.Count(p, v.I)
}

// changedRef identifies one inserted or modified tuple across the
// partitioned table, together with its (new) value in the indexed
// column.
type changedRef struct {
	part int
	rid  uint64
	val  int64
}

// The NUC insert-handling join carries (partition, rowID) pairs packed
// into a single int64 payload column: the low ridBits bits hold the
// partition-local rowID, the bits above hold the partition number. The
// packing silently corrupts for values outside these widths, so
// encodeRef rejects them; a partition beyond 2^23 or 2^40 rows in one
// partition is far past this reproduction's scale.
const (
	ridBits = 40
	maxRID  = uint64(1)<<ridBits - 1 // largest packable partition-local rowID
	maxPart = int(1)<<23 - 1         // keeps part<<ridBits within int64
)

// encodeRef packs a changedRef into one int64 join payload. It returns
// an error instead of corrupting the packed bits when either component
// exceeds its field width.
func encodeRef(part int, rid uint64) (int64, error) {
	if rid > maxRID {
		return 0, fmt.Errorf("engine: rowID %d exceeds the %d-bit NUC join payload (max %d)", rid, ridBits, maxRID)
	}
	if part < 0 || part > maxPart {
		return 0, fmt.Errorf("engine: partition %d exceeds the NUC join payload (max %d)", part, maxPart)
	}
	return int64(part)<<ridBits | int64(rid), nil
}

func decodeRef(enc int64) (part int, rid uint64) {
	return int(enc >> ridBits), uint64(enc & (1<<ridBits - 1))
}

// hasNUCIndex reports whether any column carries a NearlyUnique index —
// the only consumers of the packed join payload. Callers hold the table
// lock.
func (t *Table) hasNUCIndex() bool {
	for _, idx := range t.indexes {
		if len(idx) > 0 && idx[0].ConstraintKind() == core.NearlyUnique {
			return true
		}
	}
	return false
}

// nucCollisions runs the insert handling query of Fig. 5 against every
// partition (the tests also run it over modified tuples, as the oracle
// for Modify): the changed tuples are the build side of a HashJoin
// whose build phase propagates the changed values as scan ranges onto
// each partition's table scan (dynamic range propagation); the rowIDs of
// both join sides are projected through an intermediate result cache and
// returned per partition. Self-matches (a changed tuple seeing itself)
// are filtered.
func (t *Table) nucCollisions(col int, changed []changedRef, changedStrs [][]string) ([]core.NUCJoinResult, error) {
	nparts := t.store.NumPartitions()
	out := make([]core.NUCJoinResult, nparts)
	if len(changed) == 0 {
		return out, nil
	}
	t.collisionJoins.Add(1)
	if t.store.Schema()[col].Kind == storage.KindString {
		t.stringCollisions(col, changedStrs, out)
		return out, nil
	}

	buildVals := make([]int64, len(changed))
	buildEnc := make([]int64, len(changed))
	for i, c := range changed {
		enc, err := encodeRef(c.part, c.rid)
		if err != nil {
			return nil, err
		}
		buildVals[i] = c.val
		buildEnc[i] = enc
	}
	buildSchema := storage.Schema{
		{Name: "v", Kind: storage.KindInt64},
		{Name: "enc", Kind: storage.KindInt64},
	}
	for p := 0; p < nparts; p++ {
		build := exec.NewVecSource(buildSchema, []exec.Vec{
			{Kind: storage.KindInt64, I64: buildVals},
			{Kind: storage.KindInt64, I64: buildEnc},
		}, nil)
		tableScan := exec.NewScan(t.viewLocked(p), []int{col})
		tableScan.SetPruneColumn(col)
		probe := exec.NewWithRowIDColumn(tableScan, "trid")
		join := exec.NewHashJoin(probe, build, 0, 0)
		join.EnableRangePropagation(tableScan, storage.BlockRows)

		cache := exec.NewReuseCache(join)
		if err := cache.MaterializeNow(); err != nil {
			return nil, err
		}
		load := cache.Load()
		for {
			b, err := load.Next()
			if err != nil {
				load.Close()
				return nil, err
			}
			if b == nil {
				break
			}
			trids := b.Cols[1].I64 // probe: [value, trid]
			encs := b.Cols[3].I64  // build: [value, enc]
			for i := range trids {
				bp, brid := decodeRef(encs[i])
				if bp == p && brid == uint64(trids[i]) {
					continue // a changed tuple matching itself
				}
				out[p].TableSide = append(out[p].TableSide, uint64(trids[i]))
				out[bp].InsertedSide = append(out[bp].InsertedSide, brid)
			}
		}
		load.Close()
	}
	return out, nil
}

// stringCollisions is the string-column variant of the collision query.
// The executor joins on int64 keys only, so string columns use an
// equivalent global hash lookup.
func (t *Table) stringCollisions(col int, changedStrs [][]string, out []core.NUCJoinResult) {
	nparts := t.store.NumPartitions()
	type ref struct {
		part int
		rid  uint64
	}
	byVal := make(map[string][]ref)
	baseRows := make([]int, nparts)
	for p := 0; p < nparts; p++ {
		all := t.viewLocked(p).MaterializeString(col)
		baseRows[p] = len(all) - len(changedStrs[p])
		for i, v := range all {
			byVal[v] = append(byVal[v], ref{part: p, rid: uint64(i)})
		}
	}
	for p := range changedStrs {
		for i, v := range changedStrs[p] {
			self := ref{part: p, rid: uint64(baseRows[p] + i)}
			for _, r := range byVal[v] {
				if r == self {
					continue
				}
				out[p].InsertedSide = append(out[p].InsertedSide, self.rid)
				out[r.part].TableSide = append(out[r.part].TableSide, r.rid)
			}
		}
	}
}

// insertViaJoin is the paper's NUC insert handling (Section 5.1), kept
// as the oracle for Insert and InsertRows: append the rows round-robin,
// run NSC insert handling, run the collision join of Fig. 5 over the
// inserted tuples against every partition and merge both join sides
// into the patches, then fold the batch into the collision directory and
// force-patch inserted rows whose value was sealed.
func insertViaJoin(db *Database, t *Table, rows []storage.Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	perPart := roundRobin(rows, t.store.NumPartitions())
	baseRows := make([]int, len(perPart))
	for p := range perPart {
		baseRows[p] = t.viewLocked(p).NumRows()
	}
	// Validate the NUC join payload packing BEFORE mutating anything:
	// failing after the deltas (and other columns' indexes) were updated
	// would leave the table and the failing index permanently divergent.
	if t.hasNUCIndex() {
		for p, prows := range perPart {
			if len(prows) == 0 {
				continue
			}
			if _, err := encodeRef(p, uint64(baseRows[p]+len(prows)-1)); err != nil {
				return fmt.Errorf("engine: insert into %s: %w", t.name, err)
			}
		}
	}
	for p, prows := range perPart {
		if len(prows) == 0 {
			continue
		}
		t.mutableDeltaLocked(p).InsertRows(prows)
	}
	for column := range t.indexes {
		idx := t.mutableIndexesLocked(column)
		col := t.store.Schema().MustColumnIndex(column)
		switch idx[0].ConstraintKind() {
		case core.NearlySorted:
			for p, prows := range perPart {
				if len(prows) == 0 {
					continue
				}
				vals := make([]int64, len(prows))
				for i, r := range prows {
					vals[i] = r[col].I
				}
				idx[p].HandleInsertNSC(vals)
			}
		case core.NearlyUnique:
			isInt := t.store.Schema()[col].Kind == storage.KindInt64
			var changed []changedRef
			for p, prows := range perPart {
				for i := range prows {
					ref := changedRef{part: p, rid: uint64(baseRows[p] + i)}
					if isInt {
						ref.val = prows[i][col].I
					}
					changed = append(changed, ref)
				}
			}
			joins, err := t.nucCollisions(col, changed, perPartStrings(perPart, col, t.store.Schema()[col].Kind))
			if err != nil {
				return fmt.Errorf("engine: insert handling on %s.%s: %w", t.name, column, err)
			}
			for p := range idx {
				idx[p].HandleInsertNUC(len(perPart[p]), joins[p])
			}
			// Keep the sealed-set invariant the lookups rely on — every
			// LIVE occurrence of a sealed value is a patch. A sealed value
			// may have had all its occurrences deleted, so the collision
			// join legitimately comes back empty for a fresh one; patch it
			// anyway (conservative: the extra patch costs plan optimality,
			// never correctness — deletes already erode optimality the
			// same way).
			news := make([][]storage.Value, len(perPart))
			for p, prows := range perPart {
				for _, r := range prows {
					news[p] = append(news[p], r[col])
				}
			}
			for p, sealed := range foldJoined(t, column, 0, nil, news) {
				var forced []uint64
				for i, was := range sealed {
					if was {
						forced = append(forced, uint64(baseRows[p]+i))
					}
				}
				idx[p].AddPatches(forced)
			}
		}
	}
	if db.AutoCheckpoint {
		t.checkpointLocked()
	}
	return nil
}

// foldJoined records an update an oracle applied by join in column's
// collision directory the way the production paths leave it: olds leave
// partition p, news[q] enter partition q, and every new value the table
// now holds more than once is sealed. It reports, per news[q][i],
// whether the value was sealed before the update. The caller owns every
// partition.
func foldJoined(t *Table, column string, p int, olds []storage.Value, news [][]storage.Value) [][]bool {
	if c := t.nuc[column]; c.strs != nil {
		return foldJoinedAs(c.strs, p, olds, news)
	}
	return foldJoinedAs(t.nuc[column].ints, p, olds, news)
}

func foldJoinedAs[T int64 | string](st *core.NUCState[T], p int, olds []storage.Value, news [][]storage.Value) [][]bool {
	values := func(vs []storage.Value) []T {
		return cells[T](len(vs), func(i int) storage.Value { return vs[i] })
	}
	st.Remove(p, values(olds))
	before := st.Sealed()
	all := make([]bool, len(news)) // news has one slot per partition
	for q := range all {
		all[q] = true
	}
	for q, vs := range news {
		st.Reserve(q, values(vs), all, func(int, int) {})
	}
	wasSealed := make([][]bool, len(news))
	var newDup []T
	for q, vs := range news {
		wasSealed[q] = make([]bool, len(vs))
		for i, v := range values(vs) {
			wasSealed[q][i] = before.Contains(v)
			var n uint32
			for r := range news {
				n += st.Count(r, v)
			}
			if !wasSealed[q][i] && n > 1 {
				newDup = append(newDup, v)
			}
		}
	}
	st.Seal(newDup)
	return wasSealed
}

func perPartStrings(perPart [][]storage.Row, col int, kind storage.Kind) [][]string {
	if kind != storage.KindString {
		return nil
	}
	out := make([][]string, len(perPart))
	for p, rows := range perPart {
		for _, r := range rows {
			out[p] = append(out[p], r[col].S)
		}
	}
	return out
}

// The join packs (partition, rowID) into one int64. Values at the field
// boundaries must round-trip; values beyond them must error instead of
// silently corrupting the packed bits (a rowID of 2^40 used to alias
// partition+1, rowID 0).
func TestEncodeRefBoundaries(t *testing.T) {
	cases := []struct {
		part int
		rid  uint64
	}{
		{0, 0},
		{0, maxRID},
		{maxPart, 0},
		{maxPart, maxRID},
		{7, 1<<39 + 12345},
	}
	for _, c := range cases {
		enc, err := encodeRef(c.part, c.rid)
		if err != nil {
			t.Fatalf("encodeRef(%d, %d) unexpectedly failed: %v", c.part, c.rid, err)
		}
		part, rid := decodeRef(enc)
		if part != c.part || rid != c.rid {
			t.Fatalf("round trip (%d, %d) -> (%d, %d)", c.part, c.rid, part, rid)
		}
	}
}

func TestEncodeRefOverflow(t *testing.T) {
	if _, err := encodeRef(0, maxRID+1); err == nil {
		t.Fatal("rowID 2^40 did not error")
	}
	if _, err := encodeRef(maxPart+1, 0); err == nil {
		t.Fatal("partition 2^23 did not error")
	}
	if _, err := encodeRef(-1, 0); err == nil {
		t.Fatal("negative partition did not error")
	}
}
