package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"patchindex/internal/core"
	"patchindex/internal/engine"
	"patchindex/internal/storage"
)

// mix64 is the splitmix64 finalizer: the per-value hash behind the
// row-multiset checksums.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// foldRow chains one more column value into a row hash.
func foldRow(h, v uint64) uint64 { return mix64(h*0x9e3779b97f4a7c15 + v + 1) }

// checksum is an order-independent digest of a table: the row count and
// the wrapping sum of the row hashes. Two tables holding the same rows
// in any order and any partitioning have the same checksum.
type checksum struct {
	rows int
	sum  uint64
}

func intRowHash(vals []int64) uint64 {
	var h uint64
	for _, v := range vals {
		h = foldRow(h, uint64(v))
	}
	return h
}

func (c *checksum) addInts(vals ...int64) {
	c.rows++
	c.sum += intRowHash(vals)
}

func (c *checksum) removeInts(vals ...int64) {
	c.rows--
	c.sum -= intRowHash(vals)
}

// stringHash is FNV-1a, inlined so that hashing a string column does
// not allocate per value.
func stringHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// tableChecksum digests the table's current logical contents (base
// plus pending deltas) from one consistent snapshot.
func tableChecksum(tb *engine.Table) checksum {
	snap := tb.Snapshot()
	defer snap.Close()
	schema := snap.Schema()
	var out checksum
	for p := 0; p < snap.NumPartitions(); p++ {
		v := snap.View(p)
		hs := make([]uint64, v.NumRows())
		for c, def := range schema {
			switch def.Kind {
			case storage.KindInt64:
				for i, x := range v.MaterializeInt64(c) {
					hs[i] = foldRow(hs[i], uint64(x))
				}
			case storage.KindFloat64:
				for i, x := range v.MaterializeFloat64(c) {
					hs[i] = foldRow(hs[i], math.Float64bits(x))
				}
			default:
				for i, s := range v.MaterializeString(c) {
					hs[i] = foldRow(hs[i], stringHash(s))
				}
			}
		}
		out.rows += len(hs)
		for _, h := range hs {
			out.sum += h
		}
	}
	return out
}

func databaseChecksums(db *engine.Database, tables []string) (map[string]checksum, error) {
	out := make(map[string]checksum, len(tables))
	for _, name := range tables {
		tb, err := db.LookupTable(name)
		if err != nil {
			return nil, err
		}
		out[name] = tableChecksum(tb)
	}
	return out, nil
}

// checkIndex verifies the approximate-constraint invariant the patch
// plans rely on: with the patches excluded, an NSC column is sorted
// within every partition, and an NUC column holds no value twice — nor
// any value that also occurs among the patches.
func checkIndex(tb *engine.Table, column string) error {
	snap := tb.Snapshot()
	defer snap.Close()
	idxs := snap.PatchIndexes(column)
	if idxs == nil {
		return fmt.Errorf("table %s has no PatchIndex on %s", tb.Name(), column)
	}
	col := snap.Schema().MustColumnIndex(column)
	clean := map[int64]struct{}{}
	var patched []int64
	for p, x := range idxs {
		vals := snap.View(p).MaterializeInt64(col)
		if x.Rows() != uint64(len(vals)) {
			return fmt.Errorf("%s.%s partition %d: index covers %d rows, partition has %d", tb.Name(), column, p, x.Rows(), len(vals))
		}
		var prev int64
		first := true
		for i, v := range vals {
			if x.IsPatch(uint64(i)) {
				patched = append(patched, v)
				continue
			}
			if x.ConstraintKind() == core.NearlySorted {
				if !first && ((!x.Descending() && v < prev) || (x.Descending() && v > prev)) {
					return fmt.Errorf("%s.%s partition %d row %d breaks the sort order outside the patches", tb.Name(), column, p, i)
				}
				prev, first = v, false
				continue
			}
			if _, dup := clean[v]; dup {
				return fmt.Errorf("%s.%s value %d occurs twice outside the patches", tb.Name(), column, v)
			}
			clean[v] = struct{}{}
		}
	}
	for _, v := range patched {
		if _, dup := clean[v]; dup {
			return fmt.Errorf("%s.%s value %d occurs both as a patch and outside the patches", tb.Name(), column, v)
		}
	}
	return nil
}

// sameRows compares two query results: position by position when the
// plan orders its output, as multisets otherwise. Floating-point
// aggregates are compared with a relative tolerance because the patch
// and the reference plan sum in different orders.
func sameRows(a, b []storage.Row, ordered bool) bool {
	if len(a) != len(b) {
		return false
	}
	if !ordered {
		a, b = sortedRows(a), sortedRows(b)
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for c := range a[i] {
			x, y := a[i][c], b[i][c]
			if x.Kind != y.Kind {
				return false
			}
			if x.Kind == storage.KindFloat64 {
				if d := math.Abs(x.F - y.F); d > 1e-9*math.Max(math.Abs(x.F), math.Abs(y.F)) {
					return false
				}
			} else if !x.Equal(y) {
				return false
			}
		}
	}
	return true
}

func sortedRows(rows []storage.Row) []storage.Row {
	keys := make([]string, len(rows))
	for i, r := range rows {
		var b strings.Builder
		for _, v := range r {
			if v.Kind == storage.KindFloat64 {
				fmt.Fprintf(&b, "%.6g|", v.F)
			} else {
				b.WriteString(v.String())
				b.WriteByte('|')
			}
		}
		keys[i] = b.String()
	}
	order := make([]int, len(rows))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return keys[order[i]] < keys[order[j]] })
	out := make([]storage.Row, len(rows))
	for i, o := range order {
		out[i] = rows[o]
	}
	return out
}
