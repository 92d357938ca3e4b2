package datagen

import "patchindex/internal/core"

// Synthetic PublicBI-like datasets behind the paper's Fig. 1: real user
// workbooks whose columns match approximate constraints to varying
// degrees. The paper profiles three workbooks; we regenerate columns
// whose constraint-match rates reproduce the reported histogram shape:
//
//   - USCensus_1: 500+ columns, 15 matching an approximate sorting
//     constraint, 9 of them with over 60% of tuples matching.
//   - IGlocations2_1 and IUBlibrary_1: few columns, a relatively large
//     share matching an approximate uniqueness constraint, many nearly
//     perfectly unique.
type PublicBIColumn struct {
	Name       string
	Constraint core.Constraint
	Values     []int64
}

// PublicBIDataset is one synthetic workbook.
type PublicBIDataset struct {
	Name    string
	Columns []PublicBIColumn
	// TotalColumns is the workbook's full column count (most columns
	// match no approximate constraint and carry no data here).
	TotalColumns int
}

// matchRates of the approximate-constraint columns per workbook,
// mirroring the Fig. 1 histogram buckets.
var publicBIProfiles = []struct {
	name       string
	constraint core.Constraint
	totalCols  int
	rates      []float64
}{
	{"USCensus_1", core.NearlySorted, 521,
		[]float64{0.15, 0.25, 0.35, 0.45, 0.55, 0.55, 0.65, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.97}},
	{"IGlocations2_1", core.NearlyUnique, 12,
		[]float64{0.55, 0.85, 0.92, 0.96, 0.98, 0.99}},
	{"IUBlibrary_1", core.NearlyUnique, 16,
		[]float64{0.45, 0.75, 0.9, 0.95, 0.97, 0.98, 0.99, 0.995}},
}

// GeneratePublicBI synthesizes the three workbooks with rows tuples per
// column.
func GeneratePublicBI(rows int, seed int64) []PublicBIDataset {
	out := make([]PublicBIDataset, 0, len(publicBIProfiles))
	for pi, prof := range publicBIProfiles {
		ds := PublicBIDataset{Name: prof.name, TotalColumns: prof.totalCols}
		for ci, rate := range prof.rates {
			cfg := Config{
				Rows:          rows,
				ExceptionRate: 1 - rate,
				Seed:          seed + int64(pi*1000+ci),
			}
			var vals []int64
			if prof.constraint == core.NearlySorted {
				vals = NSCColumn(cfg)
			} else {
				vals = NUCColumn(cfg)
			}
			ds.Columns = append(ds.Columns, PublicBIColumn{
				Name:       colName(prof.name, ci),
				Constraint: prof.constraint,
				Values:     vals,
			})
		}
		out = append(out, ds)
	}
	return out
}

func colName(ds string, i int) string {
	return ds + "_c" + string(rune('A'+i))
}

// Histogram buckets column match rates into nBuckets equal-width bins
// over [0,1] — the discovery-side computation behind Fig. 1. The match
// rate of each column is measured by running constraint discovery, not
// taken from the generator, so the figure exercises the discovery path.
func Histogram(ds PublicBIDataset, nBuckets int) []int {
	buckets := make([]int, nBuckets)
	for _, col := range ds.Columns {
		var rate float64
		if col.Constraint == core.NearlySorted {
			rate = core.MatchRateNSC(col.Values)
		} else {
			rate = core.MatchRateNUC(col.Values)
		}
		b := int(rate * float64(nBuckets))
		if b >= nBuckets {
			b = nBuckets - 1
		}
		buckets[b]++
	}
	return buckets
}
