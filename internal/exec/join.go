package exec

import "patchindex/internal/storage"

// HashJoin is an equi-join on int64 keys: the build side is materialized
// (read in place when it is a ReuseLoad) into a hash table, the probe
// side streams through it. The probe side's tuple order is preserved,
// which is why the paper allows probe-side HashJoins inside the
// order-sensitive subtrees of its optimizations (Section 3.3). The
// planner chooses the smaller side as build side.
//
// Dynamic range propagation (Section 5): if a target Scan is registered,
// the join summarizes the build keys into value ranges after the build
// phase and installs them on the scan, pruning the probe-side table scan
// to blocks containing potential join partners.
type HashJoin struct {
	probe    Operator
	build    Operator
	probeKey int
	buildKey int
	schema   storage.Schema

	drpScan *Scan
	drpGap  int64

	built     bool
	buildData *Batch
	table     map[int64][]int32
	out       *Batch
	probeSel  []int32
	buildSel  []int32

	// BuildRows exposes the build-side cardinality for cost accounting.
	BuildRows int
}

// NewHashJoin returns probe ⋈ build on probe.probeKey = build.buildKey.
// The output schema is the probe schema followed by the build schema.
func NewHashJoin(probe, build Operator, probeKey, buildKey int) *HashJoin {
	mustInt64Col(probe.Schema(), probeKey, "HashJoin probe key")
	mustInt64Col(build.Schema(), buildKey, "HashJoin build key")
	return &HashJoin{
		probe:    probe,
		build:    build,
		probeKey: probeKey,
		buildKey: buildKey,
		schema:   schemaConcat(probe.Schema(), build.Schema()),
	}
}

// EnableRangePropagation registers the probe-side scan to receive the
// build-key ranges once the build phase finishes. gap controls how
// aggressively nearby key values are coalesced into one range.
func (j *HashJoin) EnableRangePropagation(scan *Scan, gap int64) {
	j.drpScan = scan
	j.drpGap = gap
}

// Schema implements Operator.
func (j *HashJoin) Schema() storage.Schema { return j.schema }

func (j *HashJoin) buildPhase() error {
	j.built = true
	data, err := materializeShared(j.build)
	if err != nil {
		return err
	}
	j.buildData = data
	j.BuildRows = data.Len()
	j.table = make(map[int64][]int32, data.Len())
	keys := data.Cols[j.buildKey].I64
	for i, k := range keys {
		j.table[k] = append(j.table[k], int32(i))
	}
	if j.drpScan != nil {
		j.drpScan.SetRanges(storage.RangesFromValues(keys, j.drpGap))
	}
	j.out = NewBatch(j.schema)
	return nil
}

// Next implements Operator.
func (j *HashJoin) Next() (*Batch, error) {
	if !j.built {
		if err := j.buildPhase(); err != nil {
			return nil, err
		}
	}
	nProbeCols := len(j.probe.Schema())
	for {
		in, err := j.probe.Next()
		if err != nil || in == nil {
			return nil, err
		}
		j.probeSel = j.probeSel[:0]
		j.buildSel = j.buildSel[:0]
		n := in.Len()
		keys := in.Cols[j.probeKey].I64
		for i := 0; i < n; i++ {
			matches, ok := j.table[keys[i]]
			if !ok {
				continue
			}
			for _, m := range matches {
				j.probeSel = append(j.probeSel, int32(i))
				j.buildSel = append(j.buildSel, m)
			}
		}
		if len(j.probeSel) == 0 {
			continue
		}
		j.out.Reset()
		for c := 0; c < nProbeCols; c++ {
			gatherVec(&j.out.Cols[c], &in.Cols[c], j.probeSel)
		}
		for c := range j.buildData.Cols {
			gatherVec(&j.out.Cols[nProbeCols+c], &j.buildData.Cols[c], j.buildSel)
		}
		return j.out, nil
	}
}

// Close implements Operator.
func (j *HashJoin) Close() {
	j.probe.Close()
	j.build.Close()
	j.buildData = nil
	j.table = nil
	j.out = nil
}

// MergeJoin is an equi-join on int64 keys over inputs that are already
// sorted ascending on their keys — the faster join the PatchIndex
// optimization substitutes for the HashJoin in the patch-free subtree
// when a nearly sorted column is involved (Section 3.3). The right
// (dimension) side is materialized once (read in place when it is a
// ReuseLoad); the left side streams through it with a single monotone
// cursor, and matches are emitted through selection vectors (no per-row
// type dispatch, no hash table).
type MergeJoin struct {
	left     Operator
	right    Operator
	leftKey  int
	rightKey int
	schema   storage.Schema

	started   bool
	rightData *Batch
	rightKeys []int64
	ri        int // monotone cursor: start of the current right key group
	exhausted bool

	out      *Batch
	leftSel  []int32
	rightSel []int32
}

// NewMergeJoin returns left ⋈ right on left.leftKey = right.rightKey.
// Both inputs must be sorted ascending on their keys. The output schema
// is the left schema followed by the right schema.
func NewMergeJoin(left, right Operator, leftKey, rightKey int) *MergeJoin {
	mustInt64Col(left.Schema(), leftKey, "MergeJoin left key")
	mustInt64Col(right.Schema(), rightKey, "MergeJoin right key")
	return &MergeJoin{
		left:     left,
		right:    right,
		leftKey:  leftKey,
		rightKey: rightKey,
		schema:   schemaConcat(left.Schema(), right.Schema()),
	}
}

// Schema implements Operator.
func (j *MergeJoin) Schema() storage.Schema { return j.schema }

func (j *MergeJoin) open() error {
	j.started = true
	data, err := materializeShared(j.right)
	if err != nil {
		return err
	}
	j.rightData = data
	j.rightKeys = data.Cols[j.rightKey].I64
	j.out = NewBatch(j.schema)
	return nil
}

// Next implements Operator.
func (j *MergeJoin) Next() (*Batch, error) {
	if !j.started {
		if err := j.open(); err != nil {
			return nil, err
		}
	}
	nLeftCols := len(j.left.Schema())
	for !j.exhausted {
		lb, err := j.left.Next()
		if err != nil {
			return nil, err
		}
		if lb == nil {
			break
		}
		j.leftSel = j.leftSel[:0]
		j.rightSel = j.rightSel[:0]
		keys := lb.Cols[j.leftKey].I64
		for i := range keys {
			k := keys[i]
			for j.ri < len(j.rightKeys) && j.rightKeys[j.ri] < k {
				j.ri++
			}
			if j.ri >= len(j.rightKeys) {
				j.exhausted = true
				break
			}
			for r := j.ri; r < len(j.rightKeys) && j.rightKeys[r] == k; r++ {
				j.leftSel = append(j.leftSel, int32(i))
				j.rightSel = append(j.rightSel, int32(r))
			}
		}
		if len(j.leftSel) == 0 {
			continue
		}
		j.out.Reset()
		for c := 0; c < nLeftCols; c++ {
			gatherVec(&j.out.Cols[c], &lb.Cols[c], j.leftSel)
		}
		for c := range j.rightData.Cols {
			gatherVec(&j.out.Cols[nLeftCols+c], &j.rightData.Cols[c], j.rightSel)
		}
		return j.out, nil
	}
	return nil, nil
}

// Close implements Operator.
func (j *MergeJoin) Close() {
	j.left.Close()
	j.right.Close()
	j.rightData, j.out = nil, nil
}
