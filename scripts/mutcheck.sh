#!/usr/bin/env bash
# Mutation check for the NUC differentials, the minmax/scan tests, the
# checkpoint/rewrite image tests, the rewrite protocol tests, the join
# plans' compute-once test, the Merge/Sort differentials, the
# partition-bounds lock-leak test, the descending LIS test, the
# wrong-kind insert test, the Freeze independence test, the probe-side
# join's compute-once test and the failed-delete count test.
#
# The insert and modify paths are pinned to the paper's algorithms by
# twin-table differentials against test-only oracles, the block
# summaries that outlive snapshots by a storage property test, and the
# typed checkpoint loader and rewrite encoder by round-trip and
# byte-format tests, the join plans' shared dimension cache by a
# counting test, the executor's k-way merge and stable sort by seeded
# differentials against stable-sort oracles, and the partition bounds
# checks that run before a lock is taken by a lock-leak test, the
# log-then-publish order of partition rewrites by a failed-append
# recovery test and their permutation check by a rejection test, the
# descending LIS order by a MinInt64 test, the value-kind check the
# insert entry points and Load run before logging by a wrong-kind test,
# the identifier list a PatchIndex Freeze shares copy-on-write by an
# independence test, the probe-side join's one build per query by a
# counting test, and DeleteWhereInt64's count by a failed-append test.
# This script re-verifies that those tests have teeth: it copies the
# tree to a temp directory, breaks one rule of the production code at a
# time, and requires the matching test to FAIL. A mutation that still compiles
# and passes ("survived") means the test stopped covering that rule; a
# mutation whose source pattern is gone ("stale") means this script needs
# updating with the code. Either exits non-zero.
#
# Not part of tier-1 (it compiles a package once per mutation, ~1 min).
# Usage: scripts/mutcheck.sh            (from anywhere inside the repo)
set -uo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
# The copy needs only the module: sources and go.mod, no VCS or build dirs.
(cd "$root" && tar -cf - --exclude=./.git --exclude=./.bench_build --exclude=./bench .) | tar -xf - -C "$work"

insert=internal/engine/insert.go
maint=internal/engine/maintenance.go
dir=internal/core/collision.go
storage=internal/storage/table.go
minmax=internal/storage/minmax.go
scan=internal/exec/scan.go
dur=internal/engine/durability.go
plan=internal/plan/plan.go
sortgo=internal/exec/sort.go
approx=internal/engine/approx.go
reorg=internal/engine/reorg.go
lisgo=internal/lis/lis.go
index=internal/core/index.go
compile=internal/query/compile.go
insdiff='^TestInsertRowsDifferentialVsInsert$'
moddiff='^TestModifyNUCDifferentialVsJoin$'
mmprop='^TestMinMaxSurvivesWritesProperty$'
scanids='^TestScanPrunedRowIDsAllocateOneBatch$'
ckptrt='^TestCheckpointRoundTripTyped$'
rwfmt='^TestRewriteImageFormat$'
dimonce='^TestJoinComputesDimensionOnce$'
mergediff='^TestMergeDifferential$'
sortstable='^TestSortStableOrder$'
leak='^TestBadPartitionLeaksNoLock$'
rwfail='^TestRewriteFailedAppendPublishesNothing$'
rwperm='^TestReorderRejectsNonPermutation$'
lisdesc='^TestDescendingAtMinInt64$'
wrongkind='^TestWrongKindValueFailsBeforeLogging$'
freeze='^TestCloneIndependence$'
probeonce='^TestProbeSideJoinComputedOnce$'
delcount='^TestDeleteWhereCountsOnlyDeletedRows$'

# mutate FILE replaces the one occurrence of $FROM by $TO (exit 3 unless
# it occurs exactly once).
mutate() {
	FROM="$2" TO="$3" python3 - "$work/$1" <<'PY'
import os, sys
path = sys.argv[1]
src = open(path).read()
if src.count(os.environ["FROM"]) != 1:
    sys.exit(3)
open(path, "w").write(src.replace(os.environ["FROM"], os.environ["TO"]))
PY
}

failed=0
report() { printf '%-44s %-42s %s\n' "$1" "$2" "$3"; }
report MUTATION TEST RESULT

# check NAME FILE PKG TEST FROM TO
check() {
	local name="$1" file="$2" pkg="$3" test="$4"
	cp "$work/$file" "$work/$file.orig"
	if ! mutate "$file" "$5" "$6"; then
		report "$name" "$test" "STALE (pattern not found exactly once in $file)"
		failed=1
	elif ! (cd "$work" && go test -count=1 -run '^$' "$pkg" >/dev/null 2>&1); then
		report "$name" "$test" "STALE (mutant does not compile)"
		failed=1
	elif (cd "$work" && go test -count=1 -run "$test" "$pkg" >/dev/null 2>&1); then
		report "$name" "$test" "SURVIVED (test passes on the mutant)"
		failed=1
	else
		report "$name" "$test" "killed"
	fi
	mv "$work/$file.orig" "$work/$file"
}

# The unmutated copy must pass, or "the test fails" proves nothing.
if ! (cd "$work" && go test -count=1 -run "$insdiff|$moddiff|$ckptrt|$rwfmt|$leak|$rwfail|$rwperm|$wrongkind|$delcount" ./internal/engine >/dev/null 2>&1 &&
	go test -count=1 -run "$lisdesc" ./internal/lis >/dev/null 2>&1 &&
	go test -count=1 -run "$freeze" ./internal/core >/dev/null 2>&1 &&
	go test -count=1 -run "$probeonce" ./internal/query >/dev/null 2>&1 &&
	go test -count=1 -run "$mmprop" ./internal/storage >/dev/null 2>&1 &&
	go test -count=1 -run "$scanids|$mergediff|$sortstable" ./internal/exec >/dev/null 2>&1 &&
	go test -count=1 -run "$dimonce" ./internal/plan >/dev/null 2>&1); then
	echo "mutcheck: the tests fail on the unmutated tree" >&2
	exit 1
fi

check "insert: skip the value scans of hit partitions" $insert ./internal/engine "$insdiff" \
	$'\tpatchValueHits(idx, ch.hits, func(q int) []T { return materialize[T](t.viewLocked(q), c.col) })\n' ''
check "insert: skip the sealed force-patch" $insert ./internal/engine "$insdiff" \
	$'case sealed.Contains(v):\n\t\t\tch.patched = append(ch.patched, i)\n' $'case sealed.Contains(v):\n'
check "insert: skip the value-kind check" $insert ./internal/engine "$wrongkind" \
	'if v.Kind != schema[c].Kind {' 'if false {'
check "insert: drop the batch-duplicate rule" $insert ./internal/engine "$insdiff" \
	$'\t\t\tni.inBatch[v]++\n' $'\t\t\tni.inBatch[v] = 1\n'
check "insert: a chunk ignores a hit in a partition it does not hold" $dir ./internal/engine "$insdiff" \
	$'\t\t\tmissing = append(missing, q)\n' ''
check "delete: skip the directory decrement" $maint ./internal/engine "$insdiff" \
	'c.remove(t.viewLocked(partition), partition, rowIDs)' '_ = c'
check "modify: classify before folding out" $maint ./internal/engine "$moddiff" \
	$'\tst.Remove(p, rowValues[T](t.viewLocked(p), c.col, rowIDs))\n\tnews := cells[T](len(values), func(i int) storage.Value { return values[i] })\n\tinBatch := make(map[T]int, len(news))\n\tfor _, v := range news {\n\t\tinBatch[v]++\n\t}\n\tch, _ := classifyNUC(st, p, news, inBatch, t.allPartitions())\n' \
	$'\tnews := cells[T](len(values), func(i int) storage.Value { return values[i] })\n\tinBatch := make(map[T]int, len(news))\n\tfor _, v := range news {\n\t\tinBatch[v]++\n\t}\n\tch, _ := classifyNUC(st, p, news, inBatch, t.allPartitions())\n\tst.Remove(p, rowValues[T](t.viewLocked(p), c.col, rowIDs))\n'
check "modify: drop the directory hits" $insert ./internal/engine "$moddiff" \
	$'\t\tch.hits.add(q, vals[i])\n' ''
check "modify: skip the sealed force-patch" $insert ./internal/engine "$moddiff" \
	$'case sealed.Contains(v):\n\t\t\tch.patched = append(ch.patched, i)\n' $'case sealed.Contains(v):\n'
check "modify: drop the batch-duplicate rule" $maint ./internal/engine "$moddiff" \
	$'\t\tinBatch[v]++\n' $'\t\tinBatch[v] = 1\n'
check "minmax: extension skips the partial last block" $minmax ./internal/storage "$mmprop" \
	'if m.n%BlockRows != 0 && len(data) > m.n {' 'if false {'
check "minmax: DeleteRows stops counting mutations" $storage ./internal/storage "$mmprop" \
	$'\t\tc.DeletePositions(positions)\n\t}\n\tp.dropMinMax(-1)\n' \
	$'\t\tc.DeletePositions(positions)\n\t}\n\tfor i := range p.minmax {\n\t\tp.minmax[i].Store(nil)\n\t}\n'
check "scan: rowIDs restart at 0 in every batch" $scan ./internal/exec "$scanids" \
	'ids[i] = uint64(s.pos + i)' 'ids[i] = uint64(i)'
check "checkpoint: a column block decodes a row short" $dur ./internal/engine "$ckptrt" \
	'b.block(d, c, n)' 'b.block(d, c, n-1)'
check "rewrite: the encoder skips the last row" $dur ./internal/engine "$rwfmt" \
	'for r := 0; r < n; r++ {' 'for r := 0; r < n-1; r++ {'
check "plan.Join: one dimension cache per partition" $plan ./internal/plan "$dimonce" \
	$'\tcache := exec.NewReuseCache(in.Dim)\n\tparts := make([]exec.Operator, len(in.Fact))\n\tfor i, f := range in.Fact {\n' \
	$'\tparts := make([]exec.Operator, len(in.Fact))\n\tfor i, f := range in.Fact {\n\t\tcache := exec.NewReuseCache(in.Dim)\n'
check "Merge: ties go to the later child" $sortgo ./internal/exec "$mergediff" \
	'(m.heads[i] == m.heads[j] && i < j)' '(m.heads[i] == m.heads[j] && i > j)'
check "Merge: a run ignores the runner-up's head" $sortgo ./internal/exec "$mergediff" \
	$'\t\tif r < 0 {\n\t\t\te = end\n' $'\t\tif true {\n\t\t\te = end\n'
check "Sort: no position tiebreak" $sortgo ./internal/exec "$sortstable" \
	'return cmp.Compare(a, b)' 'return 0 * cmp.Compare(a, b)'
check "PartitionSortedness: no partition bounds check" $approx ./internal/engine "$leak" \
	$'\tif p < 0 || p >= len(t.pmu) {\n\t\treturn 0, fmt.Errorf("engine: table %q has no partition %d", t.name, p)\n\t}\n' ''
check "rewrite: publish before logging the image" $reorg ./internal/engine "$rwfail" \
	$'\tif t.wal != nil {\n\t\tseg := t.wal.segs[p]\n' $'\tt.publishPartitionLocked(p, part)\n\tif t.wal != nil {\n\t\tseg := t.wal.segs[p]\n'
check "reorder: no permutation check" $storage ./internal/engine "$rwperm" \
	'if r < 0 || r >= n || seen[r] {' 'if r < 0 || r >= n {'
check "lis: negate instead of complement" $lisgo ./internal/lis "$lisdesc" \
	$'\t\treturn ^v\n' $'\t\treturn -v\n'
check "Freeze leaves the identifier list unshared" $index ./internal/core "$freeze" \
	$'\t\tx.idsShared = true\n' ''
check "probe-side join compiles its build per stream" $compile ./internal/query "$probeonce" \
	'build, err := c.build(s)' 'build, err := c.compile(s.right)'
check "DeleteWhereInt64 counts a partition before deleting it" $maint ./internal/engine "$delcount" \
	$'\t\t\treturn total, err\n\t\t}\n\t\ttotal += len(rowIDs)\n' $'\t\t\treturn total + len(rowIDs), err\n\t\t}\n\t\ttotal += len(rowIDs)\n'

exit $failed
