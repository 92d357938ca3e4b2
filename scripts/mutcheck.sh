#!/usr/bin/env bash
# Mutation check for the NUC differentials and the minmax/scan tests.
#
# The insert and modify paths are pinned to the paper's algorithms by
# twin-table differentials against test-only oracles, and the block
# summaries that outlive snapshots by a storage property test. This
# script re-verifies that those tests have teeth: it copies the tree to a
# temp directory, breaks one rule of the production code at a time, and
# requires the matching test to FAIL. A mutation that still compiles
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
storage=internal/storage/table.go
minmax=internal/storage/minmax.go
scan=internal/exec/scan.go
insdiff='^TestInsertRowsDifferentialVsInsert$'
moddiff='^TestModifyNUCDifferentialVsJoin$'
mmprop='^TestMinMaxSurvivesWritesProperty$'
scanids='^TestScanPrunedRowIDsAllocateOneBatch$'

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
if ! (cd "$work" && go test -count=1 -run "$insdiff|$moddiff|^TestInsertTeachesPartitionFilters\$" ./internal/engine >/dev/null 2>&1 &&
	go test -count=1 -run "$mmprop" ./internal/storage >/dev/null 2>&1 &&
	go test -count=1 -run "$scanids" ./internal/exec >/dev/null 2>&1); then
	echo "mutcheck: the tests fail on the unmutated tree" >&2
	exit 1
fi

check "insert: skip patching foreign collisions" $insert ./internal/engine "$insdiff" \
	$'\tt.patchForeignCollisionsLocked(plan)\n' ''
check "insert: skip the sealed force-patch" $insert ./internal/engine "$insdiff" \
	$'if fc.sealed.ContainsInt64(v) {\n\t\t\t\t\t\tfc.knownPatch[p][i] = true' \
	$'if false {\n\t\t\t\t\t\tfc.knownPatch[p][i] = true'
check "insert: drop the batch-duplicate rule" $insert ./internal/engine "$insdiff" \
	$'} else if batch[v] > 1 {\n\t\t\t\t\t\tfc.knownPatch[p][i] = true\n\t\t\t\t\t\tif fc.dupTargetsInt == nil {' \
	$'} else if false {\n\t\t\t\t\t\tfc.knownPatch[p][i] = true\n\t\t\t\t\t\tif fc.dupTargetsInt == nil {'
check "insert: Insert does not teach the filters" $insert ./internal/engine '^TestInsertTeachesPartitionFilters$' \
	$'\tif !retry {\n\t\tplan.eachValue(' \
	$'\tif false {\n\t\tplan.eachValue('
check "modify: classify before folding out" $maint ./internal/engine "$moddiff" \
	$'\tfor i, r := range rowIDs {\n\t\tst.RemoveLocalInt64(partition, view.Get(int(r), col).I)\n\t\tnews[i] = values[i].I\n\t}\n\tpatched, hits, newDup := classifyNUCModify(rowIDs, news, t.store.NumPartitions(), st.Sealed().ContainsInt64, st.LocalCountInt64)\n' \
	$'\tfor i := range rowIDs {\n\t\tnews[i] = values[i].I\n\t}\n\tpatched, hits, newDup := classifyNUCModify(rowIDs, news, t.store.NumPartitions(), st.Sealed().ContainsInt64, st.LocalCountInt64)\n\tfor _, r := range rowIDs {\n\t\tst.RemoveLocalInt64(partition, view.Get(int(r), col).I)\n\t}\n'
check "modify: drop the count-map hits" $maint ./internal/engine "$moddiff" \
	$'\t\t\t\thits.add(q, v)\n' ''
check "modify: skip the sealed force-patch" $maint ./internal/engine "$moddiff" \
	$'\t\tif sealed(v) {\n\t\t\tpatched = append(patched, rowIDs[i])\n' \
	$'\t\tif sealed(v) {\n'
check "modify: drop the batch-duplicate rule" $maint ./internal/engine "$moddiff" \
	$'dup := inBatch[v] > 1' 'dup := false'
check "minmax: extension skips the partial last block" $minmax ./internal/storage "$mmprop" \
	'if m.n%BlockRows != 0 && len(data) > m.n {' 'if false {'
check "minmax: DeleteRows stops counting mutations" $storage ./internal/storage "$mmprop" \
	$'\t\tc.DeletePositions(positions)\n\t}\n\tp.dropMinMax(-1)\n' \
	$'\t\tc.DeletePositions(positions)\n\t}\n\tfor i := range p.minmax {\n\t\tp.minmax[i].Store(nil)\n\t}\n'
check "scan: rowIDs restart at 0 in every batch" $scan ./internal/exec "$scanids" \
	'ids[i] = uint64(s.pos + i)' 'ids[i] = uint64(i)'

exit $failed
