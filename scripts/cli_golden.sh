#!/usr/bin/env bash
# cli_golden.sh — pins the command-line surface of the four engine binaries.
#
# Builds warpedsim, warpedbench, warpedreport and warpedd from this
# checkout, runs each golden command and byte-compares its stdout with the
# file of the same name under cmd/testdata/cli. The <binary>.flags goldens
# are the flag names each binary's -h lists, one per line.
#
# Usage: scripts/cli_golden.sh [out-dir]
#
# With out-dir the outputs are written there instead of compared: run it
# that way from a checkout of the commit the goldens should pin.
set -euo pipefail

cd "$(dirname "$0")/.."

GOLDEN=cmd/testdata/cli
OUT="${1:-}"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT
FAILED=0

echo "== building the engine binaries"
for bin in warpedsim warpedbench warpedreport warpedd; do
    go build -o "$WORKDIR/$bin" "./cmd/$bin"
done

# check NAME: writes $WORKDIR/NAME to out-dir, or compares it with the golden.
check() {
    if [ -n "$OUT" ]; then
        mkdir -p "$OUT"
        cp "$WORKDIR/$1" "$OUT/$1"
    elif cmp -s "$GOLDEN/$1" "$WORKDIR/$1"; then
        echo "ok    $1"
    else
        echo "FAIL  $1 differs from $GOLDEN/$1:" >&2
        diff "$GOLDEN/$1" "$WORKDIR/$1" | head -20 >&2 || true
        FAILED=1
    fi
}

# run NAME BIN ARGS...: records BIN ARGS's stdout as NAME.
run() {
    local name="$1"
    shift
    echo "== $*"
    "$WORKDIR/$@" >"$WORKDIR/$name"
    check "$name"
}

for bin in warpedsim warpedbench warpedreport warpedd; do
    "$WORKDIR/$bin" -h 2>&1 | sed -n 's/^  -\([[:alnum:]_-]*\).*/\1/p' >"$WORKDIR/$bin.flags"
    check "$bin.flags"
done

run warpedbench-all.txt warpedbench -exp all -scale small
run warpedbench-all-off.txt warpedbench -exp all -scale small -compression off
run warpedbench-all-fpc.txt warpedbench -exp all -scale small -compression fpc
run warpedreport-tables.md warpedreport -scale small -tables
run warpedsim-compare.txt warpedsim -bench bfs -scale small -compare
run warpedsim-compare.json warpedsim -bench bfs -scale small -compare -json
run warpedsim-asm-compare.txt warpedsim -asm "$GOLDEN/divergent.s" -grid 8 -block 128 -compare
run warpedsim-asm-compare.json warpedsim -asm "$GOLDEN/divergent.s" -grid 8 -block 128 -compare -json

if [ -n "$OUT" ]; then
    echo "goldens written to $OUT"
    exit 0
fi

# An unknown -format must be rejected before any simulation starts.
for extra in "" -keep-going; do
    echo "== warpedbench -format xml${extra:+ $extra}"
    status=0
    "$WORKDIR/warpedbench" -exp fig3 -benchmarks bfs,lib -scale small -format xml -v $extra \
        >/dev/null 2>"$WORKDIR/format.err" || status=$?
    if [ "$status" -ne 1 ] || grep -q '^start ' "$WORKDIR/format.err" ||
        ! grep -q '^warpedbench: unknown format "xml"' "$WORKDIR/format.err"; then
        echo "FAIL  -format xml${extra:+ $extra}: want exit 1 before any job starts, got exit $status:" >&2
        cat "$WORKDIR/format.err" >&2
        FAILED=1
    else
        echo "ok    -format xml${extra:+ $extra} rejected before any job starts"
    fi
done

exit "$FAILED"
