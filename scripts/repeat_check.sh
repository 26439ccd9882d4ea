#!/usr/bin/env sh
# Run-to-run repeatability of the canonical end-to-end run: 4 workers,
# HET-GMP(s=100), avazu-like, one epoch, seed 7.
#
# The run is started five times. Every run must print the same summary
# (final AUC, simulated throughput, comm share, the epoch line) and end
# with the same protocol and ledger counters in its `--telemetry` log:
# every `embedding.sync.*`, `embedding.flush.*` and `embedding.update.*`
# counter of the "final" record, and its traffic ledger — every
# `traffic.bytes.*` and `traffic.messages.*` counter and every
# `traffic.link.<class>.transfers` counter. A ledger counter that differs
# between runs is a charge-path bug. `embedding.flush.sync` must be
# non-zero, or the run never exercised the read-phase sync flush this check
# exists for.
#
# Deliberately not compared, because they measure the host, not the run:
#   * wall-time fields — `*.wall_secs` histograms, `*.samples_per_sec`
#     gauges, `telemetry.overhead_secs`, `partition.wall_secs`;
#   * read-path counters — `hotpath.read.retries` and
#     `hotpath.read.fallback`, which a tiered store fills as its pages
#     happen to be resident.
# None of them matches the names above.
#
# A sixth run repeats the command with `--storage tiered
# --storage-budget-mb 1`, a budget under the table (14,000 rows of dim 16
# plus their Adagrad accumulators). Its summary and every compared counter
# must equal run 1's: the storage tier moves no bit. Only its extra
# `capacity:` line is left out of the comparison, and that line must
# report page faults, or the tier never spilled.
#
# Run from the repo root (make repeat-check / make verify does). Needs the
# release binary (make build); an optional argument names another binary.
# POSIX sh + grep/sed/sort/diff only.
set -eu

cd "$(dirname "$0")/.."

BIN=${1:-target/release/het-gmp}
[ -x "$BIN" ] || { echo "repeat_check: $BIN missing (run 'make build' first)" >&2; exit 1; }
BIN=$(cd "$(dirname "$BIN")" && pwd)/$(basename "$BIN")
OUT=$(pwd)/target/repeat-check
rm -rf "$OUT"

for i in 1 2 3 4 5 tiered; do
    # One directory per run, one log name: the printed summary names it.
    mkdir -p "$OUT/$i"
    storage=
    [ "$i" = tiered ] && storage="--storage tiered --storage-budget-mb 1"
    # shellcheck disable=SC2086 # $storage is two flags or none
    (cd "$OUT/$i" && "$BIN" train --preset avazu --scale 1.0 --workers 4 \
        --system het-gmp --staleness 100 --epochs 1 --seed 7 $storage \
        --telemetry run.jsonl > summary.txt)
    grep '"event":"final"' "$OUT/$i/run.jsonl" |
        grep -oE '"(embedding\.(sync|flush|update)|traffic\.(bytes|messages))\.[A-Za-z0-9_.]*":[0-9]+|"traffic\.link\.[A-Za-z0-9_]*\.transfers":[0-9]+' |
        sort > "$OUT/$i/counters.txt"
    grep -v '^capacity: ' "$OUT/$i/summary.txt" | cat - "$OUT/$i/counters.txt" > "$OUT/$i/observed.txt"
done

if ! grep -qE '^capacity: [1-9][0-9]* page fault' "$OUT/tiered/summary.txt"; then
    echo "repeat_check: the tiered run reports no page faults; its leg proves nothing" >&2
    exit 1
fi

if ! grep -qE '"embedding\.flush\.sync":[1-9]' "$OUT/1/counters.txt"; then
    echo "repeat_check: no sync flush fired; the check proves nothing" >&2
    exit 1
fi

if ! grep -q '"traffic\.bytes\.embed_data":' "$OUT/1/counters.txt"; then
    echo "repeat_check: the final record carries no traffic ledger" >&2
    exit 1
fi

status=0
for i in 2 3 4 5 tiered; do
    if ! diff -u "$OUT/1/observed.txt" "$OUT/$i/observed.txt"; then
        echo "repeat_check: run $i differs from run 1" >&2
        status=1
    fi
done
[ "$status" -eq 0 ] || exit 1

echo "repeat_check: OK (5 of 5 runs, and the tiered run, print the same summary, protocol and ledger counters)"
