#!/usr/bin/env sh
# End-to-end smoke of the `het-gmp inspect` subcommand.
#
# A tiny fixed-seed training run writes a telemetry JSONL log and
# a sync-level Chrome trace; then all three inspect modes run over them:
#
#   * `report`   — rendered output (deterministic sections only) must match
#                  the committed golden byte-for-byte. The manifest line is
#                  filtered out before comparing: its git_rev changes every
#                  commit by design.
#   * `pipeline` — the ASCII gantt must render every pipeline stage.
#   * `diff`     — a run diffed against itself must exit 0; the same log
#                  with an injected AUC drop must exit 1.
#
# A multi-run leg follows: `experiment fig9` (16 workers on 2 machines)
# writes one shared trace over all its runs, whose gantt must show worker
# tracks 0-15.
#
# Run from the repo root (make inspect-smoke / make verify does). Needs the
# release binary (make build). POSIX sh + grep/sed/diff only.
set -eu

cd "$(dirname "$0")/.."

BIN=target/release/het-gmp
[ -x "$BIN" ] || { echo "inspect_smoke: $BIN missing (run 'make build' first)" >&2; exit 1; }
OUT=target/inspect-smoke
GOLDEN=tests/golden/inspect_report_tiny.txt
mkdir -p "$OUT"

"$BIN" train --preset tiny --workers 4 --system het-gmp --epochs 2 --seed 7 \
    --telemetry "$OUT/run.jsonl" \
    --trace "$OUT/run.trace.json" --trace-level sync > /dev/null

# --- report vs golden ------------------------------------------------------
"$BIN" inspect report "$OUT/run.jsonl" | grep -v '^manifest:' > "$OUT/report.txt"
if ! diff -u "$GOLDEN" "$OUT/report.txt"; then
    echo "inspect_smoke: report drifted from $GOLDEN (regenerate it if the change is intended)" >&2
    exit 1
fi

# --- gantt renders every stage --------------------------------------------
"$BIN" inspect pipeline "$OUT/run.trace.json" > "$OUT/gantt.txt"
for stage in fetch compute write_back sync; do
    if ! grep -q "$stage" "$OUT/gantt.txt"; then
        echo "inspect_smoke: stage \"$stage\" missing from the gantt output" >&2
        exit 1
    fi
done

# --- diff: clean self-compare, loud injected regression -------------------
"$BIN" inspect diff "$OUT/run.jsonl" "$OUT/run.jsonl" > /dev/null

sed 's/"auc":[0-9.eE+-]*/"auc":0.01/g' "$OUT/run.jsonl" > "$OUT/regressed.jsonl"
if "$BIN" inspect diff "$OUT/run.jsonl" "$OUT/regressed.jsonl" > /dev/null 2>&1; then
    echo "inspect_smoke: injected AUC regression was not detected (expected exit 1)" >&2
    exit 1
fi

# --- multi-run: every fig9 worker has a track ------------------------------
"$BIN" experiment fig9 --scale 0.02 \
    --telemetry "$OUT/fig9.jsonl" --trace "$OUT/fig9.trace.json" > /dev/null
"$BIN" inspect pipeline "$OUT/fig9.trace.json" > "$OUT/fig9-gantt.txt"
w=0
while [ "$w" -lt 16 ]; do
    if ! grep -q "workers/worker $w " "$OUT/fig9-gantt.txt"; then
        echo "inspect_smoke: worker track $w missing from the fig9 gantt" >&2
        exit 1
    fi
    w=$((w + 1))
done

echo "inspect_smoke: OK (report golden, gantt stages, diff exit codes, fig9 worker tracks)"
