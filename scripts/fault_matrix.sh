#!/usr/bin/env sh
# Fault-matrix smoke: drives the release `train` CLI through the
# injected-failure classes — worker crash (with checkpointing), worker
# stall, link degradation, crash under the int8 wire, and crash under
# tiered storage — each under `--audit=strict`, so the bounded-staleness
# invariant is machine-checked while faults fire.
#
# Run from the repo root (make verify does). Builds nothing: expects
# `cargo build --release` to have produced target/release/het-gmp.
set -eu

cd "$(dirname "$0")/.."

BIN=target/release/het-gmp
[ -x "$BIN" ] || { echo "fault_matrix: $BIN missing (run make build first)" >&2; exit 1; }

TMP=$(mktemp -d "${TMPDIR:-/tmp}/hetgmp-fault-matrix.XXXXXX")
trap 'rm -rf "$TMP"' EXIT INT TERM

COMMON="--preset tiny --system het-gmp --staleness 0 --workers 2 --epochs 2 --audit=strict --seed 42"

run_case() {
    name=$1
    shift
    echo "fault_matrix: $name"
    if ! "$BIN" train $COMMON "$@" > "$TMP/$name.log" 2>&1; then
        echo "fault_matrix: $name FAILED" >&2
        cat "$TMP/$name.log" >&2
        exit 1
    fi
}

# 1. Crash + periodic checkpoint: worker 1 dies just after training
#    starts, restores from the checkpoint image, and the run completes.
run_case crash \
    --faults 'crash@1:0.000001' \
    --checkpoint-every 1 --checkpoint-dir "$TMP/ckpts"
grep -q 'faults: 1 crash' "$TMP/crash.log" || {
    echo "fault_matrix: crash run reported no crash" >&2
    cat "$TMP/crash.log" >&2
    exit 1
}
[ -f "$TMP/ckpts/ckpt-epoch-1.hgmr" ] || {
    echo "fault_matrix: no checkpoint written" >&2
    exit 1
}

# 2. Stall: worker 0 freezes for 5 simulated milliseconds at t=0.
run_case stall --faults 'stall@0:0.0:0.005'
grep -q '1 stall' "$TMP/stall.log" || {
    echo "fault_matrix: stall run reported no stall" >&2
    cat "$TMP/stall.log" >&2
    exit 1
}

# 3. Link degradation: the 0-1 link runs 8x slower for a window.
run_case degrade --faults 'degrade@0-1:0.0:0.01:8'

# 4. Crash under the compressed wire: same crash + restore with the int8
#    transport (error feedback on by default); the re-primed replicas and
#    every subsequent sync must keep the strict audit clean.
run_case crash-int8 \
    --faults 'crash@1:0.000001' --sync-format int8 \
    --checkpoint-every 1 --checkpoint-dir "$TMP/ckpts-int8"
grep -q 'faults: 1 crash' "$TMP/crash-int8.log" || {
    echo "fault_matrix: int8 crash run reported no crash" >&2
    cat "$TMP/crash-int8.log" >&2
    exit 1
}

# 5. Tiered storage: crash + restore with the embedding table spilling past
#    a 1 MiB RAM budget, so the checkpoint image spans both tiers and the
#    crash lands while the buffer manager is busy writing dirty pages back
#    (the run logs non-zero write-backs). Two bit-match contracts close the
#    case:
#      - resuming the uninterrupted tiered run's checkpoint reproduces its
#        final AUC bit for bit (a tier-spanning image loses nothing);
#      - resuming the crash run's checkpoint lands on the same bits whether
#        the resumed table is tiered or fully in memory (the image is
#        tier-agnostic, so recovery never depends on where rows lived).
#    Spill pages are scratch (no fsync: recovery reads the checkpoint, never
#    a spill file); a torn or corrupt page image is still rejected by the
#    page checksum at fault time, and that path is pinned by the
#    torn_spill_file_detected_and_rejected unit test in hetgmp-embedding.
TIERED="--preset criteo --scale 0.5 --storage tiered --storage-budget-mb 1"
final_auc() {
    sed -n 's/.*"event":"final"[^}]*"auc":\([0-9.eE+-]*\).*/\1/p' "$1" | tail -1
}

run_case crash-tiered $TIERED \
    --faults 'crash@1:0.000001' --storage-dir "$TMP/spill-crash" \
    --checkpoint-every 1 --checkpoint-dir "$TMP/ckpts-tiered-crash"
grep -q 'faults: 1 crash' "$TMP/crash-tiered.log" || {
    echo "fault_matrix: tiered crash run reported no crash" >&2
    cat "$TMP/crash-tiered.log" >&2
    exit 1
}
grep -qE 'capacity: [1-9][0-9]* page fault' "$TMP/crash-tiered.log" || {
    echo "fault_matrix: tiered crash run never faulted (budget not exceeded?)" >&2
    cat "$TMP/crash-tiered.log" >&2
    exit 1
}
grep -qE '\([1-9][0-9]* written back\)' "$TMP/crash-tiered.log" || {
    echo "fault_matrix: tiered crash run wrote no dirty pages back" >&2
    cat "$TMP/crash-tiered.log" >&2
    exit 1
}

run_case full-tiered $TIERED \
    --storage-dir "$TMP/spill-full" \
    --checkpoint-every 1 --checkpoint-dir "$TMP/ckpts-tiered-full" \
    --telemetry "$TMP/full-tiered.jsonl"
run_case resume-tiered $TIERED \
    --storage-dir "$TMP/spill-resume" \
    --resume "$TMP/ckpts-tiered-full/ckpt-epoch-1.hgmr" \
    --telemetry "$TMP/resume-tiered.jsonl"
full=$(final_auc "$TMP/full-tiered.jsonl")
resumed=$(final_auc "$TMP/resume-tiered.jsonl")
[ -n "$full" ] && [ "$full" = "$resumed" ] || {
    echo "fault_matrix: tiered resume drifted from the uninterrupted run ($resumed vs $full)" >&2
    exit 1
}

run_case resume-crash-tiered $TIERED \
    --storage-dir "$TMP/spill-resume-crash" \
    --resume "$TMP/ckpts-tiered-crash/ckpt-epoch-1.hgmr" \
    --telemetry "$TMP/resume-crash-tiered.jsonl"
run_case resume-crash-memory --preset criteo --scale 0.5 \
    --resume "$TMP/ckpts-tiered-crash/ckpt-epoch-1.hgmr" \
    --telemetry "$TMP/resume-crash-memory.jsonl"
tiered=$(final_auc "$TMP/resume-crash-tiered.jsonl")
memory=$(final_auc "$TMP/resume-crash-memory.jsonl")
[ -n "$tiered" ] && [ "$tiered" = "$memory" ] || {
    echo "fault_matrix: resume from the crash checkpoint depends on the storage tier ($tiered vs $memory)" >&2
    exit 1
}

echo "fault_matrix: OK (crash, stall, degrade, int8-crash, tiered-crash all recovered under strict audit)"
