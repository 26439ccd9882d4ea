#!/usr/bin/env sh
# Validates the shape of the locked-in perf baselines:
#
#   BENCH_hotpath.json  (make bench-baseline / bench-smoke) — batched vs
#   per-row embedding ops + end-to-end throughput;
#   BENCH_dense.json    (make bench-dense / bench-dense-smoke) — blocked vs
#   naive GEMM kernels + the allocation-free tape path's end-to-end run;
#   BENCH_comms.json    (make bench-comms[-smoke]) — the AUC-vs-bytes sweep
#   over the sync wire formats (f32/f16/bf16/int8 + error feedback);
#   BENCH_capacity.json (make bench-capacity[-smoke]) — the tiered-storage
#   (rows x dim) ladder past a fixed RAM budget: faults/epoch and samples/s
#   for in-memory vs tiered, with and without batch ordering.
#
# The schema is picked from the file name (*.smoke.json siblings share the
# full-run schema). The top-level sections and every numeric field the perf
# tracking relies on must be present, throughputs must be positive, and the
# dense baseline's steady-state-allocation counter must be exactly 0.
# Prints the speedup on success.
#
# Run from the repo root (make verify does). POSIX sh + grep/sed only — the
# file is single-line flat JSON emitted by our own renderer, so anchored
# grep is reliable.
set -eu

cd "$(dirname "$0")/.."

FILE=${1:-BENCH_hotpath.json}
[ -f "$FILE" ] || {
    echo "check_bench_schema: $FILE missing (run 'make bench-smoke' or 'make bench-dense-smoke' first)" >&2
    exit 1
}

fail=0

require() {
    # require <pattern> <description>
    if ! grep -qE "$1" "$FILE"; then
        echo "check_bench_schema: missing $2 (pattern: $1)" >&2
        fail=1
    fi
}

case $FILE in
*dense*)
    # ---- BENCH_dense.json ------------------------------------------------
    for section in config gemm end_to_end; do
        require "\"$section\":\{" "section \"$section\""
    done
    require '"speedup":[0-9]' 'top-level "speedup"'

    for key in naive_gflops blocked_gflops wall_secs_naive wall_secs_blocked \
        flops_per_rep; do
        require "\"gemm\":\{[^}]*\"$key\":[0-9-]" "\"gemm.$key\""
    done

    for key in samples_per_sec dense_samples_per_sec gemm_flops arena_bytes \
        post_warmup_growth samples_processed final_auc; do
        require "\"end_to_end\":\{[^}]*\"$key\":[0-9-]" "\"end_to_end.$key\""
    done

    for key in seed batch features hidden square reps smoke; do
        require "\"config\":\{[^}]*\"$key\":" "\"config.$key\""
    done

    [ "$fail" -eq 0 ] || exit 1

    # Sanity: positive kernel and training throughput.
    for expr in '"naive_gflops":0[,.]0*[,}]' '"blocked_gflops":0[,.]0*[,}]' \
        '"samples_per_sec":0[,}]' '"dense_samples_per_sec":0[,}]'; do
        if grep -qE "$expr" "$FILE"; then
            echo "check_bench_schema: zero throughput in $FILE" >&2
            exit 1
        fi
    done
    # The zero-steady-state-allocations contract: any post-warmup tape
    # growth is a regression, fail loudly.
    if ! grep -qE '"post_warmup_growth":0(\.0*)?[,}]' "$FILE"; then
        echo "check_bench_schema: post_warmup_growth != 0 in $FILE (steady-state allocation regression)" >&2
        exit 1
    fi
    ;;
*comms*)
    # ---- BENCH_comms.json ------------------------------------------------
    require '"config":\{' 'section "config"'
    require '"formats":\[' 'array "formats"'
    require '"int8_reduction":[0-9]' 'top-level "int8_reduction"'

    for fmt in f32 f16 bf16 int8; do
        for key in embed_data_bytes allreduce_bytes quant_rows \
            quant_bytes_saved bytes_reduction final_auc auc_delta_pct \
            sim_time_secs; do
            require "\"format\":\"$fmt\",[^}]*\"$key\":[0-9-]" \
                "\"formats[format=$fmt].$key\""
        done
    done

    for key in preset scale workers system epochs batch dim seed \
        error_feedback smoke; do
        require "\"config\":\{[^}]*\"$key\":" "\"config.$key\""
    done

    [ "$fail" -eq 0 ] || exit 1

    # The identity transport must not meter quantized rows — a non-zero
    # count means the f32 path stopped being a no-op.
    if ! grep -qE '"format":"f32",[^}]*"quant_rows":0[,}]' "$FILE"; then
        echo "check_bench_schema: f32 row metered quantized rows in $FILE" >&2
        exit 1
    fi

    # The bytes contract: int8 must move at least 3.5x fewer embedding
    # bytes than f32 (structural — dim 32 wires 36 bytes vs 128).
    red=$(sed -n 's/.*"int8_reduction":\([0-9.eE+-]*\).*/\1/p' "$FILE")
    if ! awk -v r="$red" 'BEGIN { exit !(r >= 3.5) }'; then
        echo "check_bench_schema: int8_reduction $red below the 3.5x contract in $FILE" >&2
        exit 1
    fi

    # The accuracy contract on the committed baseline: int8's final AUC
    # within 0.5% of f32's. Smoke runs re-assert this inside the bench
    # binary; the schema gate exists to catch a stale committed file.
    if grep -qE '"smoke":false' "$FILE"; then
        delta=$(sed -n 's/.*"format":"int8",[^}]*"auc_delta_pct":\([0-9.eE+-]*\).*/\1/p' "$FILE")
        if ! awk -v d="$delta" 'BEGIN { a = d < 0 ? -d : d; exit !(a <= 0.5) }'; then
            echo "check_bench_schema: int8 auc_delta_pct $delta outside the 0.5% band in $FILE" >&2
            exit 1
        fi
    fi
    ;;
*capacity*)
    # ---- BENCH_capacity.json ---------------------------------------------
    require '"config":\{' 'section "config"'
    require '"rungs":\[' 'array "rungs"'
    require '"fault_reduction":[0-9]' 'top-level "fault_reduction"'

    for key in rows dim table_bytes over_budget mem_samples_per_sec \
        tiered_samples_per_sec perf_ratio mem_faults faults_ordered \
        faults_unordered faults_per_epoch fault_ratio auc_match; do
        require "\"rungs\":\[[^]]*\"$key\":" "\"rungs[].$key\""
    done

    for key in preset budget_bytes workers system epochs reps batch seed \
        smoke; do
        require "\"config\":\{[^}]*\"$key\":" "\"config.$key\""
    done

    [ "$fail" -eq 0 ] || exit 1

    # Bit-identity contract: the bench only records auc_match after
    # asserting the tiered AUCs equal the in-memory AUC bit for bit.
    if grep -qE '"auc_match":false' "$FILE"; then
        echo "check_bench_schema: auc_match false in $FILE (tiered run diverged from in-memory)" >&2
        exit 1
    fi

    # In-memory runs must never touch the buffer manager.
    if grep -qE '"mem_faults":[1-9]' "$FILE"; then
        echo "check_bench_schema: in-memory run reported page faults in $FILE" >&2
        exit 1
    fi

    # The ladder must actually cross the budget — its largest (last) rung
    # over budget with real tiered page faults.
    if ! grep -qE '"over_budget":true[^]]*\}\]' "$FILE"; then
        echo "check_bench_schema: the ladder's largest rung is not over budget in $FILE" >&2
        exit 1
    fi
    if ! grep -qE '"over_budget":true,[^}]*"faults_unordered":[1-9]' "$FILE"; then
        echo "check_bench_schema: no over-budget rung recorded tiered page faults in $FILE" >&2
        exit 1
    fi

    # Buffer-aware batch ordering must not lose to plain LRU: the summed
    # over-budget ratio is >= 1x by construction, and the bench asserts the
    # strict win — a stale committed file is what this catches.
    red=$(sed -n 's/.*"fault_reduction":\([0-9.eE+-]*\).*/\1/p' "$FILE")
    if ! awk -v r="$red" 'BEGIN { exit !(r >= 1.0) }'; then
        echo "check_bench_schema: fault_reduction $red < 1.0 in $FILE (batch ordering lost to LRU)" >&2
        exit 1
    fi

    # Perf-ratio band: tiered throughput is meaningful relative to the
    # in-memory run — positive, and never implausibly above it (> 3x means
    # the measurement broke, not that spilling got fast).
    for ratio in $(grep -oE '"perf_ratio":[0-9.eE+-]+' "$FILE" | sed 's/.*://'); do
        if ! awk -v p="$ratio" 'BEGIN { exit !(p > 0.0 && p < 3.0) }'; then
            echo "check_bench_schema: perf_ratio $ratio outside (0, 3.0) in $FILE" >&2
            exit 1
        fi
    done

    # The out-of-core floor on the committed baseline: every over-budget
    # rung trains at >= 0.15x the in-memory rate (3x the worst rung of the
    # per-page-file store; ROADMAP's 0.33 is the open target). Smoke runs
    # are too small to gate.
    if grep -qE '"smoke":false' "$FILE"; then
        for ratio in $(grep -oE '"over_budget":true,[^}]*"perf_ratio":[0-9.eE+-]+' "$FILE" | sed 's/.*://'); do
            if ! awk -v p="$ratio" 'BEGIN { exit !(p >= 0.15) }'; then
                echo "check_bench_schema: over-budget rung perf_ratio $ratio below the 0.15 floor in $FILE" >&2
                exit 1
            fi
        done
    fi
    ;;
*)
    # ---- BENCH_hotpath.json ----------------------------------------------
    for section in config per_row batched end_to_end; do
        require "\"$section\":\{" "section \"$section\""
    done
    require '"speedup":[0-9]' 'top-level "speedup"'

    # Microbench sides: both carry throughput, lock traffic, and wall time.
    for side in per_row batched; do
        for key in rows_per_sec lock_acquisitions wall_secs; do
            require "\"$side\":\{[^}]*\"$key\":[0-9-]" "\"$side.$key\""
        done
    done

    # End-to-end run fields.
    for key in samples_per_sec lock_acquisitions samples_processed \
        batched_read_rows batched_apply_rows final_auc; do
        require "\"end_to_end\":\{[^}]*\"$key\":[0-9-]" "\"end_to_end.$key\""
    done

    # Config provenance: the workload must be reproducible.
    for key in seed rows dim batch batches threads reps smoke; do
        require "\"config\":\{[^}]*\"$key\":" "\"config.$key\""
    done

    # Read-scaling sweep: locked vs seqlock-snapshot batched reads. The
    # scalar fields precede the per-thread array inside the section, so a
    # single-brace-delimited grep finds them.
    require '"read_scaling":\{' 'section "read_scaling"'
    for key in read_batch batches write_every speedup_at_4; do
        require "\"read_scaling\":\{[^]]*\"$key\":[0-9]" "\"read_scaling.$key\""
    done
    for t in 1 2 4; do
        for key in locked_rows_per_sec snapshot_rows_per_sec speedup \
            snapshot_rows retries fallback_rows locked_lock_acquisitions \
            snapshot_lock_acquisitions; do
            require "\"threads\":$t,[^]}]*\"$key\":[0-9-]" \
                "\"read_scaling.threads[threads=$t].$key\""
        done
    done

    # Worker layer vs its ceiling: `WorkerEmbedding::read_batch` next to one
    # snapshot read of the same distinct rows.
    require '"worker_read":\{' 'section "worker_read"'
    for key in fields samples batches write_every distinct_rows_per_batch \
        worker_us_per_batch table_us_per_batch worker_over_table; do
        require "\"worker_read\":\{[^}]*\"$key\":[0-9]" "\"worker_read.$key\""
    done

    [ "$fail" -eq 0 ] || exit 1

    # Sanity: throughputs are positive (a zero means the measurement broke).
    for expr in '"rows_per_sec":0[,.]0*[,}]' '"samples_per_sec":0[,}]'; do
        if grep -qE "$expr" "$FILE"; then
            echo "check_bench_schema: zero throughput in $FILE" >&2
            exit 1
        fi
    done

    # The tentpole gate on the committed baseline: the seqlock snapshot
    # path must hold >= 1.3x the locked read path's rows/s at 4 threads on
    # the read-mostly sweep. Smoke runs are too small to gate.
    if grep -qE '"smoke":false' "$FILE"; then
        s4=$(sed -n 's/.*"speedup_at_4":\([0-9.eE+-]*\).*/\1/p' "$FILE")
        if [ -z "$s4" ] || ! awk -v s="$s4" 'BEGIN { exit !(s >= 1.3) }'; then
            echo "check_bench_schema: read_scaling speedup_at_4 '${s4:-missing}' below the 1.3x contract in $FILE" >&2
            exit 1
        fi
        # The worker may cost at most 10x the table read it wraps (the
        # all-pairs, hash-probing worker sat near 60x).
        wot=$(sed -n 's/.*"worker_over_table":\([0-9.eE+-]*\).*/\1/p' "$FILE")
        if [ -z "$wot" ] || ! awk -v r="$wot" 'BEGIN { exit !(r <= 10) }'; then
            echo "check_bench_schema: worker_read worker_over_table '${wot:-missing}' above the 10x ceiling in $FILE" >&2
            exit 1
        fi
    fi
    ;;
esac

# ---- run-manifest stamp --------------------------------------------------
# Every bench artifact carries the manifest identifying the run that
# produced it (seed, config digest, build); `inspect diff` keys its
# mismatch warning off these fields.
require '"manifest":\{' 'top-level "manifest"'
for key in schema seed config_digest workers git_rev build_profile; do
    require "\"manifest\":\{[^}]*\"$key\":" "\"manifest.$key\""
done
[ "$fail" -eq 0 ] || exit 1

# The comms sweep reports a byte-reduction ratio instead of a speedup, the
# capacity ladder a fault-reduction ratio.
speedup=$(grep -oE '"speedup":[0-9.eE+-]+' "$FILE" | head -1 | sed 's/.*://')
[ -n "$speedup" ] || speedup=$(sed -n 's/.*"int8_reduction":\([0-9.eE+-]*\).*/\1/p' "$FILE")
[ -n "$speedup" ] || speedup=$(sed -n 's/.*"fault_reduction":\([0-9.eE+-]*\).*/\1/p' "$FILE")
echo "check_bench_schema: OK ($FILE; speedup ${speedup}x)"
