# Convenience targets; all builds are fully offline (deps vendored under
# third_party/). The end-to-end benchmark the driver gates on is a package
# of its own under benchmark/ (BENCHMARK.json, `bash benchmark/run.sh`);
# `make benchmark-smoke` builds and smoke-runs it against this tree.

CARGO ?= cargo

.PHONY: build test clippy doc lint-metrics fault-matrix inspect-smoke tsan \
	verify bench bench-baseline bench-smoke bench-dense bench-dense-smoke \
	bench-comms bench-comms-smoke bench-capacity bench-capacity-smoke \
	bench-schema benchmark-smoke clean

build:
	$(CARGO) build --release --offline --workspace

test:
	$(CARGO) test -q --offline --workspace

clippy:
	$(CARGO) clippy --offline --workspace --all-targets -- -D warnings

# Rustdoc with warnings denied, over the default members (third_party/ is
# excluded): a doc comment that links to a private, renamed or deleted item
# fails here instead of rotting.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps --offline

# Metric-name hygiene: every dotted name used in code is defined in
# hetgmp_telemetry::names and documented in TELEMETRY.md.
lint-metrics:
	sh scripts/check_metric_names.sh

# Fault-injection smoke matrix: crash (with checkpoint/restore), stall,
# and link degradation through the release CLI under --audit=strict.
fault-matrix: build
	sh scripts/fault_matrix.sh

# End-to-end smoke of `het-gmp inspect`: a tiny fixed-seed run feeds all
# three modes; the report must match the committed golden byte-for-byte
# (manifest line filtered — its git rev changes every commit) and an
# injected regression must flip diff's exit code.
inspect-smoke: build
	sh scripts/inspect_smoke.sh

# ThreadSanitizer over the concurrent suites: the seqlock read path, the
# AllReduce group (its threaded stress included) and the write phase's
# WriteExchange hand-off.
# Needs a nightly toolchain (-Zsanitizer=thread is unstable); the script
# skips with a notice when nightly is absent, so this target is safe to
# run anywhere but only *checks* where nightly is installed. Not part of
# `make verify` for the same reason.
tsan:
	sh scripts/tsan.sh

# The frozen benchmark package against this tree: run.sh rebuilds benchmark/
# when any source it depends on is newer than its binary (so an API break
# against benchmark/src fails here, not in the driver), then every workload
# runs shrunk ~20x, one repetition; any failed batch fails the target.
benchmark-smoke:
	bash benchmark/run.sh run --smoke --out target/benchmark-smoke.json

# The gate every change must pass: release build, full test suite, clippy
# and rustdoc with warnings denied, metric-name lint, the fault-injection
# matrix, the perf-baseline schema check, the inspect smoke, and the
# benchmark smoke.
verify: build test clippy doc lint-metrics fault-matrix bench-schema inspect-smoke \
	benchmark-smoke

bench:
	$(CARGO) bench --offline --workspace

# The perf baseline: criterion microbenchmarks plus the fixed-seed hot-path
# run that writes BENCH_hotpath.json (batched vs per-row table ops and
# end-to-end training throughput).
bench-baseline: build
	$(CARGO) bench --offline -p hetgmp-bench --bench bench_embedding
	$(CARGO) run --release --offline -p hetgmp-bench --bin bench_hotpath

# Five-second subset: same BENCH_hotpath.json schema, shrunk workload.
bench-smoke: build
	$(CARGO) run --release --offline -p hetgmp-bench --bin bench_hotpath -- --smoke

# The dense-engine baseline: criterion GEMM microbenchmarks plus the
# fixed-seed run that writes BENCH_dense.json (blocked vs naive kernels and
# allocation-free end-to-end training throughput; asserts the stage
# profiler's self-cost stays under 2% of wall).
bench-dense: build
	$(CARGO) bench --offline -p hetgmp-bench --bench bench_gemm
	$(CARGO) run --release --offline -p hetgmp-bench --bin bench_dense

# Shrunk dense baseline: same BENCH_dense.json schema.
bench-dense-smoke: build
	$(CARGO) run --release --offline -p hetgmp-bench --bin bench_dense -- --smoke

# The compressed-communication baseline: one fixed-seed workload swept over
# the sync wire formats (f32/f16/bf16/int8), writing BENCH_comms.json
# (bytes charged per format, quant counters, final AUC; asserts int8 moves
# ≥ 3.5x fewer embedding bytes with AUC within 0.5% of f32).
bench-comms: build
	$(CARGO) run --release --offline -p hetgmp-bench --bin bench_comms
	sh scripts/check_bench_schema.sh BENCH_comms.json

# Shrunk format sweep: same schema, written to BENCH_comms.smoke.json.
bench-comms-smoke: build
	$(CARGO) run --release --offline -p hetgmp-bench --bin bench_comms -- --smoke

# The tiered-storage capacity baseline: a (rows x dim) ladder past a fixed
# RAM budget, each rung run in-memory, tiered+ordered, and tiered+LRU,
# writing BENCH_capacity.json (faults/epoch, samples/s vs in-memory;
# asserts bit-identical AUC across tiers and that batch ordering strictly
# reduces page faults on the over-budget rungs).
bench-capacity: build
	$(CARGO) run --release --offline -p hetgmp-bench --bin bench_capacity
	sh scripts/check_bench_schema.sh BENCH_capacity.json

# Shrunk ladder: same schema, written to BENCH_capacity.smoke.json.
bench-capacity-smoke: build
	$(CARGO) run --release --offline -p hetgmp-bench --bin bench_capacity -- --smoke

# Schema gate for all four committed baselines: runs the smoke benches (which
# write *.smoke.json siblings, never touching the committed full-run files)
# and validates both the fresh smoke output and the committed baselines.
bench-schema: bench-smoke bench-dense-smoke bench-comms-smoke bench-capacity-smoke
	sh scripts/check_bench_schema.sh BENCH_hotpath.smoke.json
	sh scripts/check_bench_schema.sh BENCH_dense.smoke.json
	sh scripts/check_bench_schema.sh BENCH_comms.smoke.json
	sh scripts/check_bench_schema.sh BENCH_capacity.smoke.json
	sh scripts/check_bench_schema.sh
	sh scripts/check_bench_schema.sh BENCH_dense.json
	sh scripts/check_bench_schema.sh BENCH_comms.json
	sh scripts/check_bench_schema.sh BENCH_capacity.json

clean:
	$(CARGO) clean
