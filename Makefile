# Convenience targets; all builds are fully offline (deps vendored under
# third_party/). The end-to-end benchmark the driver gates on is a package
# of its own under benchmark/ (BENCHMARK.json, `bash benchmark/run.sh`);
# `make benchmark-smoke` builds and smoke-runs it against this tree.

CARGO ?= cargo

.PHONY: build test clippy doc fmt-check lint-metrics lint-rounding lint-unsafe fault-matrix \
	inspect-smoke repeat-check tsan verify bench benchmark-smoke clean

build:
	$(CARGO) build --release --offline --workspace

test:
	$(CARGO) test -q --offline --workspace

clippy:
	$(CARGO) clippy --offline --workspace --all-targets -- -D warnings

# Rustdoc with warnings denied, over the default members (third_party/ is
# excluded), private items included: a doc comment that links to a private,
# renamed or deleted item fails here instead of rotting, in crate-private
# modules too.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps --offline --document-private-items

# Formatting: rustfmt's default style over the first-party Rust sources
# (crates/, src/, tests/, examples/); benchmark/ and third_party/ are not
# checked. `rustfmt --edition 2021 <files>` applies the same style.
fmt-check:
	rustfmt --edition 2021 --check $$(git ls-files 'crates/*.rs' 'src/*.rs' 'tests/*.rs' 'examples/*.rs')

# Metric-name hygiene: every dotted name used in code is defined in
# hetgmp_telemetry::names and documented in TELEMETRY.md.
lint-metrics:
	sh scripts/check_metric_names.sh

# No per-element libm rounding (round_ties_even/round/floor/ceil/trunc) in
# non-test code of the hot-path crates: on the x86-64 baseline each is an
# out-of-line call that keeps its loop scalar. See the script's header.
lint-rounding:
	sh scripts/check_hot_rounding.sh

# One `unsafe` site: the guarded call in gemm::run is the only unsafe block
# and the only #[allow(unsafe_code)] in the first-party sources, tensor's
# crate root denies unsafe_code and every other crate root forbids it.
lint-unsafe:
	sh scripts/check_unsafe.sh

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

# Run-to-run repeatability: the canonical 4-worker HET-GMP(s=100) run,
# five times; the printed summary and the embedding.{sync,flush,update}.*
# counters must match in every run, with sync flushes firing. Then
# `experiment kg --scale 1` three times, printing the same table. The
# script names what it leaves out (wall time, read-path counters).
repeat-check: build
	sh scripts/repeat_check.sh

# ThreadSanitizer over the concurrent suites: the segment table under
# concurrent readers and owners, the AllReduce group (its threaded stress
# included) and the write phase's WriteExchange hand-off.
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
# and rustdoc with warnings denied, the rustfmt check, metric-name lint,
# hot-path rounding lint, the one-unsafe-site lint, the fault-injection
# matrix, the inspect smoke, the repeatability check, and the benchmark
# smoke.
verify: build test clippy doc fmt-check lint-metrics lint-rounding lint-unsafe fault-matrix \
	inspect-smoke repeat-check benchmark-smoke

# Criterion microbenchmarks, one bench per layer (crates/bench/benches).
# benchmark/ is the performance record; these are for looking closer.
bench:
	$(CARGO) bench --offline --workspace

clean:
	$(CARGO) clean
