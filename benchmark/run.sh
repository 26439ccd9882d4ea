#!/usr/bin/env bash
# Builds the benchmark package if its binary is missing or older than any
# source it is built from, then runs it with the arguments given. Run from
# the root of the repository.
#
# Not `cargo run`: in a checkout that is not a git repository,
# crates/telemetry/build.rs watches a `.git/HEAD` that does not exist, so
# every cargo invocation would rebuild telemetry and all that depends on it.
set -euo pipefail

target="${CARGO_TARGET_DIR:-benchmark/target}"
bin="$target/release/benchmark"
if [ ! -x "$bin" ] || [ -n "$(find benchmark/src benchmark/Cargo.toml crates third_party Cargo.toml \
        -type f -newer "$bin" -print -quit)" ]; then
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml \
        --target-dir "$target" >&2
fi
exec "$bin" "$@"
