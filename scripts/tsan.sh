#!/usr/bin/env sh
# ThreadSanitizer pass over the code that is concurrent by design.
#
# * The segment table. Readers share a segment's `RwLock` while owners
#   apply under its write lock, and clocks are read without the lock; TSan
#   is the independent witness that the lock and the clocks' release /
#   acquire pairs order every access as the comments claim. It runs the
#   read-path suite (torn-row stress + differential tests), the table's
#   concurrent updates and `concurrent_owners_match_a_one_thread_replay`
#   (four owners applying their exchange columns side by side).
# * `AllReduceGroup`. Contributions and results move outside the state
#   mutex, through per-slot locks, fenced only by the round's counters; the
#   unit suite (the threaded stress that reorders arrivals and switches op
#   and length between rounds included) runs under TSan.
# * `WriteExchange`, the write phase's hand-off. A source fills its
#   outboxes before the reads-done barrier and each owner drains its column
#   after it; `write_exchange_hands_off_across_threads` (four ranks, 120
#   publish / barrier / drain rounds, a rank idle every few) is the witness
#   that the barrier is all the ordering the uncontended cell locks need.
#
# TSan needs a nightly toolchain (and, on some installs, the rust-src
# component to rebuild std instrumented). Neither is a build dependency of
# this repo, so when they are absent this script *skips* with a notice and
# exit 0 rather than failing `make tsan` on machines that only carry the
# pinned stable toolchain. CI images that do carry nightly get the real
# check.
set -eu

cd "$(dirname "$0")/.."

if ! command -v rustup >/dev/null 2>&1; then
    echo "tsan: rustup not found; skipping (need a nightly toolchain for -Zsanitizer=thread)"
    exit 0
fi
if ! rustup toolchain list 2>/dev/null | grep -q '^nightly'; then
    echo "tsan: no nightly toolchain installed; skipping (rustup toolchain install nightly)"
    exit 0
fi

host=$(rustc -vV | sed -n 's/^host: //p')
case $host in
*-linux-gnu | *-apple-darwin) ;;
*)
    echo "tsan: unsupported host $host; skipping"
    exit 0
    ;;
esac

echo "tsan: running the segment-table, allreduce and write-exchange suites under ThreadSanitizer ($host)"

# Instrumenting std requires -Zbuild-std, which needs rust-src; fall back
# to uninstrumented std (still catches races between our own atomics and
# data accesses) when the component is missing. The fallback must allow
# the sanitizer ABI mismatch against the prebuilt uninstrumented std.
if rustup component list --toolchain nightly 2>/dev/null |
    grep -q '^rust-src (installed)'; then
    flags="-Zsanitizer=thread"
    build_std="-Zbuild-std"
else
    echo "tsan: nightly rust-src not installed; running without -Zbuild-std (std uninstrumented)"
    flags="-Zsanitizer=thread -Cunsafe-allow-abi-mismatch=sanitizer"
    build_std=""
fi

# TSan tracks real threads, so keep the proptest case count (and therefore
# wall time) at the differential suite's defaults; the stress test is the
# target. TSAN_OPTIONS halts on the first report; the suppressions file
# only silences false positives inside *uninstrumented std* internals
# (see scripts/tsan.supp), which the build-std path does not need but is
# harmless under it.
tsan_test() {
    RUSTFLAGS="$flags" \
        TSAN_OPTIONS="halt_on_error=1 suppressions=$(pwd)/scripts/tsan.supp" \
        cargo +nightly test --offline $build_std --target "$host" "$@"
}
tsan_test -p hetgmp-embedding --test read_path
tsan_test -p hetgmp-embedding --lib -- concurrent_
tsan_test -p hetgmp-comms --lib allreduce
tsan_test -p hetgmp-embedding --test worker_differential write_exchange_hands_off

echo "tsan: OK"
