#!/usr/bin/env sh
# Lints the workspace's one-`unsafe` contract (DESIGN.md, "One path").
#
# The only unsafe code in the first-party sources is the guarded call
# through the GEMM dispatch table in `gemm::run` (crates/tensor/src/gemm.rs).
# This fails unless all three of these hold:
#
#   1. across every first-party .rs file (crates/, src/, tests/, examples/,
#      benchmark/src/) there is exactly one `#[allow(unsafe_code)]` and
#      exactly one `unsafe` block, both in `fn run` of gemm.rs. Any other
#      `unsafe` (a block, an `unsafe fn` item, `unsafe impl`/`trait`/
#      `extern`) fails; an `unsafe fn(...)` pointer *type* is not unsafe
#      code and passes. This also covers the crates the attributes below
#      cannot reach: benches, integration tests and examples;
#   2. hetgmp-tensor's crate root says `#![deny(unsafe_code)]` (deny, so
#      the one `allow` above can lift it);
#   3. every other library or binary crate root of the workspace says
#      `#![forbid(unsafe_code)]`.
#
# Comments are not code: a doc comment may say "unsafe". A string literal
# that does is flagged; reword it.
#
# Run from the repo root (make verify does). POSIX sh + find/awk only.
set -eu

cd "$(dirname "$0")/.."

files=$(find crates src tests examples benchmark/src -name '*.rs' -not -path '*/target/*' | sort)
[ -n "$files" ] || { echo "check_unsafe: no sources found" >&2; exit 1; }

# shellcheck disable=SC2086 # one argument per file
awk '
FNR == 1 { fn = "" }
{
    code = $0
    sub(/\/\/.*/, "", code)
    if (match(code, /(^|[^[:alnum:]_])fn[[:space:]]+[[:alnum:]_]+/)) {
        name = substr(code, RSTART, RLENGTH)
        sub(/.*fn[[:space:]]+/, "", name)
        fn = name
        if (allow_pending) {
            if (FILENAME != "crates/tensor/src/gemm.rs" || fn != "run") {
                printf "check_unsafe: %s:%d: #[allow(unsafe_code)] outside gemm::run (on fn %s)\n", allow_file, allow_line, fn > "/dev/stderr"
                bad = 1
            }
            allow_pending = 0
        }
    }
}
code ~ /#\[allow\(unsafe_code\)\]/ {
    allows++
    allow_pending = 1
    allow_file = FILENAME
    allow_line = FNR
}
{
    rest = code
    while (match(rest, /(^|[^[:alnum:]_])unsafe([^[:alnum:]_]|$)/)) {
        after = substr(rest, RSTART + RLENGTH - 1)
        rest = substr(rest, RSTART + RLENGTH)
        if (after ~ /^[[:space:]]*fn[[:space:]]*\(/) continue
        if (after ~ /^[[:space:]]*\{/ && FILENAME == "crates/tensor/src/gemm.rs" && fn == "run") {
            blocks++
            continue
        }
        printf "check_unsafe: %s:%d: unsafe code outside gemm::run:\n    %s\n", FILENAME, FNR, $0 > "/dev/stderr"
        bad = 1
    }
}
END {
    if (allows != 1) {
        printf "check_unsafe: want exactly one #[allow(unsafe_code)] (on gemm::run), found %d\n", allows > "/dev/stderr"
        bad = 1
    }
    if (blocks != 1) {
        printf "check_unsafe: want exactly one unsafe block (in gemm::run), found %d\n", blocks > "/dev/stderr"
        bad = 1
    }
    exit bad ? 1 : 0
}
' $files || exit 1

grep -qx '#!\[deny(unsafe_code)\]' crates/tensor/src/lib.rs || {
    echo "check_unsafe: crates/tensor/src/lib.rs must say #![deny(unsafe_code)]" >&2
    exit 1
}

roots=$(find crates/*/src src -maxdepth 1 \( -name lib.rs -o -name main.rs \) | sort)
for root in $roots; do
    [ "$root" = crates/tensor/src/lib.rs ] && continue
    grep -qx '#!\[forbid(unsafe_code)\]' "$root" || {
        echo "check_unsafe: $root must say #![forbid(unsafe_code)]" >&2
        exit 1
    }
done

echo "check_unsafe: OK ($(echo "$files" | wc -l | tr -d ' ') files, $(echo "$roots" | wc -l | tr -d ' ') crate roots)"
