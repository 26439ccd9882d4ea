#!/usr/bin/env sh
# Lints the hot-path crates against per-element libm rounding.
#
# The x86-64 baseline has no SSE4.1 `roundss` / `roundsd`, so
# `round_ties_even`, `round`, `floor`, `ceil` and `trunc` (f32 and f64)
# compile to out-of-line libm calls (`rintf`, `roundf`, `floorf`, ...),
# one per element, and keep the loop around them from vectorising. The
# int8 wire codec once spent most of its time in one such call. This fails
# on any of them in non-test code under crates/{comms,embedding,tensor}/src.
# A line may keep one only with an allow comment that says why:
#
#     let n = (x / y).ceil(); // allow(libm-rounding): once per run, not per element
#
# Test code is skipped: a `#[cfg(test)]` item (the `mod tests` block, a
# test-only function or import) up to its end. Comments are not code: a doc
# comment may name these calls.
#
# Run from the repo root (make verify does). POSIX sh + find/awk only.
set -eu

cd "$(dirname "$0")/.."

files=$(find crates/comms/src crates/embedding/src crates/tensor/src -name '*.rs' | sort)
[ -n "$files" ] || { echo "check_hot_rounding: no sources found" >&2; exit 1; }

# shellcheck disable=SC2086 # one argument per file
awk '
function count(ch,   t) { t = code; return gsub(ch, "", t) }
# Tracks the braces of the test item being skipped; true once it has ended
# (its braces closed, or a brace-less item such as a `use` reached its `;`).
function item_ends(   opens) {
    opens = count("[{]")
    depth += opens - count("[}]")
    if (opens > 0) opened = 1
    return (opened && depth <= 0) || (!opened && code ~ /;[[:space:]]*$/)
}
FNR == 1 { pending = 0; skip = 0 }
{
    code = $0
    sub(/\/\/.*/, "", code)
}
skip {
    if (item_ends()) skip = 0
    next
}
/^[[:space:]]*#\[cfg\(test\)\]/ { pending = 1; next }
pending && /^[[:space:]]*#\[/ { next }
pending {
    # The item the attribute applies to starts here.
    pending = 0
    depth = 0
    opened = 0
    if (!item_ends()) skip = 1
    next
}
code ~ /round_ties_even\(|\.round\(\)|\.floor\(\)|\.ceil\(\)|\.trunc\(\)/ && $0 !~ /allow\(libm-rounding\): *[^ ]/ {
    printf "check_hot_rounding: %s:%d: libm rounding on a hot path (allow it with a reason, or round inline):\n    %s\n", FILENAME, FNR, $0 > "/dev/stderr"
    bad = 1
}
END { exit bad ? 1 : 0 }
' $files || exit 1

echo "check_hot_rounding: OK ($(echo "$files" | wc -l | tr -d ' ') files)"
