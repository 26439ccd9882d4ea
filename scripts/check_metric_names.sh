#!/usr/bin/env sh
# Lints metric-name hygiene, in both directions:
#
#   1. every dotted metric/trace name used as a string literal in Rust code
#      must be (or extend a prefix) defined in `hetgmp_telemetry::names`;
#   2. every constant in `hetgmp_telemetry::names` must be documented in
#      TELEMETRY.md;
#   3. every name the runtime *composes* at format! time (the per-stage
#      profiler histograms, the trace stage spans) and every run-manifest
#      field must be documented in TELEMETRY.md too — grep can't see these
#      as literals, so they are enumerated here.
#
# Run from the repo root (make verify does). POSIX sh + grep/sed/awk only.
set -eu

cd "$(dirname "$0")/.."

NAMES_RS=crates/telemetry/src/lib.rs
DOC=TELEMETRY.md

# The constant values, one per line, extracted from the names module.
consts=$(awk '/^pub mod names \{/,/^\}/' "$NAMES_RS" |
    sed -n 's/.*pub const [A-Z0-9_]*: &str = "\([^"]*\)";.*/\1/p')
[ -n "$consts" ] || { echo "check_metric_names: no constants found in $NAMES_RS" >&2; exit 1; }

# Every dotted string literal in the workspace that looks like a metric
# name (leading segment is one of our taxonomy roots).
used=$(grep -rhoE '"(traffic|time|embedding|partition|train|clock|protocol|trace|fault|checkpoint|hotpath|dense|pipeline|telemetry|capacity)\.[A-Za-z0-9_.]*"' \
        --include='*.rs' crates src tests examples 2>/dev/null |
    sed 's/"//g' | sort -u)

fail=0

for name in $used; do
    ok=0
    for c in $consts; do
        if [ "$name" = "$c" ]; then
            ok=1
            break
        fi
        # Prefix constants end in "."; suffixed uses are fine.
        case $c in
        *.)
            case $name in
            "$c"*) ok=1 ;;
            esac
            ;;
        esac
        [ $ok -eq 1 ] && break
    done
    if [ $ok -eq 0 ]; then
        echo "check_metric_names: literal \"$name\" is not defined in hetgmp_telemetry::names" >&2
        fail=1
    fi
done

for c in $consts; do
    # Prefix constants are documented with a placeholder suffix
    # (e.g. `traffic.messages.<class>`), so match without the trailing dot.
    probe=${c%.}
    if ! grep -qF "$probe" "$DOC"; then
        echo "check_metric_names: \"$c\" is not documented in $DOC" >&2
        fail=1
    fi
done

# Names emitted via format! composition (invisible to the literal scan) and
# the run-manifest fields every artifact is stamped with. Each must appear
# in TELEMETRY.md verbatim.
emitted="
traffic.link.<class>.latency_secs
traffic.link.<class>.bandwidth_secs
traffic.link.<class>.transfers
pipeline.stage.<stage>.wall_secs
pipeline.stage.<stage>.sim_secs
telemetry.overhead_secs
trace.stage.<stage>
config_digest
git_rev
git_dirty
build_profile
gemm_isa
"
for name in $emitted; do
    if ! grep -qF "$name" "$DOC"; then
        echo "check_metric_names: emitted name \"$name\" is not documented in $DOC" >&2
        fail=1
    fi
done

if [ $fail -ne 0 ]; then
    exit 1
fi
echo "check_metric_names: OK ($(echo "$consts" | wc -l | tr -d ' ') constants, $(echo "$used" | wc -l | tr -d ' ') literals)"
