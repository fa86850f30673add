#!/usr/bin/env bash
# Flake soak for the process-level suites: runs the daemon
# (tests/serve.rs), chaos (tests/chaos.rs) and CLI (tests/cli.rs) suites
# RUNS times each unpinned, then RUNS times each pinned to one CPU with
# `taskset -c 0` (where timing races surface), and prints how many runs
# of each suite failed. The log of every failed run is kept and named.
#
# Not part of tier-1 or scripts/check.sh: 20 runs take a few minutes.
#
# Usage: scripts/soak.sh [RUNS]      (default 20)
# Exit status: 0 when no run failed, 1 otherwise.
set -uo pipefail

cd "$(dirname "$0")/.."

runs="${1:-20}"
suites=(serve chaos cli)
logdir="$(mktemp -d "${TMPDIR:-/tmp}/stq-soak-XXXXXX")"

echo "==> building the test binaries"
cargo test -q --no-run --test serve --test chaos --test cli || exit 1

total=0
summary=()
for mode in unpinned pinned; do
    prefix=()
    if [ "$mode" = pinned ]; then
        if ! command -v taskset > /dev/null; then
            summary+=("pinned: skipped (taskset not found)")
            continue
        fi
        prefix=(taskset -c 0)
    fi
    for suite in "${suites[@]}"; do
        fails=0
        for i in $(seq 1 "$runs"); do
            log="$logdir/$mode-$suite-$i.log"
            if "${prefix[@]}" cargo test -q --test "$suite" > "$log" 2>&1; then
                rm -f "$log"
            else
                fails=$((fails + 1))
                echo "    $mode $suite run $i failed: $log"
            fi
        done
        echo "==> $mode $suite: $fails of $runs run(s) failed"
        summary+=("$mode $suite: $fails/$runs")
        total=$((total + fails))
    done
done

echo "==> soak summary (failed/runs)"
printf '    %s\n' "${summary[@]}"
if [ "$total" -eq 0 ]; then
    rmdir "$logdir" 2> /dev/null
    exit 0
fi
echo "    failed-run logs: $logdir"
exit 1
