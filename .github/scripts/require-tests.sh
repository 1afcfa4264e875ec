#!/usr/bin/env bash
# Fails unless every test-name filter selects at least one test, so a CI
# step that runs tests by name cannot pass by running nothing after a
# rename or a move.
#
# Usage: require-tests.sh <cargo test args...> -- <filter>...
# e.g.   require-tests.sh --release -p pufatt-fleet --lib -- journaled_service
set -euo pipefail
args=()
while [ "$#" -gt 0 ] && [ "$1" != "--" ]; do
    args+=("$1")
    shift
done
[ "$#" -gt 1 ] || { echo "usage: $0 <cargo test args...> -- <filter>..." >&2; exit 2; }
shift
for filter in "$@"; do
    listed=$(cargo test "${args[@]}" -- --list "$filter" | grep -c ': test$' || true)
    if [ "$listed" -eq 0 ]; then
        echo "error: test filter '$filter' (cargo test ${args[*]}) selects no test" >&2
        exit 1
    fi
    echo "test filter '$filter' selects $listed test(s)"
done
