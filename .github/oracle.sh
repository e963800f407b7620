#!/usr/bin/env bash
# Runs `cargo test "$@"` on one test binary (`--test NAME` or `--lib`) and
# fails when it fails or when it ran no test: a named oracle step whose
# filter matches nothing, say after a rename, must not pass silently.
# Usage: bash .github/oracle.sh -q -p ciflow --test analytic_oracle
set -uo pipefail
out=$(cargo test "$@" 2>&1)
status=$?
printf '%s\n' "$out"
if [ "$status" -ne 0 ]; then
  exit "$status"
fi
if ! grep -q '^test result: ok\. [1-9]' <<< "$out"; then
  echo "error: \`cargo test $*\` ran no test" >&2
  exit 1
fi
