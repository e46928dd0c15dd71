#!/usr/bin/env bash
# Write the CLI outputs whose bytes a change that keeps every answer must not
# change, 37 files, into the directory OUTDIR. The invocations are listed once,
# in tests/golden.py, which runs them in one process; tests/test_golden.py
# compares the same files' SHA-256 with tests/golden.json.
# The package is imported from PYTHONPATH, which must be absolute, so that one
# script can run against two trees and their outputs be compared with diff -r:
#   PYTHONPATH="$PWD/src" .github/outputs.sh OUTDIR
set -euo pipefail
exec python "$(dirname "$0")/../tests/golden.py" "$1"
