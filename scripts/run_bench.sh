#!/usr/bin/env bash
# Substrate perf-trajectory lane: run every probe in the PROBES table of
# benchmarks/substrate.py (each asserts parity with its pinned oracle
# before timing), record BENCH_substrate.json, then check every floor and
# ceiling in its GATES list.  Exits non-zero if any gate fails, after
# naming every failed gate.  Parallel speedup gates arm only when
# cpu_count > 1.
#
# `PYTHONPATH=src python -m pytest -q benchmarks -m bench` checks the same
# GATES list; tests/test_bench_smoke.py runs the quick probes in tier-1.
#
# Usage:  scripts/run_bench.sh [--quick] [--repeats N] [--jobs N]
#                              [--no-parallel] [--output FILE]

set -euo pipefail
cd "$(dirname "$0")/.."

PYTHONPATH=src python -m benchmarks.substrate "$@"
