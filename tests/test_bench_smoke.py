"""Tier-1 smoke of the perf-trajectory lane.

``scripts/run_bench.sh`` runs outside the normal test flow, so a probe
broken by a refactor used to surface only when someone refreshed the
baseline.  This smoke runs the suite's ``--quick`` workloads (minus the
process-pool probes, which belong to the bench lane) inside tier-1: the
structural assertions — nonce parity, batch-economics parity, ECDSA
ladder parity, fleet convergence — all fire, so a wrong-answer
regression fails the ordinary test run.  Throughput *floors* stay in
``benchmarks/`` where timings are not subject to tier-1's parallel
load; only the gate evaluation itself is checked here, on synthetic
payloads.
"""

import math

import pytest

from benchmarks.substrate import PROBES, check_gates, main, run_suite, to_table


@pytest.fixture(scope="module")
def suite():
    return run_suite(quick=True, repeats=1, parallel_probe=False)


def test_quick_suite_runs_every_probe(suite):
    expected = {probe.name for probe in PROBES if not probe.parallel}
    assert "ecdsa" in expected
    assert set(suite["benchmarks"]) == expected


def test_structural_probes_hold(suite):
    """The bit-parity comparisons, not the timing floors."""
    assert suite["benchmarks"]["nonce_search"]["same_nonce_as_naive"]
    assert suite["benchmarks"]["economics_batch"]["identical_to_scalar"]
    assert suite["benchmarks"]["ecdsa"]["identical_to_ladder"]
    assert suite["benchmarks"]["fleet_scale"]["converged"]
    assert suite["benchmarks"]["fleet_shard"]["points"]
    assert suite["benchmarks"]["query_serving"]["identical_to_scan"]


def test_query_serving_quick_workload_shape(suite):
    # The quick workload still exercises the whole read path: every
    # query in the mix must have succeeded (the probe raises on the
    # first failed response), latencies must be recorded, and the
    # incremental index must never have fallen back to a rebuild.
    entry = suite["benchmarks"]["query_serving"]
    assert entry["queries"] >= 20_000
    assert entry["p50_us"] <= entry["p99_us"]
    assert entry["index_rebuilds"] == 0
    assert entry["queries_per_sec"] > 0


def test_query_warm_start_probe_shape(suite):
    # The timing floor lives in benchmarks/; tier-1 only checks the
    # probe ran, replayed a real delta, and held warm/cold parity.
    entry = suite["benchmarks"]["query_serving"]
    assert entry["warm_start_delta_blocks"] > 0
    assert entry["warm_start_identical_to_cold"]
    assert entry["warm_start_seconds"] > 0
    assert entry["cold_rebuild_seconds"] > 0


def test_economics_batch_is_faster_than_scalar(suite):
    # The bench lane gates the 5x floor on an unloaded host; tier-1
    # only insists vectorization doesn't *lose* to the scalar loop.
    assert suite["benchmarks"]["economics_batch"]["speedup"] > 1.0


def test_quick_suite_renders(suite):
    rendered = to_table(suite).render()
    assert "economics batch" in rendered
    assert "nonce search" in rendered
    assert "ecdsa" in rendered


def test_check_gates_reports_every_failure():
    """A missed floor, a broken ceiling and a NaN are all reported; an
    unarmed parallel gate (1-core host) is not."""
    benchmarks = {
        "header_hash_cached": {"speedup_vs_cold": 50.0},
        "nonce_search": {"speedup": 2.0},
        "telemetry_overhead": {"disabled_ratio": 1.2},
        "economics_batch": {"speedup": math.nan},
        "ledger_validate": {"speedup": 60.0},
        "ecdsa": {"sign_speedup": 9.0, "verify_speedup": 2.6},
        "parallel_fig5b": {"speedup": 0.5, "speedup_gated": False},
        "fleet_scale": {"messages_ratio": 22.0},
        "query_serving": {"speedup": 140.0, "warm_start_speedup": 5.5},
        "fleet_shard": {"points": {}},
    }
    failures = check_gates({"benchmarks": benchmarks})
    assert len(failures) == 3, failures
    for name in ("nonce_search.speedup", "telemetry_overhead", "economics_batch"):
        assert any(failure.startswith(name) for failure in failures)


def test_check_gates_fails_missing_and_infinite_values():
    failures = check_gates({"benchmarks": {"nonce_search": {"speedup": math.inf}}})
    assert any(failure.startswith("nonce_search.speedup") for failure in failures)
    # A gate whose probe is absent fails instead of passing silently.
    assert any(failure.startswith("ecdsa.sign_speedup") for failure in failures)


@pytest.mark.parametrize("repeats", [0, -1])
def test_repeats_below_one_rejected(repeats, capsys):
    with pytest.raises(ValueError):
        run_suite(quick=True, repeats=repeats)
    with pytest.raises(SystemExit) as exited:
        main(["--quick", "--repeats", str(repeats), "--output", "unused.json"])
    assert exited.value.code == 2
    assert "at least 1" in capsys.readouterr().err
