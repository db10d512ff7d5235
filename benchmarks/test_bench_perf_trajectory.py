"""The perf-trajectory lane: the acceptance gates of the substrate suite.

Marked ``bench`` and living outside tier-1 (``testpaths`` only collects
``tests/``): run via ``pytest benchmarks -q -m bench`` or, with the
JSON baseline written, ``scripts/run_bench.sh``.
"""

import json

import pytest

from repro.experiments.bench_substrate import run_suite, to_table

pytestmark = pytest.mark.bench


@pytest.fixture(scope="module")
def suite():
    return run_suite(quick=True, repeats=3)


def test_nonce_search_speedup_floor(suite):
    """Midstate mining must hold a >=3x speedup over the naive loop."""
    nonce = suite["benchmarks"]["nonce_search"]
    assert nonce["same_nonce_as_naive"]
    assert nonce["speedup"] >= 3.0


def test_economics_batch_speedup_floor(suite):
    """Vectorized Eq. 7/10 settlement must hold >=5x over the scalar loop."""
    econ = suite["benchmarks"]["economics_batch"]
    assert econ["identical_to_scalar"]
    assert econ["speedup"] >= 5.0


def test_query_serving_speedup_floor(suite):
    """Indexed reads must hold >=5x over the pinned full-chain scan.

    The ratio is algorithmic — O(1) dict lookups vs an O(chain) walk —
    so it is safe to gate even on a loaded single-core host.
    """
    query = suite["benchmarks"]["query_serving"]
    assert query["identical_to_scan"]
    assert query["speedup"] >= 5.0


def test_query_warm_start_speedup_floor(suite):
    """A warm start (persisted load + delta replay) must hold >=5x over
    the cold from-genesis rebuild, with parity asserted before timing."""
    query = suite["benchmarks"]["query_serving"]
    assert query["warm_start_identical_to_cold"]
    assert query["warm_start_delta_blocks"] > 0
    assert query["warm_start_speedup"] >= 5.0


def test_parallel_runner_identical(suite):
    """The jobs>1 fig5b probe must be bit-identical to serial."""
    assert suite["benchmarks"]["parallel_fig5b"]["identical_to_serial"]


def test_parallel_probes_record_speedup_gate(suite):
    """Parallel probes must say whether their ratio is gateable here."""
    import os

    expected = (os.cpu_count() or 1) > 1
    assert suite["benchmarks"]["parallel_fig5b"]["speedup_gated"] is expected
    assert suite["benchmarks"]["runner_scaling"]["speedup_gated"] is expected
    assert suite["benchmarks"]["fleet_shard"]["speedup_gated"] is expected


def test_sharded_fleet_parity_gates(suite):
    """The sharded probe's parity gate, jobs=N vs the serial oracle,
    is asserted before any timing, on every host."""
    shard = suite["benchmarks"]["fleet_shard"]
    assert shard["identical_to_serial"]
    assert shard["points"]  # the scale lane actually ran


def test_suite_is_json_serializable_and_renders(suite, tmp_path):
    path = tmp_path / "BENCH_substrate.json"
    path.write_text(json.dumps(suite, indent=2, sort_keys=True))
    reloaded = json.loads(path.read_text())
    assert reloaded["suite"] == "substrate"
    expected = {
        "header_hash_cold",
        "header_hash_cached",
        "nonce_search",
        "merkle_build_256",
        "gossip_round",
        "mini_experiment",
    }
    assert expected <= set(reloaded["benchmarks"])
    rendered = to_table(suite).render()
    assert "nonce search" in rendered


def test_cached_header_hash_is_faster(suite):
    cached = suite["benchmarks"]["header_hash_cached"]
    assert cached["speedup_vs_cold"] > 5.0
