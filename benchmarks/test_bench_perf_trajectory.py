"""The perf-trajectory lane: the substrate suite's gates as pytest cases.

One case per entry of ``benchmarks.substrate.GATES`` — the same list
``scripts/run_bench.sh`` checks — so the two entry points cannot drift
apart.  Marked ``bench`` and living outside tier-1 (``testpaths`` only
collects ``tests/``): run ``PYTHONPATH=src python -m pytest -q
benchmarks -m bench`` from the repository root.
"""

import json
import os

import pytest

from benchmarks.substrate import GATES, run_suite, to_table

pytestmark = pytest.mark.bench


@pytest.fixture(scope="module")
def suite():
    return run_suite(quick=True, repeats=3)


@pytest.mark.parametrize("gate", GATES, ids=lambda gate: gate.name)
def test_gate(suite, gate):
    failure = gate.failure(suite["benchmarks"])
    assert failure is None, failure


def test_parallel_probes_record_speedup_gate(suite):
    """Parallel probes must say whether their ratio is gateable here."""
    expected = (os.cpu_count() or 1) > 1
    for probe in ("parallel_fig5b", "runner_scaling", "fleet_shard"):
        assert suite["benchmarks"][probe]["speedup_gated"] is expected
        assert suite["benchmarks"][probe]["identical_to_serial"]


def test_suite_is_json_serializable_and_renders(suite, tmp_path):
    path = tmp_path / "BENCH_substrate.json"
    path.write_text(json.dumps(suite, indent=2, sort_keys=True, allow_nan=False))
    assert json.loads(path.read_text())["suite"] == "substrate"
    assert "nonce search" in to_table(suite).render()
