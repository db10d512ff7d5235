"""Query serving under chaos: index loss, restarts, mid-outage batches.

The ``drop_index`` disk fault models losing the persisted serving
index while a node is down.  The block log survives, so the node
itself recovers — but the query service must notice the missing
sidecar and fall back to a cold from-genesis index build instead of a
warm start.  A deferred batch whose node crashed before fire time must
deliver per-request failures, never poison the simulator.
"""

from __future__ import annotations

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import DISK_FAULTS, ChaosPlan, FaultKind
from repro.query import QueryRequest
from repro.shard import FleetSpec, ShardedSimulator
from repro.store import INDEX_FILE_NAME
from repro.store.fsck import fsck


class TestDropIndexPlan:
    def test_drop_index_is_a_disk_fault(self):
        assert FaultKind.DROP_INDEX in DISK_FAULTS

    def test_builder_emits_event(self):
        plan = (
            ChaosPlan()
            .crash("n1", at=10.0)
            .drop_index("n1", at=20.0)
            .restart("n1", at=30.0)
        )
        kinds = [e.kind for e in plan.sort().events]
        assert kinds == [
            FaultKind.CRASH,
            FaultKind.DROP_INDEX,
            FaultKind.RESTART,
        ]
        assert plan.validate() is plan

    def test_drop_index_against_live_node_is_rejected(self):
        plan = ChaosPlan().drop_index("n1", at=20.0)
        with pytest.raises(ValueError, match="requires the node to be down"):
            plan.validate()

    def test_drop_index_after_restart_is_rejected(self):
        plan = (
            ChaosPlan()
            .crash("n1", at=10.0)
            .restart("n1", at=20.0)
            .drop_index("n1", at=25.0)
        )
        with pytest.raises(ValueError, match="requires the node to be down"):
            plan.validate()


@pytest.fixture
def store_fleet(tmp_path, exit_stack):
    """Builds a mined, converged two-replica store-backed fleet."""

    def build(seed, blocks=10):
        spec = FleetSpec(full_nodes=2, store_dir=str(tmp_path / f"fleet-{seed}"))
        fleet = exit_stack.enter_context(
            ShardedSimulator(spec, {"a": 0.5, "b": 0.5}, seed=seed)
        )
        fleet.run_blocks(blocks)
        fleet.finalize()
        return fleet

    return build


class TestDropIndexInjection:
    def test_restart_without_the_fault_warm_starts(self, store_fleet):
        fleet = store_fleet(seed=23)
        svc = fleet.query_service("a")
        assert svc.cold_starts == 1  # construction built from genesis
        svc.persist_index()
        now = fleet.now
        plan = ChaosPlan().crash_for("a", at=now + 10.0, downtime=20.0)
        FaultInjector(fleet.simulator, fleet.network, plan).arm()
        fleet.advance_until(now + 40.0)
        assert fleet.replicas["a"].alive
        assert svc.warm_starts == 1 and svc.cold_starts == 1
        assert svc.serve(QueryRequest.head()).ok

    def test_dropped_index_forces_a_cold_rebuild(self, store_fleet):
        fleet = store_fleet(seed=29)
        svc = fleet.query_service("a")
        svc.persist_index()
        store = fleet.replicas["a"].store
        assert (store.path / INDEX_FILE_NAME).exists()
        now = fleet.now
        plan = (
            ChaosPlan()
            .crash("a", at=now + 10.0)
            .drop_index("a", at=now + 20.0)
            .restart("a", at=now + 30.0)
        )
        injector = FaultInjector(fleet.simulator, fleet.network, plan)
        injector.arm()
        fleet.advance_until(now + 40.0)
        assert injector.faults_applied == 3
        assert not (store.path / INDEX_FILE_NAME).exists()
        # The node itself healed from its intact block log...
        assert fleet.replicas["a"].alive
        assert fsck(store.path).ok
        # ...but the service had nothing to warm-start from.
        assert svc.warm_starts == 0 and svc.cold_starts == 2
        head = svc.serve(QueryRequest.head())
        assert head.ok
        assert head.result["number"] == fleet.replicas["a"].chain.head.height

    def test_reports_identical_after_cold_fallback(self, store_fleet):
        fleet = store_fleet(seed=31)
        svc = fleet.query_service("a")
        before = svc.serve(QueryRequest.get_reports(limit=1024)).result["rows"]
        svc.persist_index()
        now = fleet.now
        plan = (
            ChaosPlan()
            .crash("a", at=now + 5.0)
            .drop_index("a", at=now + 10.0)
            .restart("a", at=now + 15.0)
        )
        FaultInjector(fleet.simulator, fleet.network, plan).arm()
        fleet.advance_until(now + 20.0)
        after = svc.serve(QueryRequest.get_reports(limit=1024)).result["rows"]
        assert after == before


class TestDeferredBatchMidOutage:
    def test_batch_fired_against_crashed_node_fails_cleanly(self, store_fleet):
        fleet = store_fleet(seed=37)
        svc = fleet.query_service("a")
        batch = svc.submit_batch(
            [QueryRequest.head(), QueryRequest.get_block(0)], delay=5.0
        )
        fleet.crash("a")
        assert not batch.done
        fleet.advance()
        assert batch.done
        assert [r.ok for r in batch.responses] == [False, False]
        for response in batch.responses:
            assert "down" in response.error
        # The failure is contained: the simulator keeps scheduling and
        # a restarted node serves again.
        fleet.restart("a")
        fleet.finalize()
        assert svc.serve(QueryRequest.head()).ok
