"""ShardedSimulator: the canonical time-control surface and drive loop.

Everything here runs the serial ``jobs=1`` oracle — worker-process
behaviour is covered by the parity suite (``test_parity.py``), which
asserts it is bit-identical to what these tests pin down.
"""

import pytest

from repro.chain.block import Block, ChainRecord, RecordKind
from repro.crypto.hashing import hash_fields
from repro.network.config import NetworkConfig
from repro.shard import FleetSpec, ShardedSimulator
from repro.telemetry import Telemetry


def _spec(**overrides):
    base = dict(
        full_nodes=6,
        light_nodes=6,
        network=NetworkConfig.large_fleet(),
        shards=2,
    )
    base.update(overrides)
    return FleetSpec(**base)


class TestConstruction:
    def test_requires_a_fleet_spec(self):
        with pytest.raises(TypeError, match="FleetSpec"):
            ShardedSimulator({"provider-0": 1.0})

    def test_validates_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            ShardedSimulator(_spec(), jobs=0)

    def test_shares_must_match_the_spec(self):
        with pytest.raises(ValueError, match="full nodes"):
            ShardedSimulator(_spec(), shares={"alice": 1.0})

    def test_shares_name_the_full_nodes(self):
        shares = {"alice": 3.0, "bob": 2.0, "carol": 1.0}
        spec = FleetSpec(full_nodes=3, light_nodes=2)
        with ShardedSimulator(spec, shares) as fleet:
            assert list(fleet.replicas) == ["alice", "bob", "carol"]
            assert sorted(fleet.light_replicas) == ["light-0", "light-1"]
        with pytest.raises(ValueError, match="clash"):
            ShardedSimulator(
                FleetSpec(full_nodes=1, light_nodes=1), {"light-0": 1.0}
            )

    def test_byzantine_names_must_exist(self):
        with pytest.raises(ValueError, match="byzantine"):
            ShardedSimulator(_spec(), byzantine={"provider-99"})

    def test_jobs_are_capped_at_the_shard_count(self):
        with ShardedSimulator(_spec(), jobs=64) as fleet:
            assert fleet.jobs == 2

    def test_serial_mode_exposes_shard_states(self):
        with ShardedSimulator(_spec(), jobs=1) as fleet:
            states = fleet.shard_states
            assert states is not None and len(states) == 2
            owned = sorted(
                name
                for state in states.values()
                for name in (*state.replicas, *state.light_replicas)
            )
            assert owned == sorted(
                fleet.spec.full_names() + fleet.spec.light_names()
            )

    def test_single_loop_views_need_one_shard(self):
        with ShardedSimulator(_spec(), jobs=1) as fleet:
            assert len(fleet.replicas) == 6
            with pytest.raises(RuntimeError, match="2-shard"):
                fleet.simulator
        with ShardedSimulator(_spec(shards=1)) as fleet:
            assert fleet.simulator is fleet.shard_states[0].simulator
            assert fleet.network is fleet.shard_states[0].network


class TestTimeControl:
    def test_advance_until_moves_the_fleet_clock(self):
        with ShardedSimulator(_spec(), seed=3) as fleet:
            assert fleet.now == 0.0
            fleet.advance_until(1.0)
            assert fleet.now == 1.0
            # Every shard's own clock reached the barrier too.
            for state in fleet.shard_states.values():
                assert state.simulator.now == 1.0

    def test_advance_for_is_relative(self):
        with ShardedSimulator(_spec(), seed=3) as fleet:
            fleet.advance_until(2.0)
            fleet.advance_for(0.5)
            assert fleet.now == 2.5

    def test_advance_rejects_event_bounds(self):
        with ShardedSimulator(_spec(), seed=3) as fleet:
            with pytest.raises(ValueError, match="advance_until"):
                fleet.advance(max_events=5)

    def test_schedule_fires_at_the_exact_boundary(self):
        seen = []
        with ShardedSimulator(_spec(), seed=3) as fleet:
            fleet.schedule(0.6, lambda: seen.append(fleet.now))
            fleet.schedule_at(1.4, seen.append, "late")
            fleet.advance_until(1.0)
            assert seen == [0.6]
            fleet.advance_until(2.0)
            assert seen == [0.6, "late"]

    def test_cancelled_events_never_fire(self):
        seen = []
        with ShardedSimulator(_spec(), seed=3) as fleet:
            event = fleet.schedule(0.5, seen.append, "no")
            event.cancel()
            fleet.advance_until(1.0)
            assert seen == []

    def test_cannot_schedule_into_the_past(self):
        with ShardedSimulator(_spec(), seed=3) as fleet:
            fleet.advance_until(1.0)
            with pytest.raises(ValueError, match="past"):
                fleet.schedule_at(0.5, lambda: None)
            with pytest.raises(ValueError, match="past"):
                fleet.schedule(-0.1, lambda: None)


class TestMiningDrive:
    def test_blocks_mine_and_the_fleet_converges(self):
        with ShardedSimulator(_spec(), seed=11) as fleet:
            blocks = fleet.run_blocks(6)
            assert all(isinstance(block, Block) for block in blocks)
            assert fleet.blocks_mined == 6
            fleet.finalize()
            assert fleet.converged()
            assert fleet.light_converged()
            assert len(set(fleet.heads().values())) == 1

    def test_crashed_winner_mines_nothing(self):
        with ShardedSimulator(_spec(), seed=11) as fleet:
            for name in fleet.spec.full_names():
                fleet.crash(name)
            # Every sampled winner is down: time advances, no blocks.
            before = fleet.now
            assert fleet.run_blocks(3) == [None, None, None]
            assert fleet.blocks_mined == 0
            assert fleet.now > before

    def test_winner_crashed_through_the_network_keeps_the_mempool(self):
        # Crash state lives on the node alone, so a member crashed
        # behind the engine's back (the FaultInjector path) mines
        # nothing and the round's records wait for a live winner.
        records = [
            ChainRecord(
                kind=RecordKind.DETAILED_REPORT,
                record_id=hash_fields("queued", index),
                payload=b"report",
            )
            for index in range(12)
        ]
        with ShardedSimulator(FleetSpec(full_nodes=2), seed=4) as fleet:
            fleet.network.crash_node("provider-0")
            outcomes = []
            for record in records:
                fleet.submit_record(record)
                outcomes.append(fleet.step())
            assert None in outcomes  # the dead miner won some rounds
            while fleet.step() is None:
                pass
            chain = fleet.replicas["provider-1"].chain
            assert all(
                chain.locate_record(record.record_id) is not None
                for record in records
            )

    def test_crash_and_restart_round_trip(self):
        with ShardedSimulator(_spec(), seed=5) as fleet:
            fleet.run_blocks(3)
            fleet.crash("provider-1")
            fleet.run_blocks(3)
            fleet.restart("provider-1")
            fleet.run_blocks(1)
            fleet.finalize()
            assert fleet.converged()
            counters = fleet.replica_counters()
            assert counters["provider-1"]["crash_count"] == 1
            assert counters["provider-1"]["restart_count"] == 1

    def test_store_fault_requires_a_known_kind(self):
        with ShardedSimulator(_spec(), seed=5) as fleet:
            with pytest.raises(ValueError, match="unknown store fault"):
                fleet.inject_store_fault("provider-0", "set_on_fire")

    def test_export_canonical_round_trips(self):
        from repro.chain.serialization import import_chain

        with ShardedSimulator(_spec(), seed=11) as fleet:
            fleet.run_blocks(4)
            fleet.finalize()
            chain = import_chain(fleet.export_canonical())
            assert chain.height >= 1
            assert chain.head.block_id in set(fleet.heads().values())


class TestInspection:
    def test_summary_merges_shard_counters(self):
        with ShardedSimulator(_spec(), seed=11) as fleet:
            fleet.run_blocks(4)
            fleet.finalize()
            merged = fleet.summary()
            per_shard = fleet.shard_summaries()
            assert len(per_shard) == 2
            assert merged["messages_sent"] == sum(
                summary["messages_sent"] for summary in per_shard.values()
            )
            assert merged["time"] == max(
                summary["time"] for summary in per_shard.values()
            )

    def test_telemetry_merges_once(self):
        telemetry = Telemetry()
        with ShardedSimulator(_spec(), seed=11, telemetry=telemetry) as fleet:
            fleet.run_blocks(3)
            fleet.finalize()
        payload = telemetry.snapshot_payload()
        assert payload  # counters from both shards landed in one sink

    def test_close_is_idempotent(self):
        fleet = ShardedSimulator(_spec(), seed=2)
        fleet.run_blocks(1)
        fleet.close()
        fleet.close()
