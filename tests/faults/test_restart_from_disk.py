"""Restart-from-disk vs peer-resync equivalence (persistence is inert).

Persistence draws no randomness and schedules no simulator events, so
a fleet with durable stores must walk the exact same trajectory as one
without.  Every test here runs the identical seeded crash/restart
scenario twice — store-backed and store-less — and compares the
outcomes bit for bit: canonical chain bytes, ledger state, mempool
revalidation, light-client header tips.
"""

import random

import pytest

from repro.chain.block import ChainRecord, RecordKind
from repro.chain.ledger import LedgerStateMachine
from repro.chain.pow import PAPER_HASHPOWER_SHARES
from repro.core.stakeholders import DecentralizedDeployment
from repro.crypto.hashing import hash_fields
from repro.detection import build_detector_fleet, build_system
from repro.faults import confirmed_chain_bytes
from repro.network.latency import ConstantLatency
from repro.shard import FleetSpec, ShardedSimulator

SEEDS = (0, 1, 2)
VICTIM = "provider-3"


def _record(tag: str) -> ChainRecord:
    return ChainRecord(
        kind=RecordKind.INITIAL_REPORT,
        record_id=hash_fields("restart-from-disk", tag),
        payload=tag.encode(),
    )


def _run_fleet(stack, seed, store_dir, light_count=0):
    """One deterministic crash/corruptionless-restart scenario."""
    spec = FleetSpec(
        full_nodes=len(PAPER_HASHPOWER_SHARES),
        light_nodes=light_count,
        store_dir=store_dir,
        store_snapshot_interval=4,
    )
    fleet = stack.enter_context(
        ShardedSimulator(
            spec,
            PAPER_HASHPOWER_SHARES,
            latency=ConstantLatency(0.05),
            seed=seed,
            confirmation_depth=4,
        )
    )
    for index in range(3):
        fleet.submit_record(_record(f"pre-{seed}-{index}"))
    fleet.run_blocks(5)
    fleet.settle()
    fleet.crash(VICTIM)
    if light_count:
        fleet.network.crash_node("light-0")
    for index in range(3):
        fleet.submit_record(_record(f"mid-{seed}-{index}"))
    fleet.run_blocks(12)
    fleet.settle()
    fleet.restart(VICTIM)
    if light_count:
        fleet.network.restart_node("light-0")
    fleet.run_blocks(4)
    fleet.finalize()
    return fleet


class TestFullNodeEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_store_backed_fleet_matches_storeless_bit_for_bit(
        self, seed, tmp_path, exit_stack
    ):
        durable = _run_fleet(exit_stack, seed, store_dir=str(tmp_path / "stores"))
        volatile = _run_fleet(exit_stack, seed, store_dir=None)

        assert durable.blocks_mined == volatile.blocks_mined
        assert durable.heads() == volatile.heads()
        victim = durable.replicas[VICTIM]
        assert victim.store_recoveries == 1  # recovered from disk, then
        assert victim.resyncs_performed >= 1  # pulled only the suffix
        for name in durable.replicas:
            assert confirmed_chain_bytes(
                durable.replicas[name].chain
            ) == confirmed_chain_bytes(volatile.replicas[name].chain)

        # Ledger state: replay both victims from genesis — and the
        # durable one additionally from its own store.
        state_d, nonces_d = LedgerStateMachine().replay(victim.chain)
        state_v, nonces_v = LedgerStateMachine().replay(
            volatile.replicas[VICTIM].chain
        )
        assert state_d.snapshot() == state_v.snapshot()
        assert nonces_d == nonces_v
        replay = victim.store.replay_ledger()
        assert replay.state.snapshot() == state_v.snapshot()
        assert replay.nonces == nonces_v

    def test_restart_resyncs_only_the_missing_suffix(self, tmp_path, exit_stack):
        durable = _run_fleet(exit_stack, 0, store_dir=str(tmp_path / "stores"))
        victim = durable.replicas[VICTIM]
        # The store held everything up to the crash; the peer resync
        # must not have re-fetched the whole chain from genesis.
        assert 0 < victim.blocks_resynced < durable.blocks_mined


class TestLightReplicaEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_header_store_matches_storeless_light_client(
        self, seed, tmp_path, exit_stack
    ):
        durable = _run_fleet(
            exit_stack, seed, store_dir=str(tmp_path / "stores"), light_count=2
        )
        volatile = _run_fleet(exit_stack, seed, store_dir=None, light_count=2)

        assert durable.light_heads() == volatile.light_heads()
        crashed_light = durable.light_replicas["light-0"]
        assert crashed_light.store_recoveries == 1
        for name, light in durable.light_replicas.items():
            other = volatile.light_replicas[name]
            assert len(light.headers) == len(other.headers)
            # The durable log mirrors the in-memory header chain exactly.
            assert len(light.store) == len(light.headers)
            assert light.store.tip_id() == light.tip_id()


class TestDeploymentMempoolEquivalence:
    def _run_deployment(self, stack, seed, store_dir):
        deployment = DecentralizedDeployment(
            PAPER_HASHPOWER_SHARES,
            build_detector_fleet(thread_counts=(5, 8), seed=seed),
            latency=ConstantLatency(0.05),
            seed=seed,
            confirmation_depth=4,
            spec=FleetSpec(
                full_nodes=len(PAPER_HASHPOWER_SHARES),
                store_dir=store_dir,
                store_snapshot_interval=4,
            ),
        )
        for provider in deployment.providers.values():
            if provider.store is not None:
                stack.callback(provider.store.close)
        system = build_system(
            "disk-sys", vulnerability_count=3, rng=random.Random(seed + 1)
        )
        deployment.announce("provider-1", system)
        deployment.advance_for(90.0)
        deployment.crash(VICTIM)
        deployment.advance_for(180.0)
        deployment.restart(VICTIM)
        deployment.advance_for(180.0)
        return deployment

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mempool_revalidation_matches(self, seed, tmp_path, exit_stack):
        durable = self._run_deployment(exit_stack, seed, str(tmp_path / "stores"))
        volatile = self._run_deployment(exit_stack, seed, None)

        for name in durable.providers:
            ours = durable.providers[name]
            theirs = volatile.providers[name]
            assert ours.head_id() == theirs.head_id()
            assert ours.mempool.pending_ids() == theirs.mempool.pending_ids()
            assert (
                ours.mempool_records_revalidated
                == theirs.mempool_records_revalidated
            )
        victim = durable.providers[VICTIM]
        assert victim.store_recoveries == 1
        assert confirmed_chain_bytes(victim.chain) == confirmed_chain_bytes(
            volatile.providers[VICTIM].chain
        )
