"""Partition-heal convergence for the replicated-consensus scenario.

Runs the same setup as ``examples/distributed_consensus.py`` — five
provider replicas with a semantic record check and a byzantine
minority miner — under a two-way partition, heals it, and asserts the
honest replicas converge back to a single canonical tip (deterministic
seed)."""

from repro.chain.block import ChainRecord, RecordKind
from repro.chain.pow import PAPER_HASHPOWER_SHARES
from repro.crypto.hashing import hash_fields
from repro.network.latency import ConstantLatency
from repro.shard import FleetSpec, ShardedSimulator


def _record_check(record: ChainRecord) -> bool:
    """Stand-in for Algorithm 1 + AutoVerif at block validation."""
    return record.payload != b"forged"


def _scenario(seed: int = 2) -> ShardedSimulator:
    return ShardedSimulator(
        FleetSpec(full_nodes=len(PAPER_HASHPOWER_SHARES)),
        PAPER_HASHPOWER_SHARES,
        record_check=_record_check,
        byzantine={"provider-5"},
        latency=ConstantLatency(0.1),
        seed=seed,
    )


class TestPartitionHealConvergence:
    def test_two_way_partition_heals_to_single_tip(self):
        net = _scenario(seed=2)
        honest_report = ChainRecord(
            kind=RecordKind.DETAILED_REPORT,
            record_id=hash_fields("heal-honest-report"),
            payload=b"real finding",
        )
        net.submit_record(honest_report)
        net.run_blocks(10)
        net.settle()

        # Two-way split with hashpower on both sides; both keep mining.
        side_a = {"provider-1", "provider-4"}
        side_b = {"provider-2", "provider-3", "provider-5"}
        net.network.partition(side_a, side_b)
        net.run_blocks(30)
        net.settle()
        heads = net.heads()
        assert any(
            heads[a] != heads[b] for a in side_a for b in side_b
        ), "partition should have forked the replica views"

        net.network.heal_all()
        # Bounded convergence loop: mine until the heavier branch wins
        # everywhere (a difficulty tie can persist briefly).
        for _ in range(30):
            net.settle()
            if net.converged(among=net.honest_names()):
                break
            net.run_blocks(3)
        net.settle()
        assert net.converged(among=net.honest_names())

        # The honest record survived the partition on the final chain.
        assert net.record_on_honest_chains(honest_report.record_id)

    def test_forged_record_stays_off_honest_chains_through_heal(self):
        net = _scenario(seed=3)
        forged = ChainRecord(
            kind=RecordKind.DETAILED_REPORT,
            record_id=hash_fields("heal-forged-report"),
            payload=b"forged",
        )
        net.inject_byzantine_record("provider-5", forged)
        net.run_blocks(10)
        net.settle()

        net.network.partition({"provider-1", "provider-2"},
                              {"provider-3", "provider-4", "provider-5"})
        net.run_blocks(30)
        net.settle()
        net.network.heal_all()
        for _ in range(30):
            net.settle()
            if net.converged(among=net.honest_names()):
                break
            net.run_blocks(3)
        net.settle()

        assert net.converged(among=net.honest_names())
        assert not net.record_on_honest_chains(forged.record_id)
