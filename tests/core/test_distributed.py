"""Tests for distributed chain replication (§V-C fault tolerance)."""

import pytest

from repro.chain.block import ChainRecord, RecordKind
from repro.chain.pow import PAPER_HASHPOWER_SHARES
from repro.crypto.hashing import hash_fields
from repro.network.config import NetworkConfig
from repro.network.latency import ConstantLatency
from repro.shard import FleetSpec, ShardedSimulator


def _fleet(shares, topology: str = "complete", **kwargs) -> ShardedSimulator:
    """A serial fleet whose full nodes are named by ``shares``."""
    spec = FleetSpec(
        full_nodes=len(shares), network=NetworkConfig(topology=topology)
    )
    return ShardedSimulator(spec, shares, **kwargs)


def _record(tag: str, payload: bytes = b"ok") -> ChainRecord:
    return ChainRecord(
        kind=RecordKind.DETAILED_REPORT,
        record_id=hash_fields("dist", tag),
        payload=payload,
    )


def _forged(tag: str) -> ChainRecord:
    return _record(tag, payload=b"forged")


def _check(record: ChainRecord) -> bool:
    """Semantic check standing in for Algorithm 1 + AutoVerif."""
    return record.payload != b"forged"


class TestConvergence:
    def test_replicas_converge_after_mining(self):
        net = _fleet(PAPER_HASHPOWER_SHARES, seed=1)
        net.run_blocks(20)
        net.settle()
        assert net.converged()
        heights = {r.chain.height for r in net.replicas.values()}
        assert heights == {20}

    def test_honest_records_replicate_everywhere(self):
        net = _fleet(PAPER_HASHPOWER_SHARES, record_check=_check, seed=2)
        record = _record("everyone")
        net.submit_record(record)
        net.run_blocks(10)
        net.settle()
        for replica in net.replicas.values():
            assert replica.chain.locate_record(record.record_id) is not None

    @staticmethod
    def _mine_to_convergence(net, max_extra: int = 30) -> None:
        """Mine until any end-of-run total-difficulty tie is broken."""
        for _ in range(max_extra):
            net.settle()
            if net.converged():
                return
            net.run_blocks(1)
        net.settle()

    def test_out_of_order_blocks_buffered(self):
        # High-latency ring forces frequent out-of-order delivery; the
        # orphan buffer must still converge all replicas.
        net = _fleet(
            PAPER_HASHPOWER_SHARES,
            topology="ring",
            latency=ConstantLatency(2.0),
            seed=3,
        )
        net.run_blocks(30)
        self._mine_to_convergence(net)
        assert net.converged()

    def test_fork_resolved_by_heaviest_chain(self):
        # Very high latency vs block time creates real forks; after the
        # dust settles, everyone agrees on one head.
        net = _fleet(
            PAPER_HASHPOWER_SHARES,
            mean_block_time=1.0,
            latency=ConstantLatency(0.8),
            seed=4,
        )
        net.run_blocks(40)
        self._mine_to_convergence(net)
        assert net.converged()


class TestByzantine:
    def test_forged_record_rejected_by_honest_majority(self):
        net = _fleet(
            PAPER_HASHPOWER_SHARES,
            record_check=_check,
            byzantine={"provider-5"},  # 10.1% hashpower
            seed=5,
        )
        forged = _forged("evil")
        net.inject_byzantine_record("provider-5", forged)
        net.run_blocks(50)
        net.settle()
        assert not net.record_on_honest_chains(forged.record_id)
        # Honest replicas still converge among themselves.
        assert net.converged(among=net.honest_names())

    def test_honest_replicas_reject_invalid_blocks(self):
        net = _fleet(
            PAPER_HASHPOWER_SHARES,
            record_check=_check,
            byzantine={"provider-5"},
            seed=6,
        )
        net.inject_byzantine_record("provider-5", _forged("evil2"))
        net.run_blocks(50)
        net.settle()
        rejections = sum(
            net.replicas[name].blocks_rejected for name in net.honest_names()
        )
        assert rejections > 0

    def test_byzantine_majority_would_win(self):
        # The flip side (51% attack): give the colluder the majority
        # and its forged record DOES reach the byzantine chain head,
        # out-mining the honest minority.
        shares = {"honest": 0.2, "colluder": 0.8}
        net = _fleet(
            shares, record_check=_check, byzantine={"colluder"}, seed=7
        )
        forged = _forged("evil3")
        net.inject_byzantine_record("colluder", forged)
        net.run_blocks(60)
        net.settle()
        colluder_chain = net.replicas["colluder"].chain
        honest_chain = net.replicas["honest"].chain
        assert colluder_chain.locate_record(forged.record_id) is not None
        assert colluder_chain.height > honest_chain.height or (
            honest_chain.locate_record(forged.record_id) is None
        )

    def test_inject_requires_byzantine_miner(self):
        net = _fleet(PAPER_HASHPOWER_SHARES, seed=8)
        with pytest.raises(ValueError):
            net.inject_byzantine_record("provider-1", _forged("x"))
