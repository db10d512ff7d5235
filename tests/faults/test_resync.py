"""Chain resync after crashes, gaps, and reorg record resubmission."""

import random

import pytest

from repro.chain.block import Block, ChainRecord, RecordKind
from repro.chain.chain import Blockchain
from repro.chain.consensus import make_genesis
from repro.chain.pow import PAPER_HASHPOWER_SHARES
from repro.core.distributed import ReplicaNode
from repro.crypto.hashing import hash_fields
from repro.crypto.keys import KeyPair
from repro.network.latency import ConstantLatency
from repro.shard import FleetSpec, ShardedSimulator

MINER = KeyPair.from_seed(b"resync-miner").address


def _record(tag: str) -> ChainRecord:
    return ChainRecord(
        kind=RecordKind.TRANSACTION,
        record_id=hash_fields("resync", tag),
        payload=tag.encode(),
    )


def _net(seed=0, **kwargs):
    return ShardedSimulator(
        FleetSpec(full_nodes=len(PAPER_HASHPOWER_SHARES)),
        PAPER_HASHPOWER_SHARES,
        latency=ConstantLatency(0.05),
        seed=seed,
        **kwargs,
    )


def _converge(net, rounds=30):
    for _ in range(rounds):
        net.settle()
        if net.converged():
            return True
        net.run_blocks(3)
    net.settle()
    return net.converged()


class TestCrashRestartResync:
    def test_crashed_replica_resyncs_on_restart(self):
        net = _net(seed=11)
        net.run_blocks(5)
        net.settle()

        net.crash("provider-4")
        net.run_blocks(15)
        net.settle()
        behind = net.replicas["provider-4"]
        ahead = net.replicas["provider-1"]
        assert behind.chain.height < ahead.chain.height

        net.restart("provider-4")
        assert behind.resyncs_performed >= 1
        assert behind.blocks_resynced > 0
        assert _converge(net)

    def test_crashed_winner_mines_nothing(self):
        net = _net(seed=12)
        net.crash("provider-1")
        results = net.run_blocks(20)
        assert None in results  # provider-1 holds 26% of the hashpower
        mined = [block for block in results if block is not None]
        assert all(
            block.header.miner != net.replicas["provider-1"].address
            for block in mined
        )

    def test_restart_without_peers_is_safe(self):
        replica = ReplicaNode("lonely", make_genesis(difficulty=1))
        replica.crash()
        replica.restart()  # no network attached: must not raise
        assert replica.resyncs_performed == 0

    def test_gap_triggers_resync_without_restart(self):
        # An isolated (not crashed) replica misses announcements for
        # good; the first far-ahead block must trigger a catch-up pull
        # rather than strand it behind an orphan gap forever.
        net = _net(seed=13)
        net.run_blocks(3)
        net.settle()

        others = [name for name in net.replicas if name != "provider-5"]
        net.network.partition(["provider-5"], others)
        net.run_blocks(12)
        net.settle()

        net.network.heal_all()
        assert _converge(net)
        assert net.replicas["provider-5"].resyncs_performed >= 1


class TestOrphanedRecords:
    def _extend(self, chain: Blockchain, parent: Block, records=(), bump=1.0):
        block = Block.assemble(
            prev_block_id=parent.block_id,
            height=parent.height + 1,
            records=tuple(records),
            timestamp=parent.header.timestamp + bump,
            difficulty=chain.head.header.difficulty,
            miner=MINER,
        )
        chain.add_block(block)
        return block

    def test_orphaned_records_walks_abandoned_branch(self):
        genesis = make_genesis(difficulty=1)
        chain = Blockchain(genesis, confirmation_depth=2)
        record = _record("stranded")
        a1 = self._extend(chain, genesis, records=[record])
        assert chain.head.block_id == a1.block_id

        b1 = self._extend(chain, genesis, bump=2.0)
        b2 = self._extend(chain, b1, bump=3.0)
        assert chain.head.block_id == b2.block_id  # reorged to branch B

        stranded = chain.orphaned_records(a1.block_id)
        assert [r.record_id for r in stranded] == [record.record_id]

    def test_replica_resubmission_hook_fires_on_reorg(self):
        genesis = make_genesis(difficulty=1)

        class Capturing(ReplicaNode):
            def __init__(self):
                super().__init__("cap", genesis)
                self.orphaned = []

            def _on_records_orphaned(self, records):
                self.orphaned.extend(records)

        replica = Capturing()
        record = _record("reorged-away")

        def block(parent, records=(), bump=1.0):
            return Block.assemble(
                prev_block_id=parent.block_id,
                height=parent.height + 1,
                records=tuple(records),
                timestamp=parent.header.timestamp + bump,
                difficulty=genesis.header.difficulty,
                miner=MINER,
            )

        a1 = block(genesis, records=[record])
        replica.receive_block(a1)
        b1 = block(genesis, bump=2.0)
        b2 = block(b1, bump=3.0)
        replica.receive_block(b1)
        replica.receive_block(b2)

        assert [r.record_id for r in replica.orphaned] == [record.record_id]
        assert replica.chain.head.block_id == b2.block_id
