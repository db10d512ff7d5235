"""One-shard fleets walk pinned trajectories, bit for bit.

A serial fleet (``spec.shards == 1``) is the engine every fork-race,
partition, store-recovery and light-client experiment runs on.  These
digests were recorded from the dedicated single-process fleet engine
this one replaced, so they pin that every trajectory survived the
merge: heads, confirmed chain bytes, light tips, gossip summary, blocks
mined, and per-replica counters, for

* the 8 full + 16 light inv-relay fleet over three seeds,
* the paper-share byzantine fleet through a partition and heal,
* a five-replica store-backed fleet through crash, disk fault and
  restart (the disk-gauntlet shape, with a record fed every round),
* an inv-mode light fleet with full and light crashes mid-run, some
  through the engine's chaos plane and some through its network.
"""

import hashlib
import random

import pytest

from repro.chain.block import ChainRecord, RecordKind
from repro.chain.pow import PAPER_HASHPOWER_SHARES
from repro.crypto.hashing import hash_fields
from repro.faults.injector import FaultInjector
from repro.faults.plan import ChaosPlan
from repro.network.config import NetworkConfig
from repro.network.latency import ConstantLatency
from repro.shard import FleetSpec, ShardedSimulator

SEEDS = (0, 1, 2)
DISK_FAULTS = ("torn_write", "bit_flip", "drop_snapshot")

ANCHOR = (
    "14a9642a61df99775033f9bd2aa0f60cf54c6005a6a231d699e03854b7e49829",
    "cf0836e87a35c8b6ff13ce5ba30567dbd257199d6e22d4f9c07a89dc43346e24",
    "2b65ae0c34e3b999ca6c6777420c6e7178176dae742dd1c1bb5dd6919e2336aa",
)
PARTITION = {
    (2, b"real finding"): "dc8df718897848e3fd361409c071a5b2c21cabfd30dfce9dba3dfe16ccadc72e",
    (3, b"forged"): "8abf617f56831c3f67081d30e7593f7d068829ef7c92652ffbe2ae8170c315a8",
}
STORED = (
    "761262316daea48868225e497f6f5e62ccd27b0cdf430d1fd6abbcae38d813bc",
    "4ea8c595f002c5e227c899bd2b83dde1ec404233d2305904e6272042d465314b",
    "dfeda802e19544af345ce568cea294e5977a3836159b47fca00e2c3ac4b58876",
)
LIGHT = (
    "a52aeb5bfd3bb9e9897bc673a8854b7573392d7586f99d9cae53158b5b9dc9d8",
    "1e7f9755cfae73f0e2dce95ca38feb54868b5ca2061b0b81d601487ba385b08d",
    "526a4ae001fc18d12c50ddf62af90c7c1d7649e7c27371322cb8da2374237c38",
)


def _digest(fleet: ShardedSimulator) -> str:
    views = (
        sorted(fleet.heads().items()),
        sorted(fleet.chain_bytes().items()),
        sorted(fleet.light_heads().items()),
        sorted(fleet.summary().items()),
        fleet.blocks_mined,
        sorted(
            (name, sorted(counters.items()))
            for name, counters in fleet.replica_counters().items()
        ),
    )
    return hashlib.sha256(repr(views).encode()).hexdigest()


def _record(tag: str, index: int, payload: bytes = b"report") -> ChainRecord:
    return ChainRecord(
        kind=RecordKind.DETAILED_REPORT,
        record_id=hash_fields(tag, index),
        payload=payload,
    )


def _record_check(record: ChainRecord) -> bool:
    return record.payload != b"forged"


@pytest.mark.parametrize("seed", SEEDS)
def test_inv_relay_light_fleet(seed):
    spec = FleetSpec(
        full_nodes=8, light_nodes=16, network=NetworkConfig.large_fleet()
    )
    with ShardedSimulator(spec, seed=seed) as fleet:
        fleet.run_blocks(6)
        fleet.finalize()
        assert _digest(fleet) == ANCHOR[seed]


@pytest.mark.parametrize("seed,payload", sorted(PARTITION))
def test_byzantine_partition_and_heal(seed, payload):
    with ShardedSimulator(
        FleetSpec(full_nodes=len(PAPER_HASHPOWER_SHARES)),
        PAPER_HASHPOWER_SHARES,
        record_check=_record_check,
        byzantine={"provider-5"},
        latency=ConstantLatency(0.1),
        seed=seed,
    ) as fleet:
        record = _record("partition", seed, payload)
        if payload == b"forged":
            fleet.inject_byzantine_record("provider-5", record)
        else:
            fleet.submit_record(record)
        fleet.run_blocks(10)
        fleet.settle()
        fleet.network.partition(
            {"provider-1", "provider-4"}, {"provider-2", "provider-3", "provider-5"}
        )
        fleet.run_blocks(30)
        fleet.settle()
        fleet.network.heal_all()
        for _ in range(30):
            fleet.settle()
            if fleet.converged(among=fleet.honest_names()):
                break
            fleet.run_blocks(3)
        fleet.settle()
        assert _digest(fleet) == PARTITION[(seed, payload)]


@pytest.mark.parametrize("seed", SEEDS)
def test_store_backed_crash_fault_restart(seed, tmp_path):
    shares = {f"provider-{i}": 0.2 for i in range(1, 6)}
    spec = FleetSpec(
        full_nodes=5, store_dir=str(tmp_path), store_snapshot_interval=4
    )
    with ShardedSimulator(spec, shares, mean_block_time=5.0, seed=seed) as fleet:
        victim = sorted(shares)[seed % 5]
        plan = ChaosPlan().crash(victim, at=150.0)
        getattr(plan, DISK_FAULTS[seed])(victim, at=170.0)
        plan.restart(victim, at=230.0)
        FaultInjector(
            fleet.simulator, fleet.network, plan, rng=random.Random(seed + 11)
        ).arm()
        rounds = 0
        while fleet.now < 420.0:
            fleet.submit_record(_record("stored", rounds))
            rounds += 1
            fleet.step()
        fleet.finalize()
        assert _digest(fleet) == STORED[seed]


@pytest.mark.parametrize("seed", SEEDS)
def test_inv_mode_light_fleet_through_crashes(seed):
    spec = FleetSpec(
        full_nodes=6,
        light_nodes=24,
        network=NetworkConfig(
            topology="ring_random", degree=4, fanout=3, mode="inv"
        ),
    )
    with ShardedSimulator(spec, seed=seed) as fleet:
        for index in range(3):
            fleet.submit_record(_record("light", index))
        fleet.run_blocks(4)
        fleet.crash("provider-2")
        fleet.network.crash_node("light-3")
        fleet.network.crash_node("provider-4")
        for index in range(3, 9):
            fleet.submit_record(_record("light", index))
            fleet.step()
        fleet.restart("provider-2")
        fleet.network.restart_node("light-3")
        fleet.network.restart_node("provider-4")
        fleet.run_blocks(4)
        fleet.finalize()
        assert _digest(fleet) == LIGHT[seed]
