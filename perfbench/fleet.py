"""``fleet_10k``: a 10,000-node sharded fleet mining blocks back to back.

``ShardedSimulator`` over 200 full and 9,800 light nodes in 4 shards with
``NetworkConfig.large_fleet()`` (ring+random overlay, inv/getdata relay)
and ``DEFAULT_LATENCY`` on every link.  Each block carries a seeded batch
of records; blocks are mined back to back (a closed loop), then the fleet
is finalized.  The timed window ends there.  Records missing from the
canonical chain at that point, and a fleet left split, count as failed;
afterwards the records are resubmitted and more blocks mined, so that the
final state can be checked.

The nodes keep their chains in memory: with a store every one of the
10,000 nodes gets its own directory, and creating and deleting 10,000
directories per set-up took from 0.4 s to 180 s on a shared 2-core host
(ext4), which swamps the fleet's own cost.  The store layer is
measured on ``lifecycle``.

``--seed`` makes the record batches.  The fleet's topology, mining and
link-delay draws use a fixed seed: with a seeded topology the block
intervals, and with them the work of a run, varied by about 25%.
Untraced runs use one worker process per core (up to one per shard);
traced runs, and the untraced pass they are compared with, use the serial
executor so that shard spans run in this process (the engine guarantees
identical results either way).
"""

from __future__ import annotations

import hashlib
import os
import random
from time import perf_counter

from common import Measured

FULL_NODES = 200
LIGHT_NODES = 9800
SHARDS = 4
RECORDS_PER_BLOCK = 8
#: Blocks per second of a pass's time (about 1 block/s on 2 cores).
BLOCKS_PER_SECOND = 1.0
#: Seed of the fleet's topology, mining and link-delay draws.
FLEET_SEED = 0
#: Bound on the blocks mined after the batches to settle forks.
MAX_EXTRA_BLOCKS = 8


class Fleet10k:
    name = "fleet_10k"
    setup_repeats = 5
    repetitions = 5

    def __init__(self, seed: int, seconds: float, workdir, trace: bool) -> None:
        self.seed = seed
        self.blocks = max(2, round(seconds * BLOCKS_PER_SECOND))
        self.jobs = 1 if trace else min(SHARDS, os.cpu_count() or 1)

    def setup(self):
        from repro.chain.block import ChainRecord, RecordKind
        from repro.crypto.hashing import hash_fields
        from repro.crypto.keys import Address
        from repro.network.config import NetworkConfig
        from repro.shard import FleetSpec, ShardedSimulator

        rng = random.Random(self.seed)
        senders = [Address(bytes([index + 1]) * 20) for index in range(16)]
        batches = [
            [
                ChainRecord(
                    kind=RecordKind.TRANSACTION,
                    record_id=hash_fields("perfbench-fleet", self.seed, block, index),
                    payload=rng.randbytes(64),
                    sender=rng.choice(senders),
                )
                for index in range(RECORDS_PER_BLOCK)
            ]
            for block in range(self.blocks)
        ]
        spec = FleetSpec(
            full_nodes=FULL_NODES,
            light_nodes=LIGHT_NODES,
            network=NetworkConfig.large_fleet(),
            shards=SHARDS,
        )
        simulator = ShardedSimulator(spec, seed=FLEET_SEED, jobs=self.jobs)
        # Worker processes build their shards asynchronously; a round trip
        # to every shard makes set-up time include that build.
        simulator.heads()
        return {"simulator": simulator, "batches": batches}

    def teardown(self, state) -> None:
        state["simulator"].close()

    def run(self, state, tracer=None) -> Measured:
        simulator = state["simulator"]
        batches = state["batches"]
        if tracer is not None:
            for shard in simulator.shard_states.values():
                tracer.watch(shard.network)
            tracer.start()
        submitted = {record.record_id: record for batch in batches for record in batch}

        started = perf_counter()
        for batch in batches:
            for record in batch:
                simulator.submit_record(record)
            simulator.step()
        simulator.finalize()
        wall = perf_counter() - started
        if tracer is not None:
            tracer.stop()
        # Blocks found close together fork the fleet.  The engine drops a
        # losing block's records, and finalize can leave the fleet split
        # across branches of equal weight.  Both count as failures of the
        # timed window.
        missing = self._missing(simulator, submitted)
        dropped = len(missing)
        split = not (simulator.converged() and simulator.light_converged())
        # Outside the timed window, the record feed does what a wallet
        # does: it resubmits what fell off the chain, and mining goes on
        # until one branch is heaviest and every record has landed.
        extra = 0
        while (missing or not (simulator.converged() and simulator.light_converged())) \
                and extra < MAX_EXTRA_BLOCKS:
            for record in missing:
                simulator.submit_record(record)
            simulator.step()
            simulator.finalize()
            extra += 1
            missing = self._missing(simulator, submitted)

        problems = []
        if not simulator.converged():
            problems.append("full replicas did not converge")
        if not simulator.light_converged():
            problems.append("light replicas did not converge on the heaviest head")
        if missing:
            problems.append(f"{len(missing)} records still off the chain after resubmission")
        on_chain = self._on_chain(simulator)
        if len(on_chain) != len(set(on_chain)):
            problems.append("a record appears twice on the canonical chain")
        summaries = simulator.shard_summaries()
        events = [summary["events_processed"] for summary in summaries.values()]
        summary = simulator.summary()
        digest = hashlib.sha256()
        for name, head in sorted(simulator.heads().items()):
            digest.update(name.encode() + head)
        for name, head in sorted(simulator.light_heads().items()):
            digest.update(name.encode() + head)
        fingerprint = (
            digest.hexdigest(),
            sorted(simulator.replica_counters().items()),
            {key: summary[key] for key in ("events_processed", "messages_sent", "bytes_sent")},
        )
        return Measured(
            wall_s=wall,
            units=len(batches),
            throughput_per_s=len(batches) / wall,
            # One more attempt: the fleet's convergence at finalize.
            attempted=len(submitted) + 1,
            failed=dropped + int(split),
            failure_base=(
                "records submitted + 1 (the fleet converging at finalize); failed = "
                "records off the canonical chain at the end of the timed window "
                "+ 1 if the fleet was left split"
            ),
            problems=problems,
            named={
                "blocks_per_s": (len(batches) / wall, "1/s"),
                "blocks": (len(batches), "count"),
                "records_dropped": (dropped, "count"),
                "split_at_finalize": (int(split), "count"),
                "extra_blocks": (extra, "count"),
                "jobs": (self.jobs, "count"),
                "messages_sent": (summary["messages_sent"], "count"),
            },
            fingerprint=fingerprint,
            layer={"shard.events_imbalance": max(events) / (sum(events) / len(events))},
        )

    @staticmethod
    def _on_chain(simulator):
        """Record ids on the fleet's canonical chain, in chain order."""
        from repro.chain.serialization import import_chain

        canonical = import_chain(simulator.export_canonical())
        return [record.record_id for block in canonical.iter_canonical() for record in block.records]

    @classmethod
    def _missing(cls, simulator, submitted):
        landed = set(cls._on_chain(simulator))
        return [record for record_id, record in submitted.items() if record_id not in landed]
