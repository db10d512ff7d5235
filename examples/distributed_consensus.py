#!/usr/bin/env python3
"""Fault-tolerant storage: chain replicas, forks, and a byzantine miner.

Shows the Phase-3 machinery (§V-C) directly: five provider replicas
each keep their own chain copy over a gossip overlay; a byzantine
minority provider keeps mining blocks that contain a forged detection
report; honest replicas reject those blocks and out-mine the attacker
— "a small amount of compromised IoT providers will not outplay the
whole SmartCrowd platform."
"""

from repro.chain.block import ChainRecord, RecordKind
from repro.chain.pow import PAPER_HASHPOWER_SHARES
from repro.crypto.hashing import hash_fields
from repro.network.latency import LogNormalLatency
from repro.shard import FleetSpec, ShardedSimulator


def record_check(record: ChainRecord) -> bool:
    """Stand-in for Algorithm 1 + AutoVerif at block validation."""
    return record.payload != b"forged"


def main() -> None:
    net = ShardedSimulator(
        FleetSpec(full_nodes=len(PAPER_HASHPOWER_SHARES)),
        PAPER_HASHPOWER_SHARES,
        record_check=record_check,
        byzantine={"provider-5"},  # 10.1% of hashpower is compromised
        latency=LogNormalLatency(median=0.15),
        seed=2,
    )

    honest_report = ChainRecord(
        kind=RecordKind.DETAILED_REPORT,
        record_id=hash_fields("honest-report"),
        payload=b"real finding",
    )
    forged_report = ChainRecord(
        kind=RecordKind.DETAILED_REPORT,
        record_id=hash_fields("forged-report"),
        payload=b"forged",
    )
    net.submit_record(honest_report)
    net.inject_byzantine_record("provider-5", forged_report)

    print("mining 60 blocks across 5 replicas (provider-5 is byzantine)...")
    net.run_blocks(60)
    net.settle()

    print(f"\nhonest replicas converged? {net.converged(among=net.honest_names())}")
    for name, replica in sorted(net.replicas.items()):
        tag = "BYZANTINE" if name in net.byzantine else "honest"
        print(f"  {name:<12} [{tag:>9}] height={replica.chain.height:>3} "
              f"accepted={replica.blocks_accepted:>3} "
              f"rejected={replica.blocks_rejected}")

    print(f"\nhonest report on honest chains?  "
          f"{net.record_on_honest_chains(honest_report.record_id)}")
    print(f"forged report on honest chains?  "
          f"{net.record_on_honest_chains(forged_report.record_id)}")

    byz = net.replicas["provider-5"].chain
    stored = any(
        byz.get_block(block_id).find_record(forged_report.record_id)
        for block_id in byz.fork_ids()
    ) or byz.locate_record(forged_report.record_id) is not None
    print(f"forged block stored on the byzantine replica?        {stored}")
    print(f"...but canonical even there?                         "
          f"{byz.locate_record(forged_report.record_id) is not None}")
    print("\n(the byzantine fork exists in storage, but at 10% hashpower it"
          " can never become the heaviest chain anyone follows)")


if __name__ == "__main__":
    main()
