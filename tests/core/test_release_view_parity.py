"""Property suite: the consumer-side readers == their full-scan oracles.

``ConsumerClient``, ``ReputationEngine`` and ``RetrospectiveMonitor``
read one incrementally maintained ``ChainIndex`` each.  Random chains
from the query-layer builders are grown with, in every example:

* a fork that out-mines the head from deeper than the confirmation
  depth (confirmed blocks are rewritten);
* a detailed report confirmed one block *before* its SRA;
* a second SRA for an already announced release (a re-detection round).

After every step each reader must answer exactly like the scans in
:mod:`tests.core.release_oracles` — whole ``SecurityReference`` values
(tuple order included), deploy decisions, track records, the ranking,
and the notifications each poll emits.
"""

from __future__ import annotations

import dataclasses
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import Block, ChainRecord, RecordKind
from repro.chain.chain import Blockchain
from repro.core.consumer import ConsumerClient
from repro.core.reputation import ReputationEngine
from repro.core.retrospective import RetrospectiveMonitor
from repro.core.sra import SignedSRA

from tests.core.release_oracles import (
    FullScanMonitor,
    confirmed_sras,
    full_scan_lookup,
    full_scan_ranking,
    full_scan_should_deploy,
    full_scan_track_record,
)
from tests.query.conftest import (
    DUMMY_SIG,
    MINER,
    build_mixed_chain,
    extend_mixed,
    full_scan_block_at_height,
    make_report_record,
    make_sra_record,
)

PROVIDERS = ("vendor-a", "vendor-b", "vendor-c", "vendor-unknown")


def _append(chain: Blockchain, records) -> None:
    head = chain.head
    chain.add_block(
        Block.assemble(
            head.block_id,
            head.height + 1,
            tuple(records),
            head.header.timestamp + 10.0,
            100,
            MINER,
        )
    )


def _reannounce(rng: random.Random, record: ChainRecord, tag: int) -> ChainRecord:
    """A second SRA for ``record``'s release: same provider and version."""
    body = dataclasses.replace(
        SignedSRA.from_payload(record.payload).body,
        insurance_wei=rng.randrange(1, 10) * 10**18,
        download_link=f"https://redetect.example/{tag}",
    )
    signed = SignedSRA(body=body, claimed_id=body.sra_id(), signature=DUMMY_SIG)
    return ChainRecord(
        kind=RecordKind.SRA, record_id=signed.sra_id, payload=signed.to_payload()
    )


class _Readers:
    """The readers under test and the oracles, over one chain."""

    def __init__(self, chain: Blockchain) -> None:
        self.chain = chain
        self.client = ConsumerClient(chain)
        self.engine = ReputationEngine(chain)
        self.monitor = RetrospectiveMonitor(chain)
        self.oracle_monitor = FullScanMonitor(chain)
        self.releases = set()
        self.notifications = 0

    def check(self) -> None:
        chain = self.chain
        for sra in confirmed_sras(chain):
            release = (sra.body.system_name, sra.body.system_version)
            if release not in self.releases:
                self.releases.add(release)
                for consumer in ("alice", "bob"):
                    self.monitor.register_deployment(consumer, *release)
                    self.oracle_monitor.register_deployment(consumer, *release)
        for release in sorted(self.releases) + [("ghost", "v0")]:
            assert self.client.lookup(*release) == full_scan_lookup(chain, *release)
            for tolerance in (0, 1):
                assert self.client.should_deploy(
                    *release, tolerance
                ) == full_scan_should_deploy(chain, *release, tolerance)
        for provider in PROVIDERS:
            assert self.client.provider_track_record(
                provider
            ) == full_scan_track_record(chain, provider)
        assert self.engine.ranking() == full_scan_ranking(chain)
        emitted = self.monitor.poll()
        assert emitted == self.oracle_monitor.poll()
        self.notifications += len(emitted)


class TestReadersMatchFullScans:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        operations=st.lists(
            st.tuples(
                st.sampled_from(["extend", "reorg"]),
                st.integers(min_value=1, max_value=3),
            ),
            max_size=4,
        ),
    )
    def test_random_chains(self, seed, operations):
        chain, sra_ids = build_mixed_chain(seed=seed, blocks=4)
        depth = chain.confirmation_depth
        rng = random.Random(seed + 1)
        # Every example carries each hard case, at a random point.
        schedule = list(operations) + [
            ("deep_reorg", depth + 2),
            ("report_first", 1),
            ("reannounce", 1),
        ]
        rng.shuffle(schedule)
        readers = _Readers(chain)
        readers.check()
        for op, size in schedule:
            if op == "extend":
                extend_mixed(chain, rng, size, 2, sra_ids)
            elif op in ("reorg", "deep_reorg"):
                fork_height = max(0, chain.head.height - size)
                extend_mixed(
                    chain,
                    rng,
                    chain.head.height - fork_height + 1,
                    2,
                    sra_ids,
                    parent=full_scan_block_at_height(chain, fork_height),
                )
            elif op == "report_first":
                sra = make_sra_record(rng, rng.getrandbits(60))
                report = make_report_record(rng, sra.record_id, rng.getrandbits(60))
                _append(chain, [report])
                _append(chain, [sra])
                sra_ids.append(sra.record_id)
                # The report is confirmed one refresh before its SRA.
                extend_mixed(chain, rng, depth - 1, 2, sra_ids)
                readers.check()
                extend_mixed(chain, rng, 1, 2, sra_ids)
            else:
                original = next(
                    (
                        record
                        for block in chain.iter_canonical()
                        for record in block.records
                        if record.kind == RecordKind.SRA
                    ),
                    None,
                )
                if original is None:
                    original = make_sra_record(rng, rng.getrandbits(60))
                    _append(chain, [original])
                    sra_ids.append(original.record_id)
                second = _reannounce(rng, original, rng.getrandbits(60))
                _append(chain, [second])
                _append(
                    chain, [make_report_record(rng, second.record_id, rng.getrandbits(60))]
                )
                sra_ids.append(second.record_id)
                extend_mixed(chain, rng, depth, 2, sra_ids)
            readers.check()
        extend_mixed(chain, rng, depth + 1, 2, sra_ids)
        readers.check()
        assert readers.client.index.rebuilds >= 1
        assert readers.notifications > 0
