"""Message-driven stakeholders: the §IV-B workflow as actual traffic.

:class:`~repro.core.platform.SmartCrowdPlatform` drives the four phases
with a scheduler, which is ideal for economics but hides the
*decentralized process* property (§III-B).  This module is the
faithful front-end: providers, detectors, and consumers are gossip
nodes, and every step is a message —

* a provider broadcasts its signed SRA (``SRA_ANNOUNCE``); every
  relaying node verifies it before forwarding (§V-A);
* detectors fetch the artifact from ``U_l`` (a
  :class:`SystemDirectory` standing in for the download server), scan
  it, and broadcast ``INITIAL_REPORT`` / ``DETAILED_REPORT`` messages
  whose timing follows their find times;
* provider replicas verify received reports with Algorithm 1 before
  mempooling them, mine blocks on their *own* chain copies, and gossip
  ``BLOCK_ANNOUNCE``;
* detectors watch block announcements to learn when their R† is buried
  deep enough to publish R* (§V-B phase II);
* consumers unicast ``CONSUMER_QUERY`` to any provider and get the
  chain-derived reference back.

Contract state is global (it *is* the replicated on-chain state);
confirmation triggers fire once, driven by a designated honest
observer replica — the same substitution the platform documents.
Record fees are omitted here: the economics are validated end-to-end
by the platform; this front-end validates the decentralized dataflow.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.chain.block import Block, ChainRecord, RecordKind
from repro.chain.mempool import Mempool
from repro.chain.pow import MiningModel
from repro.contracts.smartcrowd_contract import SmartCrowdContract
from repro.contracts.vm import ContractRuntime
from repro.core.consumer import ConsumerClient, SecurityReference
from repro.core.distributed import ReplicaNode, heaviest_peer
from repro.core.registry import IdentityRegistry
from repro.core.reports import DetailedReport, InitialReport, build_report_pair
from repro.core.sra import SignedSRA, make_sra
from repro.core.verification import ReportVerifier
from repro.crypto.keys import KeyPair
from repro.detection.autoverif import AutoVerifEngine
from repro.detection.detector import Detector
from repro.detection.iot_system import IoTSystem
from repro.network.gossip import GossipNetwork, build_topology
from repro.network.latency import DEFAULT_LATENCY, LatencyModel
from repro.network.messages import Message, MessageKind
from repro.network.node import Node
from repro.network.simulator import Simulator
from repro.chain.consensus import make_genesis
from repro.store import ChainStore
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.units import to_wei

__all__ = [
    "SystemDirectory",
    "ProviderStakeholder",
    "DetectorStakeholder",
    "ConsumerStakeholder",
    "DecentralizedDeployment",
]

def _check_deployment_spec(spec) -> None:
    """Reject fleet shapes the stakeholder workflow does not model.

    The deployment's fleet shape is fixed by ``provider_shares`` /
    ``detectors`` / ``consumers`` (named stakeholders on a complete
    overlay), so a :class:`~repro.shard.spec.FleetSpec` contributes only
    its persistence knobs here — and must not ask for light replicas or
    sharding.
    """
    from repro.shard.spec import FleetSpec

    if not isinstance(spec, FleetSpec):
        raise TypeError(f"spec must be a FleetSpec, got {type(spec).__name__}")
    if spec.light_nodes:
        raise ValueError(
            "DecentralizedDeployment has no light replicas; use "
            f"ShardedSimulator for spec.light_nodes={spec.light_nodes}"
        )
    if spec.shards != 1:
        raise ValueError(
            "DecentralizedDeployment is single-process; run "
            f"spec.shards={spec.shards} through "
            "repro.shard.ShardedSimulator, or pass spec.unsharded()"
        )


class SystemDirectory:
    """The download servers behind ``U_l`` links."""

    def __init__(self) -> None:
        self._systems: Dict[str, IoTSystem] = {}

    def publish(self, system: IoTSystem, link: Optional[str] = None) -> str:
        """Host an artifact; returns the link."""
        url = link or system.download_link
        self._systems[url] = system
        return url

    def fetch(self, link: str) -> Optional[IoTSystem]:
        """Download an artifact by link."""
        return self._systems.get(link)


class ProviderStakeholder(ReplicaNode):
    """A provider: SRA verification, Algorithm 1, mempool, mining."""

    def __init__(
        self,
        name: str,
        genesis: Block,
        registry: IdentityRegistry,
        directory: SystemDirectory,
        autoverif: Optional[AutoVerifEngine] = None,
        keys: Optional[KeyPair] = None,
        store=None,
    ) -> None:
        super().__init__(name, genesis, record_check=None, keys=keys, store=store)
        self.registry = registry
        self.directory = directory
        self.verifier = ReportVerifier(
            registry, autoverif if autoverif is not None else AutoVerifEngine()
        )
        self.mempool = Mempool()
        #: Δ_id -> accepted SRA (this provider's view of live releases).
        self.known_sras: Dict[bytes, SignedSRA] = {}
        #: report id -> accepted initial report (needed to check R*).
        self.known_initials: Dict[bytes, InitialReport] = {}
        self.rejected_messages = 0
        self.records_resubmitted = 0
        self.mempool_records_revalidated = 0
        self.on(MessageKind.SRA_ANNOUNCE, self._on_sra)
        self.on(MessageKind.INITIAL_REPORT, self._on_initial)
        self.on(MessageKind.DETAILED_REPORT, self._on_detailed)
        self.on(MessageKind.CONSUMER_QUERY, self._on_consumer_query)

    # -- message handlers ----------------------------------------------------

    def _on_sra(self, _node: Node, message: Message) -> None:
        sra: SignedSRA = message.payload
        provider_key = self.registry.public_key(sra.body.provider_id)
        if provider_key is None or not sra.verify(provider_key, self.registry):
            self.rejected_messages += 1
            return
        if sra.sra_id in self.known_sras:
            return
        self.known_sras[sra.sra_id] = sra
        self.mempool.add(
            ChainRecord(
                kind=RecordKind.SRA,
                record_id=sra.sra_id,
                payload=sra.to_payload(),
            )
        )

    def _on_initial(self, _node: Node, message: Message) -> None:
        report: InitialReport = message.payload
        if report.sra_id not in self.known_sras:
            self.rejected_messages += 1
            return
        if not self.verifier.verify_initial(report).ok:
            self.rejected_messages += 1
            return
        self.known_initials[report.report_id] = report
        self.mempool.add(
            ChainRecord(
                kind=RecordKind.INITIAL_REPORT,
                record_id=report.report_id,
                payload=report.to_payload(),
            )
        )

    def _on_detailed(self, _node: Node, message: Message) -> None:
        report: DetailedReport = message.payload
        sra = self.known_sras.get(report.sra_id)
        if sra is None:
            self.rejected_messages += 1
            return
        initial = next(
            (
                candidate
                for candidate in self.known_initials.values()
                if candidate.detailed_hash == report.body_hash()
            ),
            None,
        )
        if initial is None:
            self.rejected_messages += 1
            return
        system = self.directory.fetch(sra.body.download_link)
        if system is None:
            self.rejected_messages += 1
            return
        if not self.verifier.verify_detailed(report, initial, system).ok:
            self.rejected_messages += 1
            return
        self.mempool.add(
            ChainRecord(
                kind=RecordKind.DETAILED_REPORT,
                record_id=report.report_id,
                payload=report.to_payload(),
            )
        )

    def _on_consumer_query(self, _node: Node, message: Message) -> None:
        name, version, reply_to = message.payload
        reference = ConsumerClient(self.chain).lookup(name, version)
        self.send(reply_to, MessageKind.CONSUMER_RESPONSE, reference)

    # -- mining ----------------------------------------------------------------

    def mine(self, timestamp: float, difficulty: int) -> Block:
        """Assemble a block from this provider's own mempool and head."""
        records = self.mempool.select(
            exclude=self.chain.record_ids_on_canonical()
        )
        block = self.assemble_block(timestamp, records, difficulty)
        self.receive_block(block)
        self.mempool.prune(record.record_id for record in records)
        self.broadcast(MessageKind.BLOCK_ANNOUNCE, block)
        return block

    # -- fault recovery ---------------------------------------------------------

    def _on_records_orphaned(self, records) -> None:
        """Reorg stranded mined records: resubmit them to the mempool.

        Without this, a report mined on the losing side of a fork (e.g.
        during a partition) would vanish when the heavier branch wins —
        the detector would be charged its submission without the chain
        ever carrying the result.
        """
        self.records_resubmitted += self.mempool.add_all(records)

    def on_restarted(self) -> None:
        """Recover after a crash: chain resync, then rebuild from it.

        The chain is the authoritative reference (§V-C): after the
        headers-first resync, the provider reconstructs its SRA and
        initial-report views from canonical records it may have missed
        while down, and re-validates the mempool against the adopted
        chain (anything already canonical is dropped).
        """
        super().on_restarted()  # headers-first resync from best peer
        for block in self.chain.iter_canonical():
            for record in block.records:
                if record.kind == RecordKind.SRA and record.record_id not in self.known_sras:
                    sra = SignedSRA.from_payload(record.payload)
                    self.known_sras[sra.sra_id] = sra
                elif (
                    record.kind == RecordKind.INITIAL_REPORT
                    and record.record_id not in self.known_initials
                ):
                    initial = InitialReport.from_payload(record.payload)
                    self.known_initials[initial.report_id] = initial
        mined = [
            record_id
            for record_id in self.mempool.pending_ids()
            if self.chain.locate_record(record_id) is not None
        ]
        self.mempool_records_revalidated += self.mempool.prune(mined)


class DetectorStakeholder(Node):
    """A detector: scan on SRA arrival, two-phase submission by watching
    block announcements for its own R† burial depth.

    With a retry policy attached (see :mod:`repro.faults.retry`), the
    two-phase submission becomes fault tolerant: if a gossiped R† or R*
    does not show up on-chain within the policy deadline, the detector
    re-gossips a salted retransmission with exponential backoff and
    jitter, and polls a reachable replica's canonical chain (SPV-style
    catch-up) so that block announcements lost to crashes or drops
    cannot stall phase II.  Retries are idempotent — report ids are
    content-derived and every downstream layer deduplicates — so a
    retransmission can never double-pay a fee or a bounty.
    """

    def __init__(
        self,
        engine: Detector,
        simulator: Simulator,
        directory: SystemDirectory,
        confirmation_depth: int = 6,
        keys: Optional[KeyPair] = None,
        retry_policy=None,
    ) -> None:
        super().__init__(engine.detector_id, keys)
        self.engine = engine
        self.simulator = simulator
        self.directory = directory
        self.confirmation_depth = confirmation_depth
        #: None disables retries (the pre-chaos fire-and-forget mode).
        self.retry_policy = retry_policy
        self._retry_rng = random.Random(f"retry:{engine.detector_id}")
        #: initial report id -> pending detailed report
        self._pending_detailed: Dict[bytes, DetailedReport] = {}
        #: initial report id -> the initial report (kept for re-gossip)
        self._pending_initial: Dict[bytes, InitialReport] = {}
        #: published detailed reports awaiting on-chain confirmation
        self._awaiting_detailed: Dict[bytes, DetailedReport] = {}
        #: record id -> height at which it was seen in a block
        self._record_heights: Dict[bytes, int] = {}
        self._max_height_seen = 0
        self._published: Set[bytes] = set()
        #: ids of every detailed report this detector has published
        self.detailed_ids: Set[bytes] = set()
        self.scans = 0
        self.initial_retries = 0
        self.detailed_retries = 0
        self.submissions_deferred = 0
        self.reports_abandoned = 0
        self.on(MessageKind.SRA_ANNOUNCE, self._on_sra)
        self.on(MessageKind.BLOCK_ANNOUNCE, self._on_block)

    def _on_sra(self, _node: Node, message: Message) -> None:
        sra: SignedSRA = message.payload
        system = self.directory.fetch(sra.body.download_link)
        if system is None:
            return  # dead link — nothing to analyze
        if not sra.verify_artifact(system.image):
            return  # repackaged artifact: refuse to work on it
        self.scans += 1
        for finding in self.engine.scan(system):
            self.simulator.schedule(
                finding.found_after, self._submit_initial, sra, finding
            )

    def _submit_initial(self, sra: SignedSRA, finding, attempt: int = 0) -> None:
        if self.crashed:
            # The submission timer fired on a dead process.  With a
            # retry policy the submission itself is deferred until the
            # node is (hopefully) back; without one it is simply lost.
            if self.retry_policy is not None and not self.retry_policy.exhausted(attempt):
                self.submissions_deferred += 1
                self.simulator.schedule(
                    self.retry_policy.deadline,
                    self._submit_initial, sra, finding, attempt + 1,
                )
            return
        initial, detailed = build_report_pair(
            sra_id=sra.sra_id,
            detector_id=self.engine.detector_id,
            detector_keys=self.keys,
            wallet=self.keys.address,
            descriptions=(finding.description,),
        )
        self._pending_detailed[initial.report_id] = detailed
        self._pending_initial[initial.report_id] = initial
        self.broadcast(MessageKind.INITIAL_REPORT, initial)
        if self.retry_policy is not None:
            self.simulator.schedule(
                self.retry_policy.deadline, self._check_initial,
                initial.report_id, 0,
            )

    def _on_block(self, _node: Node, message: Message) -> None:
        block: Block = message.payload
        self._max_height_seen = max(self._max_height_seen, block.height)
        for record in block.records:
            self._record_heights.setdefault(record.record_id, block.height)
        self._maybe_publish()

    def _maybe_publish(self) -> None:
        """Publish R* for every committed R† now buried deep enough."""
        for initial_id, detailed in list(self._pending_detailed.items()):
            seen_at = self._record_heights.get(initial_id)
            if seen_at is None or initial_id in self._published:
                continue
            if self._max_height_seen - seen_at >= self.confirmation_depth:
                self._published.add(initial_id)
                self.detailed_ids.add(detailed.report_id)
                self._awaiting_detailed[detailed.report_id] = detailed
                self.broadcast(MessageKind.DETAILED_REPORT, detailed)
                if self.retry_policy is not None:
                    self.simulator.schedule(
                        self.retry_policy.deadline, self._check_detailed,
                        detailed.report_id, 0,
                    )

    # -- retrying two-phase submission (§V-B under faults) --------------------

    def _check_initial(self, initial_id: bytes, attempt: int) -> None:
        """Deadline check: is our R† on-chain yet?  Re-gossip if not."""
        policy = self.retry_policy
        if policy is None or initial_id in self._published:
            return
        if self.crashed:
            if not policy.exhausted(attempt):
                self.simulator.schedule(
                    policy.deadline, self._check_initial, initial_id, attempt + 1
                )
            return
        self._catch_up()
        if initial_id in self._record_heights:
            return  # mined; phase II proceeds from _maybe_publish
        if policy.exhausted(attempt):
            self.reports_abandoned += 1
            return
        initial = self._pending_initial.get(initial_id)
        if initial is None:
            return
        self.initial_retries += 1
        self.broadcast(MessageKind.INITIAL_REPORT, initial, salt=attempt + 1)
        self.simulator.schedule(
            policy.backoff(attempt, self._retry_rng),
            self._check_initial, initial_id, attempt + 1,
        )

    def _check_detailed(self, detailed_id: bytes, attempt: int) -> None:
        """Deadline check: is our published R* on-chain yet?"""
        policy = self.retry_policy
        if policy is None:
            return
        if self.crashed:
            if not policy.exhausted(attempt):
                self.simulator.schedule(
                    policy.deadline, self._check_detailed, detailed_id, attempt + 1
                )
            return
        self._catch_up()
        if detailed_id in self._record_heights:
            self._awaiting_detailed.pop(detailed_id, None)
            return  # confirmed: done with this report
        if policy.exhausted(attempt):
            self.reports_abandoned += 1
            return
        detailed = self._awaiting_detailed.get(detailed_id)
        if detailed is None:
            return
        self.detailed_retries += 1
        self.broadcast(MessageKind.DETAILED_REPORT, detailed, salt=attempt + 1)
        self.simulator.schedule(
            policy.backoff(attempt, self._retry_rng),
            self._check_detailed, detailed_id, attempt + 1,
        )

    def _catch_up(self) -> bool:
        """SPV-style poll: refresh record heights from the heaviest
        reachable replica's canonical chain.

        Block announcements the detector missed (crashed, partitioned,
        or dropped) would otherwise leave ``_record_heights`` stale and
        stall phase II forever.
        """
        peer = heaviest_peer(self.network, self.name)
        if peer is None:
            return False
        for block in peer.chain.iter_canonical():
            self._max_height_seen = max(self._max_height_seen, block.height)
            for record in block.records:
                self._record_heights.setdefault(record.record_id, block.height)
        self._maybe_publish()
        return True

    def on_restarted(self) -> None:
        """Catch up with the chain the moment the process is back."""
        self._catch_up()


class ConsumerStakeholder(Node):
    """A consumer: unicast reference queries to any provider."""

    def __init__(self, name: str, keys: Optional[KeyPair] = None) -> None:
        super().__init__(name, keys)
        self.responses: List[Optional[SecurityReference]] = []
        self.on(MessageKind.CONSUMER_RESPONSE, self._on_response)

    def query(self, provider_name: str, system_name: str, version: str) -> None:
        """Ask a provider for the reference of a release."""
        self.send(
            provider_name,
            MessageKind.CONSUMER_QUERY,
            (system_name, version, self.name),
        )

    def _on_response(self, _node: Node, message: Message) -> None:
        self.responses.append(message.payload)

    @property
    def latest_reference(self) -> Optional[SecurityReference]:
        """The most recent answer received."""
        return self.responses[-1] if self.responses else None


class DecentralizedDeployment:
    """The whole §IV-B workflow as message traffic over a gossip overlay."""

    def __init__(
        self,
        provider_shares: Mapping[str, float],
        detectors: List[Detector],
        consumers: Tuple[str, ...] = ("consumer-1",),
        difficulty: int = 1000,
        mean_block_time: float = 15.35,
        confirmation_depth: int = 6,
        detection_window: float = 600.0,
        latency: LatencyModel = DEFAULT_LATENCY,
        seed: int = 0,
        retry_policy=None,
        telemetry: Optional[Telemetry] = None,
        spec=None,
    ) -> None:
        if spec is not None:
            _check_deployment_spec(spec)
        self.spec = spec
        rng = random.Random(seed)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.simulator = Simulator(telemetry=self.telemetry)
        if self.telemetry.enabled:
            # Trace events are stamped on the simulation clock, not
            # wall time, so traces line up with the chaos plan.
            self.telemetry.bind_clock(self.simulator)
        self.directory = SystemDirectory()
        self.registry = IdentityRegistry()
        self.confirmation_depth = confirmation_depth
        self.detection_window = detection_window

        genesis = make_genesis(difficulty=difficulty)
        names = (
            list(provider_shares)
            + [detector.detector_id for detector in detectors]
            + list(consumers)
        )
        self.network = GossipNetwork(
            self.simulator,
            build_topology(names, "complete"),
            latency=latency,
            rng=random.Random(rng.randrange(2**31)),
            telemetry=self.telemetry,
        )

        # On-chain world state (contracts + balances), shared by design.
        self.runtime = ContractRuntime(telemetry=self.telemetry)
        self._authority = KeyPair.from_seed(f"dd-authority:{seed}".encode())
        self.runtime.state.mint(self._authority.address, to_wei(1_000_000))

        #: With ``spec.store_dir`` set, every provider persists its
        #: replica to ``store_dir/<name>`` and restarts recover from disk.
        store_dir = spec.store_dir if spec is not None else None
        self.store_dir = Path(store_dir) if store_dir is not None else None
        self.providers: Dict[str, ProviderStakeholder] = {}
        for name in provider_shares:
            keys = KeyPair.from_seed(f"dd-provider:{name}:{seed}".encode())
            self.registry.register(name, keys.public)
            store = (
                ChainStore(
                    self.store_dir / name,
                    snapshot_interval=spec.store_snapshot_interval,
                    telemetry=self.telemetry,
                )
                if self.store_dir is not None
                else None
            )
            provider = ProviderStakeholder(
                name, genesis, self.registry, self.directory, keys=keys,
                store=store,
            )
            provider.chain.confirmation_depth = confirmation_depth
            provider.mempool.telemetry = self.telemetry
            self.providers[name] = provider
            self.network.attach(provider)
            self.runtime.state.mint(keys.address, to_wei(100_000))

        self.detectors: Dict[str, DetectorStakeholder] = {}
        for engine in detectors:
            keys = KeyPair.from_seed(
                f"dd-detector:{engine.detector_id}:{seed}".encode()
            )
            self.registry.register(engine.detector_id, keys.public)
            stakeholder = DetectorStakeholder(
                engine, self.simulator, self.directory,
                confirmation_depth=confirmation_depth, keys=keys,
                retry_policy=retry_policy,
            )
            self.detectors[engine.detector_id] = stakeholder
            self.network.attach(stakeholder)

        self.consumers: Dict[str, ConsumerStakeholder] = {}
        for name in consumers:
            consumer = ConsumerStakeholder(name)
            self.consumers[name] = consumer
            self.network.attach(consumer)

        self.model = MiningModel.from_shares(
            provider_shares, difficulty=difficulty,
            mean_block_time=mean_block_time,
            rng=random.Random(rng.randrange(2**31)),
            telemetry=self.telemetry,
        )
        self._difficulty = difficulty
        #: Δ_id -> deployed contract address.
        self.contracts: Dict[bytes, "SmartCrowdContract"] = {}
        #: the honest replica whose view fires confirmation triggers.
        self._observer = next(iter(self.providers.values()))
        self._triggered: Set[bytes] = set()

    # -- phase 1 ------------------------------------------------------------

    def announce(
        self,
        provider_name: str,
        system: IoTSystem,
        insurance_ether: int = 1000,
        bounty_ether: int = 250,
    ) -> SignedSRA:
        """Provider hosts the artifact, escrows insurance, gossips Δ."""
        provider = self.providers[provider_name]
        self.directory.publish(system)
        sra = make_sra(
            provider_name, provider.keys, system,
            to_wei(insurance_ether), to_wei(bounty_ether),
        )
        contract = SmartCrowdContract(
            sra_id=sra.sra_id,
            provider=provider.keys.address,
            bounty_per_vulnerability_wei=to_wei(bounty_ether),
            detection_window=self.detection_window,
            trigger_authority=self._authority.address,
        )
        receipt = self.runtime.deploy(
            contract, provider.keys.address, value_wei=to_wei(insurance_ether)
        )
        assert receipt.success, receipt.error
        self.contracts[sra.sra_id] = contract
        provider.deliver(
            Message.wrap(MessageKind.SRA_ANNOUNCE, sra, provider_name)
        )
        provider.broadcast(MessageKind.SRA_ANNOUNCE, sra)
        if self.telemetry.enabled:
            self.telemetry.event(
                "sra.announce",
                provider=provider_name,
                system=f"{system.name}/{system.version}",
                sra_id=sra.sra_id.hex()[:16],
            )
        return sra

    # -- consensus drive ---------------------------------------------------------

    def advance_for(self, duration: float) -> int:
        """Advance simulated time, mining and delivering as we go.

        Returns blocks mined — the unified time-control convention
        shared with :class:`~repro.core.platform.SmartCrowdPlatform`
        and :class:`~repro.network.simulator.Simulator`.
        """
        deadline = self.simulator.now + duration
        mined = 0
        while True:
            outcome = self.model.next_block()
            when = self.simulator.now + outcome.interval
            if when > deadline:
                self.simulator.advance_until(deadline)
                self._fire_confirmations()
                return mined
            self.simulator.advance_until(when)
            winner = self.providers[outcome.winner]
            if winner.crashed:
                # The sampled winner's hashpower is offline: its block is
                # simply never found.  Time still advances.
                continue
            block = winner.mine(when, self._difficulty)
            mined += 1
            if self.telemetry.enabled:
                self.telemetry.event(
                    "block.mined",
                    miner=outcome.winner,
                    height=block.height,
                    records=len(block.records),
                )
            self._fire_confirmations()

    def _fire_confirmations(self) -> None:
        """Trigger contracts for records the observer sees as confirmed."""
        observer = self._alive_observer()
        chain = observer.chain
        self.runtime.advance_time(
            max(self.runtime.block_time, self.simulator.now)
        )
        for block in chain.iter_canonical():
            if not chain.is_confirmed(block.block_id):
                continue
            for record in block.records:
                if record.record_id in self._triggered:
                    continue
                self._triggered.add(record.record_id)
                self._trigger(record)

    def _trigger(self, record: ChainRecord) -> None:
        if record.kind == RecordKind.INITIAL_REPORT:
            report = InitialReport.from_payload(record.payload)
            contract = self.contracts.get(report.sra_id)
            if contract is not None:
                self.runtime.call(
                    contract.address, "confirm_initial_report",
                    self._authority.address, 0, "confirm_report",
                    report.detector_id, report.wallet, report.detailed_hash,
                )
        elif record.kind == RecordKind.DETAILED_REPORT:
            report = DetailedReport.from_payload(record.payload)
            contract = self.contracts.get(report.sra_id)
            if contract is not None:
                self.runtime.call(
                    contract.address, "award_detailed_report",
                    self._authority.address, 0, "confirm_report",
                    report.detector_id, report.wallet, report.body_hash(),
                    report.vulnerability_keys(), True,
                )

    def _alive_observer(self) -> ProviderStakeholder:
        """The designated observer, or any alive replica if it crashed.

        Confirmation triggers only need *some* honest replica's view;
        the ``_triggered`` set keeps them once-only regardless of which
        replica's chain fires them.
        """
        if not self._observer.crashed:
            return self._observer
        for provider in self.providers.values():
            if not provider.crashed:
                return provider
        return self._observer  # everyone down: fall back to the default

    # -- fault control --------------------------------------------------------

    def crash(self, name: str) -> None:
        """Crash a stakeholder process (provider or detector) by name."""
        self.network.crash_node(name)

    def restart(self, name: str) -> None:
        """Restart a crashed stakeholder; its recovery hooks run."""
        self.network.restart_node(name)

    # -- views ---------------------------------------------------------------

    def detector_balance(self, detector_id: str) -> int:
        """A detector's on-chain earnings, wei."""
        return self.runtime.state.balance(self.detectors[detector_id].keys.address)

    def converged(self) -> bool:
        """True if all alive provider replicas share one head."""
        heads = {p.head_id() for p in self.providers.values() if not p.crashed}
        return len(heads) <= 1

    def summary(self) -> Dict[str, object]:
        """Network transport stats merged with deployment counters."""
        stats = self.network.summary()
        stats.update(
            chain_heights={
                name: provider.chain.height
                for name, provider in self.providers.items()
            },
            records_resubmitted=sum(
                p.records_resubmitted for p in self.providers.values()
            ),
            resyncs_performed=sum(
                p.resyncs_performed for p in self.providers.values()
            ),
            initial_retries=sum(
                d.initial_retries for d in self.detectors.values()
            ),
            detailed_retries=sum(
                d.detailed_retries for d in self.detectors.values()
            ),
            reports_abandoned=sum(
                d.reports_abandoned for d in self.detectors.values()
            ),
        )
        return stats
