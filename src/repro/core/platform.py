"""The SmartCrowd platform orchestrator.

Ties every substrate together and runs the four phases of §IV-B over
simulated time:

* **Phase #1** — a provider announces a release: it deploys a
  :class:`~repro.contracts.SmartCrowdContract` escrowing the insurance
  (paying ≈0.095 ether of gas), signs the SRA (Eq. 1-2), and the SRA is
  verified decentrally and recorded in the chain.
* **Phase #2** — detectors scan the release; each discovered
  vulnerability yields a two-phase (R†, R*) submission racing other
  detectors (§V-B).
* **Phase #3** — providers verify reports with Algorithm 1 +
  ``AutoVerif`` before recording them; PoW mining aggregates records
  into blocks; 6-block confirmation finalizes them (§V-C).
* **Phase #4** — confirmations trigger the contract: detector bounties
  pay out automatically, providers collect block rewards ν and
  transaction fees ψ·ω, clean releases are refunded and vulnerable
  ones forfeited (§V-D).

The master clock is the mining process; scheduled actions (releases,
report submissions, contract closes) fire between blocks in timestamp
order, so runs are exactly reproducible for a given seed.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.chain.block import ChainRecord, RecordKind
from repro.chain.consensus import MinedEvent, MiningSimulation
from repro.chain.pow import PAPER_DIFFICULTY, PAPER_MEAN_BLOCK_TIME
from repro.contracts.gas import DEFAULT_GAS_SCHEDULE
from repro.contracts.smartcrowd_contract import SmartCrowdContract
from repro.contracts.state import InsufficientFunds
from repro.contracts.vm import ContractRuntime
from repro.core.incentives import IncentiveParameters
from repro.economics.batch import crosscheck_detectors, crosscheck_providers
from repro.core.registry import IdentityRegistry
from repro.core.reports import DetailedReport, InitialReport, build_report_pair
from repro.core.sra import SignedSRA, make_sra
from repro.core.verification import ReportVerifier, VerdictCode
from repro.crypto.keys import Address, KeyPair
from repro.detection.autoverif import AutoVerifEngine
from repro.detection.detector import Detector
from repro.detection.iot_system import IoTSystem
from repro.units import to_wei

__all__ = [
    "SmartCrowdPlatform",
    "PlatformConfig",
    "ReleaseCase",
    "DetectorStats",
    "EconomicsSummary",
]


@dataclass(frozen=True)
class PlatformConfig:
    """Global knobs of a SmartCrowd deployment (paper defaults)."""

    params: IncentiveParameters = field(default_factory=IncentiveParameters)
    difficulty: int = PAPER_DIFFICULTY
    mean_block_time: float = PAPER_MEAN_BLOCK_TIME
    confirmation_depth: int = 6
    #: Seconds after an SRA during which reports are payable.
    detection_window: float = 600.0
    #: Starting balance of each provider account, wei.
    provider_funding_wei: int = to_wei(50_000)
    #: Starting balance of each detector account, wei.
    detector_funding_wei: int = to_wei(100)
    seed: int = 0


@dataclass
class ReleaseCase:
    """Everything the platform tracks about one announced release."""

    sra: SignedSRA
    system: IoTSystem
    provider_name: str
    contract_address: Address
    announced_at: float
    #: Detection round (1 for the original SRA, 2+ for re-detection).
    round: int = 1
    closed: bool = False
    refunded_wei: int = 0
    #: detector_id -> number of vulnerabilities it found in this release
    found_counts: Dict[str, int] = field(default_factory=dict)
    #: detector_id -> number of its findings that won a bounty
    awarded_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def sra_id(self) -> bytes:
        return self.sra.sra_id


@dataclass
class DetectorStats:
    """Running per-detector tallies the Fig. 6 experiments read."""

    findings: int = 0
    initial_reports_submitted: int = 0
    detailed_reports_submitted: int = 0
    reports_dropped: int = 0
    bounties_won: int = 0
    incentives_wei: int = 0
    fees_paid_wei: int = 0


@dataclass(frozen=True)
class EconomicsSummary:
    """Whole-population Eq. 7–10 accounting for one platform run.

    Computed by the batch engine (:mod:`repro.economics`) with the
    scalar closed forms of :mod:`repro.core.incentives` run alongside
    as the cross-check oracle — any divergence raises
    :class:`repro.economics.BatchParityError` instead of returning.
    """

    #: Eq. 7 per detector: μ·n_i·ρ_i with measured findings/awards.
    detector_incentives_wei: Dict[str, int]
    #: Eq. 10 per detector: n_i·(c + ρ_i·ψ).
    detector_costs_wei: Dict[str, int]
    #: Eq. 8 per provider: χ·ν + ψ·ω with measured block/fee counts.
    provider_incentives_wei: Dict[str, int]
    #: Eq. 9 per provider: μ·Σn_j·ρ_j + releases·cp over its releases.
    provider_punishments_wei: Dict[str, int]


class SmartCrowdPlatform:
    """A running SmartCrowd deployment over simulated time."""

    def __init__(
        self,
        provider_shares: Mapping[str, float],
        detectors: Sequence[Detector],
        config: Optional[PlatformConfig] = None,
        autoverif: Optional[AutoVerifEngine] = None,
    ) -> None:
        self.config = config if config is not None else PlatformConfig()
        self._rng = random.Random(self.config.seed)

        # Identities: long-lived keys for every entity (§V-A).
        self.registry = IdentityRegistry()
        self.provider_keys: Dict[str, KeyPair] = {}
        for name in provider_shares:
            keys = KeyPair.from_seed(f"provider:{name}:{self.config.seed}".encode())
            self.provider_keys[name] = keys
            self.registry.register(name, keys.public)
        self.detectors: Dict[str, Detector] = {d.detector_id: d for d in detectors}
        self.detector_keys: Dict[str, KeyPair] = {}
        for detector_id in self.detectors:
            keys = KeyPair.from_seed(f"detector:{detector_id}:{self.config.seed}".encode())
            self.detector_keys[detector_id] = keys
            self.registry.register(detector_id, keys.public)

        # The consensus trigger authority (§V-D substitution; DESIGN.md).
        self._authority = KeyPair.from_seed(f"authority:{self.config.seed}".encode())

        # Contract runtime over the shared world state.
        self.runtime = ContractRuntime(gas_schedule=DEFAULT_GAS_SCHEDULE)
        for name, keys in self.provider_keys.items():
            self.runtime.state.mint(keys.address, self.config.provider_funding_wei)
        for detector_id, keys in self.detector_keys.items():
            self.runtime.state.mint(keys.address, self.config.detector_funding_wei)
        self.runtime.state.mint(self._authority.address, to_wei(10_000_000))

        # PoW mining competition among providers.
        addresses = {name: keys.address for name, keys in self.provider_keys.items()}
        self.mining = MiningSimulation.from_shares(
            provider_shares,
            addresses,
            difficulty=self.config.difficulty,
            mean_block_time=self.config.mean_block_time,
            confirmation_depth=self.config.confirmation_depth,
            rng=random.Random(self._rng.randrange(2**31)),
        )

        # Provider-side verification (honest majority): Algorithm 1.
        self.verifier = ReportVerifier(
            self.registry,
            autoverif if autoverif is not None else AutoVerifEngine(),
        )

        # Scheduled actions between blocks.
        self._actions: List[Tuple[float, int, Callable[[], None]]] = []
        #: Events mined by the most recent advance_until/advance_for call.
        self.last_mined_events: List[MinedEvent] = []
        self._action_seq = itertools.count()
        self._action_time: float = 0.0

        # Release and report bookkeeping.
        self.releases: Dict[bytes, ReleaseCase] = {}
        self._initial_by_id: Dict[bytes, InitialReport] = {}
        self._detailed_by_id: Dict[bytes, DetailedReport] = {}
        self._confirmed_heights: Set[int] = set()
        self.detector_stats: Dict[str, DetectorStats] = {
            detector_id: DetectorStats() for detector_id in self.detectors
        }
        self._stats_by_address: Dict[Address, DetectorStats] = {
            keys.address: self.detector_stats[detector_id]
            for detector_id, keys in self.detector_keys.items()
        }
        self.dropped_reports: List[Tuple[bytes, VerdictCode]] = []
        #: Detectors exposed by a failed AutoVerif: providers filter all
        #: of their future submissions (§V-C "filter this detector's
        #: next reports").
        self.isolated_detectors: Set[str] = set()
        #: Per-provider punishment tally (forfeited insurance + deploy gas).
        self.punishments_wei: Dict[str, int] = {name: 0 for name in provider_shares}
        #: Per-provider fee income from mined records (the ψ·ω term).
        self.fee_income_wei: Dict[str, int] = {name: 0 for name in provider_shares}
        #: Per-provider count of fee-bearing records collected (ω of Eq. 8).
        self.fee_records_collected: Dict[str, int] = {name: 0 for name in provider_shares}
        self.blocks_mined: Dict[str, int] = {name: 0 for name in provider_shares}

        self.mining.add_listener(self._on_block)

    # -- clock & scheduling --------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time.

        The mining clock is the base; while actions are being processed
        between blocks, the firing action's own timestamp is current
        (so e.g. a contract deployed by an announce action carries the
        announce time, and close-window arithmetic is deterministic).
        """
        return max(self.mining.clock, self._action_time)

    def schedule_at(self, time: float, action: Callable[[], None]) -> None:
        """Queue an action to fire at absolute ``time`` (between blocks).

        Unified time-control surface: absolute scheduling is
        ``schedule_at`` here exactly as on
        :class:`~repro.network.simulator.Simulator`.
        """
        if time < self.now - 1e-9:
            time = self.now
        heapq.heappush(self._actions, (time, next(self._action_seq), action))

    def _process_actions(self, up_to: float) -> None:
        while self._actions and self._actions[0][0] <= up_to + 1e-12:
            fire_time, _, action = heapq.heappop(self._actions)
            self._action_time = max(self._action_time, fire_time)
            self.runtime.advance_time(max(self.runtime.block_time, self._action_time))
            action()

    def advance_until(self, deadline: float) -> int:
        """Advance simulated time to ``deadline``, mining as we go.

        Returns the number of blocks mined, matching
        :meth:`Simulator.advance_until`'s count-of-work convention; the
        mined events themselves are kept in :attr:`last_mined_events`
        (or subscribe via ``platform.mining.add_listener``).
        """
        self.last_mined_events = self._advance(deadline)
        return len(self.last_mined_events)

    def advance_for(self, duration: float) -> int:
        """Advance by ``duration`` seconds; returns blocks mined."""
        return self.advance_until(self.now + duration)

    def _advance(self, deadline: float) -> List[MinedEvent]:
        events: List[MinedEvent] = []
        while True:
            outcome = self.mining.model.next_block()
            block_time = self.mining.clock + outcome.interval
            if block_time > deadline:
                self._process_actions(deadline)
                self.mining.clock = deadline
                self.runtime.advance_time(max(self.runtime.block_time, deadline))
                return events
            self._process_actions(block_time)
            self.runtime.advance_time(max(self.runtime.block_time, block_time))
            events.append(self.mining.apply_outcome(outcome))

    # -- Phase #1: release announcement ---------------------------------------

    def announce_release(
        self,
        provider_name: str,
        system: IoTSystem,
        insurance_wei: Optional[int] = None,
        bounty_wei: Optional[int] = None,
        at_time: Optional[float] = None,
    ) -> SignedSRA:
        """Announce an IoT system release (scheduling it if ``at_time``).

        Deploys the escrow contract, records the SRA on chain, and
        schedules detector scans and the end-of-window close.
        """
        if provider_name not in self.provider_keys:
            raise ValueError(f"unknown provider {provider_name!r}")
        insurance = (
            insurance_wei if insurance_wei is not None else self.config.params.insurance_wei
        )
        bounty = bounty_wei if bounty_wei is not None else self.config.params.bounty_wei
        keys = self.provider_keys[provider_name]
        sra = make_sra(provider_name, keys, system, insurance, bounty)
        when = at_time if at_time is not None else self.now
        self.schedule_at(when, lambda: self._do_announce(provider_name, sra, system))
        return sra

    def reopen_release(
        self,
        sra_id: bytes,
        insurance_wei: Optional[int] = None,
        bounty_wei: Optional[int] = None,
        at_time: Optional[float] = None,
    ) -> SignedSRA:
        """Open a re-detection round for a closed release.

        Retrospective detection (SmartRetro, cited in §IX): the
        provider escrows a fresh insurance and detectors rescan, but
        only *newly discovered* vulnerabilities are payable — flaws
        already confirmed in earlier rounds are excluded from both
        payouts and punishment.
        """
        case = self.releases.get(sra_id)
        if case is None:
            raise ValueError("unknown release")
        if not case.closed:
            raise ValueError("previous round is still open")
        previous_contract = self.runtime.get_contract(case.contract_address)
        excluded = (
            previous_contract.awarded_vulnerabilities()
            | previous_contract.excluded_keys
        )
        insurance = (
            insurance_wei
            if insurance_wei is not None
            else self.config.params.insurance_wei
        )
        bounty = (
            bounty_wei if bounty_wei is not None else self.config.params.bounty_wei
        )
        keys = self.provider_keys[case.provider_name]
        next_round = case.round + 1
        # A distinct download link per round keeps Δ_id unique while the
        # artifact itself is unchanged.
        link = f"{case.system.download_link}?round={next_round}"
        sra = make_sra(
            case.provider_name, keys, case.system, insurance, bounty,
            download_link=link,
        )
        when = at_time if at_time is not None else self.now
        self.schedule_at(
            when,
            lambda: self._do_announce(
                case.provider_name, sra, case.system,
                excluded_keys=excluded, round_number=next_round,
            ),
        )
        return sra

    def _do_announce(
        self,
        provider_name: str,
        sra: SignedSRA,
        system: IoTSystem,
        excluded_keys: Optional[Set[str]] = None,
        round_number: int = 1,
    ) -> None:
        if sra.sra_id in self.releases:
            raise RuntimeError("duplicate SRA announcement")
        keys = self.provider_keys[provider_name]
        contract = SmartCrowdContract(
            sra_id=sra.sra_id,
            provider=keys.address,
            bounty_per_vulnerability_wei=sra.body.bounty_wei,
            detection_window=self.config.detection_window,
            trigger_authority=self._authority.address,
            excluded_keys=excluded_keys,
        )
        receipt = self.runtime.deploy(
            contract, keys.address, value_wei=sra.body.insurance_wei
        )
        if not receipt.success:
            raise RuntimeError(
                f"SRA deployment failed for {provider_name}: {receipt.error}"
            )
        self.punishments_wei[provider_name] += receipt.fee_wei

        case = ReleaseCase(
            sra=sra,
            system=system,
            provider_name=provider_name,
            contract_address=receipt.contract,
            announced_at=self.now,
            round=round_number,
        )
        self.releases[sra.sra_id] = case

        # Decentralized SRA verification, then on-chain recording.
        if not sra.verify(keys.public):
            raise RuntimeError("provider produced an invalid SRA")
        self.mining.submit(
            ChainRecord(
                kind=RecordKind.SRA,
                record_id=sra.sra_id,
                payload=sra.to_payload(),
                fee=0,
                sender=keys.address,
            )
        )

        self._start_detection(case)
        close_at = self.now + self.config.detection_window + 1e-6
        self.schedule_at(close_at, lambda: self._close_release(case))

    # -- Phase #2: distributed detection --------------------------------------

    def _start_detection(self, case: ReleaseCase) -> None:
        """Every detector scans the release; findings become scheduled
        two-phase submissions racing on find time."""
        for detector_id, detector in self.detectors.items():
            findings = detector.scan(case.system)
            case.found_counts[detector_id] = len(findings)
            stats = self.detector_stats[detector_id]
            stats.findings += len(findings)
            for finding in findings:
                submit_at = case.announced_at + finding.found_after
                if submit_at > case.announced_at + self.config.detection_window:
                    continue  # found too late to be payable
                self.schedule_at(
                    submit_at,
                    self._make_submitter(case, detector_id, finding),
                )

    def _make_submitter(self, case: ReleaseCase, detector_id: str, finding):
        def _submit() -> None:
            self._submit_initial(case, detector_id, finding)

        return _submit

    def _submit_initial(self, case: ReleaseCase, detector_id: str, finding) -> None:
        """Build the (R†, R*) pair for one finding and submit R†."""
        if detector_id in self.isolated_detectors:
            self.detector_stats[detector_id].reports_dropped += 1
            return
        keys = self.detector_keys[detector_id]
        initial, detailed = build_report_pair(
            sra_id=case.sra_id,
            detector_id=detector_id,
            detector_keys=keys,
            wallet=keys.address,
            descriptions=(finding.description,),
        )
        verdict = self.verifier.verify_initial(initial)
        stats = self.detector_stats[detector_id]
        if not verdict.ok:
            stats.reports_dropped += 1
            self.dropped_reports.append((initial.report_id, verdict.code))
            return
        record = ChainRecord(
            kind=RecordKind.INITIAL_REPORT,
            record_id=initial.report_id,
            payload=initial.to_payload(),
            fee=self.runtime.gas.fee_wei("submit_initial_report"),
            sender=keys.address,
        )
        if self.runtime.state.balance(keys.address) < record.fee:
            stats.reports_dropped += 1
            return
        if self.mining.submit(record):
            self._initial_by_id[initial.report_id] = initial
            self._detailed_by_id[initial.report_id] = detailed
            stats.initial_reports_submitted += 1

    def _submit_detailed(self, initial_id: bytes) -> None:
        """Publish R* after its R† confirmed (§V-B Phase II)."""
        initial = self._initial_by_id.get(initial_id)
        detailed = self._detailed_by_id.get(initial_id)
        if initial is None or detailed is None:
            return
        case = self.releases.get(initial.sra_id)
        if case is None:
            return
        verdict = self.verifier.verify_detailed(detailed, initial, case.system)
        stats = self.detector_stats[detailed.detector_id]
        if not verdict.ok:
            stats.reports_dropped += 1
            self.dropped_reports.append((detailed.report_id, verdict.code))
            if verdict.code == VerdictCode.AUTOVERIF_FAILED:
                self.isolated_detectors.add(detailed.detector_id)
                self._isolate_detector(case, detailed)
            return
        record = ChainRecord(
            kind=RecordKind.DETAILED_REPORT,
            record_id=detailed.report_id,
            payload=detailed.to_payload(),
            fee=self.runtime.gas.fee_wei("submit_detailed_report"),
            sender=detailed.wallet,
        )
        if self.runtime.state.balance(detailed.wallet) < record.fee:
            stats.reports_dropped += 1
            return
        if self.mining.submit(record):
            stats.detailed_reports_submitted += 1

    def _isolate_detector(self, case: ReleaseCase, detailed: DetailedReport) -> None:
        """Record a failed-AutoVerif detector in the contract's filter."""
        self.runtime.call(
            case.contract_address,
            "award_detailed_report",
            self._authority.address,
            0,
            "confirm_report",
            detailed.detector_id,
            detailed.wallet,
            detailed.body_hash(),
            detailed.vulnerability_keys(),
            False,
        )

    # -- Phase #3/#4: block events, confirmation triggers ----------------------

    def _on_block(self, event: MinedEvent) -> None:
        miner_name = event.miner_name
        miner_address = self.mining.miners[miner_name]
        self.blocks_mined[miner_name] += 1

        # Mint the block reward ν and collect record fees ψ·ω (Eq. 8).
        self.runtime.state.mint(miner_address, self.config.params.block_reward_wei)
        fee_records = [
            record
            for record in event.block.records
            if record.fee and record.sender is not None
        ]
        if fee_records:
            self._settle_fees(fee_records, miner_name, miner_address)

        # Gas of authority-triggered contract calls flows to this miner.
        self.runtime.fee_collector = miner_address
        self.runtime.advance_time(max(self.runtime.block_time, event.time))

        # Fire confirmation triggers for the block that just became final.
        confirmed_height = event.block.height - self.config.confirmation_depth
        if confirmed_height <= 0:
            return
        if confirmed_height in self._confirmed_heights:
            return
        self._confirmed_heights.add(confirmed_height)
        confirmed_block = self.mining.chain.block_at_height(confirmed_height)
        if confirmed_block is None:
            return
        for record in confirmed_block.records:
            self._on_record_confirmed(record)

    def _settle_fees(
        self,
        fee_records: Sequence[ChainRecord],
        miner_name: str,
        miner_address: Address,
    ) -> None:
        """Collect a block's record fees for the miner, batched by sender.

        Equivalent to transferring each record's fee in block order:
        fee-bearing senders are never *credited* during settlement (only
        the miner receives), so each sender's total settles in one
        transfer.  A sender that cannot cover its total falls back to
        the per-record greedy semantics (drop exactly the records the
        sequential loop would drop), and a block whose miner is itself a
        fee sender takes the per-record path outright — its balance
        changes mid-settlement.
        """
        state = self.runtime.state
        if any(record.sender == miner_address for record in fee_records):
            for record in fee_records:
                self._settle_fee_record(record, miner_name, miner_address)
            return
        totals: Dict[Address, int] = {}
        for record in fee_records:
            totals[record.sender] = totals.get(record.sender, 0) + record.fee
        for sender, total in totals.items():
            if state.balance(sender) >= total:
                state.transfer(sender, miner_address, total)
                self.fee_income_wei[miner_name] += total
                self.fee_records_collected[miner_name] += sum(
                    1 for record in fee_records if record.sender == sender
                )
                stats = self._stats_by_address.get(sender)
                if stats is not None:
                    stats.fees_paid_wei += total
            else:
                for record in fee_records:
                    if record.sender == sender:
                        self._settle_fee_record(record, miner_name, miner_address)

    def _settle_fee_record(
        self, record: ChainRecord, miner_name: str, miner_address: Address
    ) -> None:
        """Transfer one record's fee (the pre-batch sequential step)."""
        try:
            self.runtime.state.transfer(record.sender, miner_address, record.fee)
        except InsufficientFunds:
            return  # checked at submission; racing drain is dropped
        self.fee_income_wei[miner_name] += record.fee
        self.fee_records_collected[miner_name] += 1
        stats = self._stats_by_address.get(record.sender)
        if stats is not None:
            stats.fees_paid_wei += record.fee

    def _stats_for_address(self, address: Address) -> Optional[DetectorStats]:
        return self._stats_by_address.get(address)

    def _on_record_confirmed(self, record: ChainRecord) -> None:
        if record.kind == RecordKind.INITIAL_REPORT:
            self._confirm_initial(record)
        elif record.kind == RecordKind.DETAILED_REPORT:
            self._confirm_detailed(record)
        # SRA confirmation needs no trigger: the contract escrowed at deploy.

    def _confirm_initial(self, record: ChainRecord) -> None:
        initial = InitialReport.from_payload(record.payload)
        case = self.releases.get(initial.sra_id)
        if case is None:
            return
        receipt = self.runtime.call(
            case.contract_address,
            "confirm_initial_report",
            self._authority.address,
            0,
            "confirm_report",
            initial.detector_id,
            initial.wallet,
            initial.detailed_hash,
        )
        if receipt.success and receipt.return_value:
            # Commitment registered: the detector publishes R* now.
            self.schedule_at(self.now, lambda: self._submit_detailed(initial.report_id))

    def _confirm_detailed(self, record: ChainRecord) -> None:
        detailed = DetailedReport.from_payload(record.payload)
        case = self.releases.get(detailed.sra_id)
        if case is None:
            return
        before = self.runtime.state.balance(detailed.wallet)
        receipt = self.runtime.call(
            case.contract_address,
            "award_detailed_report",
            self._authority.address,
            0,
            "confirm_report",
            detailed.detector_id,
            detailed.wallet,
            detailed.body_hash(),
            detailed.vulnerability_keys(),
            True,
        )
        if not receipt.success:
            return
        paid = receipt.return_value or 0
        if paid > 0:
            stats = self.detector_stats.get(detailed.detector_id)
            if stats is not None:
                stats.bounties_won += len(
                    [e for e in receipt.events if e.name == "BountyPaid"]
                )
                stats.incentives_wei += paid
            case.awarded_counts[detailed.detector_id] = case.awarded_counts.get(
                detailed.detector_id, 0
            ) + len([e for e in receipt.events if e.name == "BountyPaid"])

    def _close_release(self, case: ReleaseCase) -> None:
        """End of detection window: refund (clean) or forfeit (vulnerable)."""
        if case.closed:
            return
        receipt = self.runtime.call(
            case.contract_address,
            "close",
            self._authority.address,
            0,
            "refund_insurance",
        )
        if not receipt.success:
            # Window may not have expired on the runtime clock yet
            # (block times are stochastic); retry shortly after.
            self.schedule_at(self.now + self.config.mean_block_time, lambda: self._close_release(case))
            return
        case.closed = True
        case.refunded_wei = receipt.return_value or 0
        forfeited = case.sra.body.insurance_wei - case.refunded_wei
        self.punishments_wei[case.provider_name] += forfeited

    # -- views ------------------------------------------------------------------

    def provider_balance(self, provider_name: str) -> int:
        """Current account balance of a provider, wei."""
        return self.runtime.state.balance(self.provider_keys[provider_name].address)

    def detector_balance(self, detector_id: str) -> int:
        """Current account balance of a detector, wei."""
        return self.runtime.state.balance(self.detector_keys[detector_id].address)

    def provider_incentives_wei(self, provider_name: str) -> int:
        """Eq. 8 income actually accrued: χ·ν + collected fees."""
        return (
            self.blocks_mined[provider_name] * self.config.params.block_reward_wei
            + self.fee_income_wei[provider_name]
        )

    def release_case(self, sra_id: bytes) -> Optional[ReleaseCase]:
        """Look up a tracked release."""
        return self.releases.get(sra_id)

    def economics_summary(self) -> EconomicsSummary:
        """Batch Eq. 7–10 accounting over the whole population.

        One vectorized pass through :mod:`repro.economics` instead of a
        per-entity loop, with every value re-derived by the scalar
        oracle (:class:`repro.economics.BatchParityError` on any
        divergence).  Semantics: ``n_i`` is the detector's measured
        findings and ``ρ_i`` its award proportion (clamped to 1 — a
        bounty per finding at most); a provider's Eq. 9 term uses the
        awarded counts against its releases at ρ = 1 (awards are
        confirmed on-chain by definition) plus one deployment per
        release.
        """
        params = self.config.params
        detector_ids = sorted(self.detector_stats)
        counts = [self.detector_stats[d].findings for d in detector_ids]
        rhos = [
            min(1.0, self.detector_stats[d].bounties_won / found) if found else 0.0
            for d, found in zip(detector_ids, counts)
        ]
        incentives, costs = crosscheck_detectors(params, counts, rhos)

        providers = sorted(self.blocks_mined)
        chis = [self.blocks_mined[p] for p in providers]
        omegas = [self.fee_records_collected[p] for p in providers]
        awarded: Dict[str, List[float]] = {p: [] for p in providers}
        deployed: Dict[str, int] = {p: 0 for p in providers}
        for case in self.releases.values():
            deployed[case.provider_name] += 1
            awarded[case.provider_name].extend(
                float(count) for count in case.awarded_counts.values()
            )
        provider_inc, provider_pun = crosscheck_providers(
            params,
            chis,
            omegas,
            [awarded[p] for p in providers],
            [[1.0] * len(awarded[p]) for p in providers],
            [deployed[p] for p in providers],
        )
        return EconomicsSummary(
            detector_incentives_wei=dict(zip(detector_ids, incentives)),
            detector_costs_wei=dict(zip(detector_ids, costs)),
            provider_incentives_wei=dict(zip(providers, provider_inc)),
            provider_punishments_wei=dict(zip(providers, provider_pun)),
        )

    def finish_pending(self, max_extra_time: float = 3600.0) -> None:
        """Run until all open releases are closed (bounded)."""
        deadline = self.now + max_extra_time
        while self.now < deadline and any(
            not case.closed for case in self.releases.values()
        ):
            self.advance_for(self.config.mean_block_time * 8)
