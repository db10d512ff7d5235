"""The chaos gauntlet: the full SmartCrowd workflow under injected faults.

One gauntlet run builds a :class:`~repro.core.stakeholders.DecentralizedDeployment`
(real two-phase report traffic, per-replica chains, on-chain contracts),
arms a seeded :class:`~repro.faults.plan.ChaosPlan` over it — node
crashes and restarts, message loss, duplication, delay spikes, and a
timed two-way partition — lets the system run through the chaos, then
gives it a quiet settling window and checks:

* every :class:`~repro.faults.invariants.InvariantChecker` invariant
  (ledger conservation, unique confirmed reports, single-tip
  convergence, insurance accounting);
* the retry acceptance criterion — every detailed report a detector
  published lands on the canonical chain **exactly once**, despite
  crashes, drops, and retransmissions.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.chain.ledger import LedgerStateMachine
from repro.chain.pow import PAPER_HASHPOWER_SHARES
from repro.core.stakeholders import DecentralizedDeployment
from repro.detection import build_detector_fleet, build_system
from repro.faults.injector import FaultInjector
from repro.faults.invariants import (
    InvariantChecker,
    InvariantReport,
    confirmed_chain_bytes,
)
from repro.faults.plan import ChaosPlan
from repro.faults.retry import RetryPolicy
from repro.store import fsck
from repro.telemetry import NULL_TELEMETRY, Telemetry

__all__ = [
    "DISK_SCENARIOS",
    "DiskGauntletResult",
    "GauntletConfig",
    "GauntletResult",
    "run_disk_fault_gauntlet",
    "run_disk_fault_suite",
    "run_gauntlet",
    "run_many",
]


@dataclass(frozen=True)
class GauntletConfig:
    """Everything one gauntlet run depends on, for reproducibility."""

    seed: int = 0
    detector_threads: Tuple[int, ...] = (2, 5, 8)
    vulnerability_count: int = 3
    #: chaos window: faults are injected in [0, chaos_duration)
    chaos_duration: float = 1800.0
    epoch: float = 120.0
    crash_probability: float = 0.2
    loss_rate: float = 0.10
    duplication_rate: float = 0.05
    delay_spike: float = 2.0
    partition: bool = True
    crash_detectors: bool = True
    #: a near-total outage window [burst_start, burst_end) that forces
    #: the detector retry path: reports gossiped into it reach nobody
    burst_loss_rate: float = 0.9
    burst_start: float = 90.0
    burst_end: float = 300.0
    #: announce a second release mid-chaos (just before the partition)
    #: so fresh reports ride through the split and the heal reorg
    second_announce: bool = True
    #: quiet time after the chaos window before invariants are checked
    settle_time: float = 900.0
    #: extra bounded convergence rounds (60 s each) if still unsettled
    max_settle_rounds: int = 40
    retry_policy: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            deadline=180.0, base_backoff=45.0, max_attempts=6
        )
    )

    def __post_init__(self) -> None:
        if self.chaos_duration <= 0 or self.settle_time < 0:
            raise ValueError("need positive chaos window and non-negative settle")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        if not 0.0 <= self.duplication_rate < 1.0:
            raise ValueError("duplication rate must be in [0, 1)")
        if not 0.0 <= self.burst_loss_rate < 1.0:
            raise ValueError("burst loss rate must be in [0, 1)")
        if self.burst_loss_rate > 0 and not (
            0 <= self.burst_start < self.burst_end <= self.chaos_duration
        ):
            raise ValueError("burst window must sit inside the chaos window")


@dataclass
class GauntletResult:
    """Outcome of one gauntlet run."""

    seed: int
    blocks_mined: int
    faults_applied: int
    fault_log: List[Tuple[float, str]]
    invariants: InvariantReport
    confirmed_reports: int
    missing_reports: List[str]
    duplicate_reports: List[str]
    converged: bool
    network: Dict[str, object]

    @property
    def ok(self) -> bool:
        """All invariants hold, each report on-chain exactly once."""
        return (
            self.invariants.ok
            and self.converged
            and not self.missing_reports
            and not self.duplicate_reports
        )

    def assert_ok(self) -> None:
        """Raise AssertionError with every problem if the run failed."""
        problems: List[str] = [str(v) for v in self.invariants.violations]
        if not self.converged:
            problems.append("replicas did not converge to a single tip")
        problems.extend(f"missing on-chain: {m}" for m in self.missing_reports)
        problems.extend(f"duplicated on-chain: {d}" for d in self.duplicate_reports)
        if problems:
            lines = "\n".join(f"  - {problem}" for problem in problems)
            raise AssertionError(f"gauntlet seed {self.seed} failed:\n{lines}")

    def render(self) -> str:
        """Human-readable run report."""
        lines = [
            f"gauntlet seed={self.seed}: "
            f"{'PASS' if self.ok else 'FAIL'} "
            f"({self.blocks_mined} blocks, {self.faults_applied} faults, "
            f"{self.confirmed_reports} reports confirmed exactly once)",
            f"  retries: {self.network.get('initial_retries', 0)} initial, "
            f"{self.network.get('detailed_retries', 0)} detailed; "
            f"resyncs: {self.network.get('resyncs_performed', 0)}; "
            f"records resubmitted after reorgs: "
            f"{self.network.get('records_resubmitted', 0)}",
            f"  transport: {self.network.get('messages_dropped', 0)} dropped, "
            f"{self.network.get('messages_duplicated', 0)} duplicated, "
            f"{self.network.get('messages_lost_to_crashes', 0)} lost to crashes",
        ]
        lines.append("  " + self.invariants.render().replace("\n", "\n  "))
        for missing in self.missing_reports:
            lines.append(f"  MISSING {missing}")
        for duplicate in self.duplicate_reports:
            lines.append(f"  DUPLICATE {duplicate}")
        return "\n".join(lines)


def _build_plan(config: GauntletConfig, deployment: DecentralizedDeployment,
                rng: random.Random) -> ChaosPlan:
    """The seeded chaos schedule for one run."""
    providers = list(deployment.providers)
    detectors = list(deployment.detectors)
    plan = ChaosPlan()
    end = config.chaos_duration
    if config.loss_rate > 0:
        plan.set_loss(config.loss_rate, at=0.0).set_loss(0.0, at=end)
    if config.burst_loss_rate > 0:
        plan.set_loss(config.burst_loss_rate, at=config.burst_start)
        plan.set_loss(config.loss_rate, at=config.burst_end)
    if config.duplication_rate > 0:
        plan.set_duplication(config.duplication_rate, at=0.0)
        plan.set_duplication(0.0, at=end)
    if config.delay_spike > 0:
        plan.delay_spike(config.delay_spike, at=0.0, until=end)
    if config.partition:
        # One timed two-way split with hashpower on both sides.
        side_a = tuple(providers[::2]) + tuple(detectors[::2])
        side_b = tuple(providers[1::2]) + tuple(detectors[1::2])
        plan.partition(side_a, side_b, at=end * 0.35, heal_at=end * 0.55)
    crashable = providers + (detectors if config.crash_detectors else [])
    random_part = ChaosPlan.random(
        crashable,
        duration=config.chaos_duration,
        epoch=config.epoch,
        crash_probability=config.crash_probability,
        rng=rng,
    )
    plan.events.extend(random_part.events)
    return plan.sort()


def _unsettled_reports(deployment: DecentralizedDeployment) -> bool:
    """True while some published R* has not been confirmed on-chain."""
    for detector in deployment.detectors.values():
        for initial_id in detector._pending_detailed:
            if initial_id not in detector._published:
                if initial_id in detector._record_heights:
                    return True  # R† mined, burial depth still pending
        if detector._awaiting_detailed:
            return True
    return False


def run_gauntlet(
    config: Optional[GauntletConfig] = None,
    telemetry: Optional[Telemetry] = None,
) -> GauntletResult:
    """One full chaos gauntlet run; deterministic in ``config.seed``.

    Pass a :class:`~repro.telemetry.Telemetry` to capture metrics and a
    simulation-clock trace of the run (faults injected vs transport
    effects observed, post-heal convergence time, a summary event);
    telemetry never draws from the RNGs, so an instrumented run follows
    the exact trajectory of an uninstrumented one for the same seed.
    """
    config = config if config is not None else GauntletConfig()
    telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
    rng = random.Random(config.seed)

    deployment = DecentralizedDeployment(
        PAPER_HASHPOWER_SHARES,
        build_detector_fleet(
            thread_counts=config.detector_threads, seed=config.seed
        ),
        seed=config.seed,
        # Keep the bounty window open through chaos + settling so late
        # (retried) reports are still judged on their merits.
        detection_window=config.chaos_duration + config.settle_time + 3600.0,
        retry_policy=config.retry_policy,
        telemetry=telemetry,
    )
    system = build_system(
        f"gauntlet-{config.seed}",
        vulnerability_count=config.vulnerability_count,
        rng=random.Random(config.seed + 1),
    )
    deployment.announce("provider-1", system)

    plan = _build_plan(config, deployment, rng)
    injector = FaultInjector(
        deployment.simulator, deployment.network, plan,
        rng=random.Random(config.seed + 2),
        telemetry=telemetry,
    )
    injector.arm()

    horizon = config.chaos_duration + config.settle_time
    mined = 0
    if config.second_announce:
        # Second release just ahead of the partition: its reports are
        # submitted into the split and must survive the heal reorg.
        second_at = config.chaos_duration * 0.33
        mined += deployment.advance_for(second_at)
        announcer = next(
            (p for p in deployment.providers.values() if not p.crashed), None
        )
        if announcer is not None:
            deployment.announce(
                announcer.name,
                build_system(
                    f"gauntlet-{config.seed}-b",
                    vulnerability_count=config.vulnerability_count,
                    rng=random.Random(config.seed + 3),
                ),
            )
        mined += deployment.advance_for(horizon - second_at)
    else:
        mined += deployment.advance_for(horizon)
    # Bounded extra rounds: keep mining quietly until every replica
    # agrees on one tip and every published report is confirmed.
    converged_at: Optional[float] = None
    for _ in range(config.max_settle_rounds):
        deployment.simulator.advance()
        if deployment.converged() and not _unsettled_reports(deployment):
            converged_at = deployment.simulator.now
            break
        mined += deployment.advance_for(60.0)
    deployment.simulator.advance()
    if converged_at is None and deployment.converged():
        converged_at = deployment.simulator.now

    checker = InvariantChecker.for_deployment(deployment)
    invariants = checker.run_all()

    confirmed = 0
    missing: List[str] = []
    duplicates: List[str] = []
    for name, detector in sorted(deployment.detectors.items()):
        for detailed_id in sorted(detector.detailed_ids):
            counts = checker.record_occurrences(detailed_id)
            label = f"{name} R* {detailed_id.hex()[:12]}"
            if any(count > 1 for count in counts.values()):
                duplicates.append(f"{label} counts={counts}")
            elif any(count == 0 for count in counts.values()):
                missing.append(f"{label} counts={counts}")
            else:
                confirmed += 1

    network = deployment.summary()
    if telemetry.enabled:
        # Injected vs observed: faults.injected counters record what the
        # plan did; the gossip.messages counters record what the
        # transport actually dropped/duplicated under those faults.
        telemetry.gauge("gauntlet.faults_applied").set(injector.faults_applied)
        if converged_at is not None:
            # Upper bound at settle-round granularity: the first point
            # we *observe* a single tip, not the instant it formed.
            telemetry.gauge("gauntlet.post_heal_convergence_seconds").set(
                max(0.0, converged_at - config.chaos_duration)
            )
        telemetry.event(
            "gauntlet.summary",
            seed=config.seed,
            blocks_mined=mined,
            faults_injected=injector.faults_applied,
            messages_dropped=network.get("messages_dropped", 0),
            messages_duplicated=network.get("messages_duplicated", 0),
            messages_lost_to_crashes=network.get(
                "messages_lost_to_crashes", 0
            ),
            confirmed_reports=confirmed,
            converged=deployment.converged(),
        )

    return GauntletResult(
        seed=config.seed,
        blocks_mined=mined,
        faults_applied=injector.faults_applied,
        fault_log=list(injector.log),
        invariants=invariants,
        confirmed_reports=confirmed,
        missing_reports=missing,
        duplicate_reports=duplicates,
        converged=deployment.converged(),
        network=network,
    )


def run_many(seeds: Tuple[int, ...] = (0, 1, 2), **overrides) -> List[GauntletResult]:
    """Run the gauntlet across seeds (the ≥3-seed acceptance sweep)."""
    results = []
    for seed in seeds:
        results.append(run_gauntlet(GauntletConfig(seed=seed, **overrides)))
    return results


# -- disk-fault gauntlet ------------------------------------------------------

#: The three on-disk corruption shapes the store must survive.
DISK_SCENARIOS: Tuple[str, ...] = ("torn_write", "bit_flip", "drop_snapshot")


@dataclass
class DiskGauntletResult:
    """Outcome of one store-backed crash/corrupt/recover run."""

    seed: int
    scenario: str
    victim: str
    blocks_mined: int
    faults_applied: int
    fault_log: List[Tuple[float, str]]
    #: fsck ran against the corrupted store while the victim was down.
    corruption_detected: bool
    corruption_kinds: List[str]
    store_recoveries: int
    #: Post-heal: confirmed canonical prefix byte-identical to a
    #: never-crashed replica's.
    chain_match: bool
    #: Post-heal: store-replayed ledger equals a from-genesis replay.
    ledger_match: bool
    #: Post-heal: fsck reports the recovered store clean.
    fsck_clean_after: bool
    converged: bool

    @property
    def ok(self) -> bool:
        """Corruption was detected, then fully healed."""
        return (
            self.corruption_detected
            and self.store_recoveries >= 1
            and self.chain_match
            and self.ledger_match
            and self.fsck_clean_after
            and self.converged
        )

    def assert_ok(self) -> None:
        """Raise AssertionError with every problem if the run failed."""
        problems: List[str] = []
        if not self.corruption_detected:
            problems.append(
                "fsck did not flag the corrupted store while the node was down"
            )
        if self.store_recoveries < 1:
            problems.append("restart never went through store recovery")
        if not self.chain_match:
            problems.append(
                "recovered confirmed chain differs from the never-crashed replica"
            )
        if not self.ledger_match:
            problems.append(
                "store-replayed ledger differs from a from-genesis replay"
            )
        if not self.fsck_clean_after:
            problems.append("fsck still reports issues after recovery")
        if not self.converged:
            problems.append("replicas did not converge to a single tip")
        if problems:
            lines = "\n".join(f"  - {problem}" for problem in problems)
            raise AssertionError(
                f"disk gauntlet seed {self.seed} "
                f"scenario {self.scenario!r} failed:\n{lines}"
            )

    def render(self) -> str:
        """Human-readable run report."""
        detected = ", ".join(self.corruption_kinds) or "none"
        return (
            f"disk gauntlet seed={self.seed} scenario={self.scenario}: "
            f"{'PASS' if self.ok else 'FAIL'} "
            f"({self.blocks_mined} blocks, {self.faults_applied} faults, "
            f"victim={self.victim}, detected=[{detected}], "
            f"recoveries={self.store_recoveries}, "
            f"chain_match={self.chain_match}, ledger_match={self.ledger_match}, "
            f"fsck_clean_after={self.fsck_clean_after})"
        )


def run_disk_fault_gauntlet(
    scenario: str,
    seed: int = 0,
    store_dir: Optional[str] = None,
    snapshot_interval: int = 4,
) -> DiskGauntletResult:
    """One store-backed crash/corrupt/recover run; deterministic in ``seed``.

    A five-replica serial :class:`~repro.shard.engine.ShardedSimulator`
    persists every replica to disk.  The plan crashes one victim, hits
    its (now process-less) store with the requested disk fault, and
    restarts it; while the victim is down an fsck probe must *detect*
    the injected corruption, and after the heal the recovered replica's
    confirmed chain must be byte-identical to a never-crashed one, its
    store-replayed ledger must equal a from-genesis replay, and fsck
    must come back clean.

    ``store_dir`` defaults to a fresh temp directory removed before
    returning; pass a path to keep the stores for inspection.
    """
    from repro.shard import FleetSpec, ShardedSimulator  # noqa: PLC0415 - cycle

    if scenario not in DISK_SCENARIOS:
        raise ValueError(
            f"unknown disk scenario {scenario!r}; pick one of {DISK_SCENARIOS}"
        )
    cleanup = store_dir is None
    root = (
        Path(tempfile.mkdtemp(prefix="repro-disk-gauntlet-"))
        if store_dir is None
        else Path(store_dir)
    )
    try:
        shares = {f"provider-{i}": 0.2 for i in range(1, 6)}
        fleet = ShardedSimulator(
            FleetSpec(
                full_nodes=len(shares),
                store_dir=str(root),
                store_snapshot_interval=snapshot_interval,
            ),
            shares,
            mean_block_time=5.0,
            seed=seed,
        )
        names = sorted(shares)
        victim = names[seed % len(names)]
        reference = next(name for name in names if name != victim)

        plan = ChaosPlan().crash(victim, at=150.0)
        if scenario == "torn_write":
            plan.torn_write(victim, at=170.0)
        elif scenario == "bit_flip":
            plan.bit_flip(victim, at=170.0)
        else:
            plan.drop_snapshot(victim, at=170.0)
        plan.restart(victim, at=230.0)
        injector = FaultInjector(
            fleet.simulator, fleet.network, plan, rng=random.Random(seed + 11)
        )
        injector.arm()

        victim_node = fleet.replicas[victim]
        assert victim_node.store is not None
        probe: Dict[str, object] = {}

        def _probe_down_store() -> None:
            # What an operator's fsck would see on the dead node's disk.
            report = fsck(victim_node.store.path)
            probe["ok"] = report.ok
            probe["kinds"] = sorted({issue.kind for issue in report.issues})

        fleet.simulator.schedule_at(200.0, _probe_down_store)

        while fleet.now < 420.0:
            fleet.step()
        fleet.finalize()

        machine = LedgerStateMachine()
        state, nonces = machine.replay(fleet.replicas[victim].chain)
        replay = victim_node.store.replay_ledger()
        ledger_match = (
            replay.state.snapshot() == state.snapshot()
            and replay.nonces == nonces
        )
        result = DiskGauntletResult(
            seed=seed,
            scenario=scenario,
            victim=victim,
            blocks_mined=fleet.blocks_mined,
            faults_applied=injector.faults_applied,
            fault_log=list(injector.log),
            corruption_detected=probe.get("ok") is False,
            corruption_kinds=list(probe.get("kinds", [])),
            store_recoveries=victim_node.store_recoveries,
            chain_match=(
                confirmed_chain_bytes(fleet.replicas[victim].chain)
                == confirmed_chain_bytes(fleet.replicas[reference].chain)
                != b""
            ),
            ledger_match=ledger_match,
            fsck_clean_after=fsck(victim_node.store.path).ok,
            converged=fleet.converged(),
        )
        fleet.close()
        return result
    finally:
        if cleanup:
            shutil.rmtree(root, ignore_errors=True)


def run_disk_fault_suite(
    seeds: Tuple[int, ...] = (0, 1, 2),
    scenarios: Tuple[str, ...] = DISK_SCENARIOS,
) -> List[DiskGauntletResult]:
    """The acceptance sweep: every disk scenario under every seed."""
    results = []
    for scenario in scenarios:
        for seed in seeds:
            results.append(run_disk_fault_gauntlet(scenario, seed=seed))
    return results
