"""Full-scan oracles for the consumer-side readers of the chain.

:class:`~repro.core.consumer.ConsumerClient`,
:class:`~repro.core.reputation.ReputationEngine` and
:class:`~repro.core.retrospective.RetrospectiveMonitor` answer from one
incrementally maintained :class:`~repro.query.indices.ChainIndex`.  The
functions here are the forms those readers replaced: each call decodes
every confirmed payload on the chain, so any drift between the index
and the chain is a test failure, not a silent wrong answer.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from repro.chain.block import RecordKind
from repro.chain.chain import Blockchain
from repro.core.consumer import ProviderTrackRecord, SecurityReference
from repro.core.reports import DetailedReport
from repro.core.reputation import (
    PRIOR_CLEAN,
    PRIOR_VULNERABLE,
    STAKE_SATURATION_ETHER,
    ProviderReputation,
)
from repro.core.retrospective import Deployment, SecurityNotification
from repro.core.sra import SignedSRA
from repro.detection.descriptions import VulnerabilityDescription, deduplicate
from repro.units import from_wei

Release = Tuple[str, str]


def confirmed_sras(chain: Blockchain) -> List[SignedSRA]:
    """Every confirmed SRA, in chain order."""
    return [
        SignedSRA.from_payload(record.payload)
        for record in chain.confirmed_records(RecordKind.SRA)
    ]


def confirmed_detailed_reports(chain: Blockchain) -> List[DetailedReport]:
    """Every confirmed detailed report, in chain order."""
    return [
        DetailedReport.from_payload(record.payload)
        for record in chain.confirmed_records(RecordKind.DETAILED_REPORT)
    ]


def full_scan_lookup(
    chain: Blockchain, system_name: str, system_version: str
) -> Optional[SecurityReference]:
    """``ConsumerClient.lookup`` as a rescan of every confirmed payload."""
    matching = [
        sra
        for sra in confirmed_sras(chain)
        if sra.body.system_name == system_name
        and sra.body.system_version == system_version
    ]
    if not matching:
        return None
    sra_ids = {sra.sra_id for sra in matching}
    descriptions: List[VulnerabilityDescription] = []
    for report in confirmed_detailed_reports(chain):
        if report.sra_id in sra_ids:
            descriptions.extend(report.descriptions)
    return SecurityReference(
        system_name=system_name,
        system_version=system_version,
        provider_id=matching[0].body.provider_id,
        sra_confirmed=True,
        vulnerabilities=tuple(deduplicate(descriptions)),
    )


def full_scan_should_deploy(
    chain: Blockchain,
    system_name: str,
    system_version: str,
    max_vulnerabilities: int = 0,
) -> bool:
    reference = full_scan_lookup(chain, system_name, system_version)
    if reference is None:
        return False
    return reference.vulnerability_count <= max_vulnerabilities


def full_scan_track_record(
    chain: Blockchain, provider_id: str
) -> ProviderTrackRecord:
    """A provider's releases, grouped by (name, version) like ``lookup``."""
    reports = confirmed_detailed_reports(chain)
    flaws: Dict[Release, Set[str]] = {}
    for sra in confirmed_sras(chain):
        if sra.body.provider_id != provider_id:
            continue
        keys = flaws.setdefault(
            (sra.body.system_name, sra.body.system_version), set()
        )
        for report in reports:
            if report.sra_id == sra.sra_id:
                keys.update(report.vulnerability_keys())
    vulnerable = [keys for keys in flaws.values() if keys]
    return ProviderTrackRecord(
        provider_id=provider_id,
        releases=len(flaws),
        vulnerable_releases=len(vulnerable),
        total_confirmed_vulnerabilities=sum(len(keys) for keys in vulnerable),
    )


def full_scan_ranking(chain: Blockchain) -> List[ProviderReputation]:
    """``ReputationEngine.ranking`` with every input rescanned."""
    staked: Dict[str, List[int]] = {}
    for sra in confirmed_sras(chain):
        staked.setdefault(sra.body.provider_id, []).append(sra.body.insurance_wei)
    reputations = []
    for provider_id in sorted(staked):
        track = full_scan_track_record(chain, provider_id)
        insurances = staked[provider_id]
        mean_insurance = from_wei(sum(insurances)) / len(insurances)
        clean = track.releases - track.vulnerable_releases
        clean_rate = (clean + PRIOR_CLEAN) / (
            track.releases + PRIOR_CLEAN + PRIOR_VULNERABLE
        )
        stake_weight = 1.0 - math.exp(-mean_insurance / STAKE_SATURATION_ETHER)
        reputations.append(
            ProviderReputation(
                provider_id=provider_id,
                releases=track.releases,
                vulnerable_releases=track.vulnerable_releases,
                total_confirmed_vulnerabilities=track.total_confirmed_vulnerabilities,
                mean_insurance_ether=mean_insurance,
                score=clean_rate * (0.5 + 0.5 * stake_weight),
            )
        )
    reputations.sort(key=lambda reputation: reputation.score, reverse=True)
    return reputations


def confirmed_flaws_by_release(
    chain: Blockchain,
) -> Dict[Release, List[Tuple[VulnerabilityDescription, str]]]:
    """(name, version) -> [(description, detector_id)] in chain order."""
    release_of_sra: Dict[bytes, Release] = {
        sra.sra_id: (sra.body.system_name, sra.body.system_version)
        for sra in confirmed_sras(chain)
    }
    flaws: Dict[Release, List[Tuple[VulnerabilityDescription, str]]] = {}
    for report in confirmed_detailed_reports(chain):
        release = release_of_sra.get(report.sra_id)
        if release is None:
            continue
        for description in report.descriptions:
            flaws.setdefault(release, []).append((description, report.detector_id))
    return flaws


class FullScanMonitor:
    """``RetrospectiveMonitor`` re-deriving every flaw on each poll."""

    def __init__(self, chain: Blockchain) -> None:
        self.chain = chain
        self._notified: Dict[Deployment, Set[str]] = {}

    def register_deployment(
        self, consumer_id: str, system_name: str, system_version: str
    ) -> None:
        self._notified.setdefault(
            Deployment(consumer_id, system_name, system_version), set()
        )

    def poll(self) -> List[SecurityNotification]:
        flaws = confirmed_flaws_by_release(self.chain)
        notifications: List[SecurityNotification] = []
        for deployment, seen in self._notified.items():
            for description, detector_id in flaws.get(deployment.release_key, []):
                if description.canonical in seen:
                    continue
                seen.add(description.canonical)
                notifications.append(
                    SecurityNotification(
                        consumer_id=deployment.consumer_id,
                        system_name=deployment.system_name,
                        system_version=deployment.system_version,
                        description=description,
                        detected_by=detector_id,
                    )
                )
        return notifications
