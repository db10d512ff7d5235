"""Retrospective detection — security notifications after deployment.

The paper's companion system SmartRetro (cited in §IX, [46])
"automatically sends security notifications to IoT consumers once
discovering any vulnerabilities" — covering the case SmartCrowd's
deploy-time reference misses: a consumer deploys a system that *looks*
clean, and a flaw is confirmed on chain only later (a re-detection
round, a slow detector, a new scanner generation).

Implemented as an on-chain monitor: consumers register what they
deployed; :meth:`RetrospectiveMonitor.poll` diffs the confirmed
detailed reports of each deployed release against what that deployment
has already been told, emitting one :class:`SecurityNotification` per
newly confirmed flaw.  Everything is derived from public chain state,
read through the same :class:`~repro.query.indices.ChainIndex` view as
:class:`~repro.core.consumer.ConsumerClient` — the monitor holds no
private data and no chain cursor of its own, and any party can run it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.chain.chain import Blockchain
from repro.core.consumer import ConsumerClient, _descriptions, _release_reports
from repro.detection.descriptions import VulnerabilityDescription

__all__ = ["Deployment", "SecurityNotification", "RetrospectiveMonitor"]


@dataclass(frozen=True)
class Deployment:
    """One consumer's deployed system version."""

    consumer_id: str
    system_name: str
    system_version: str

    @property
    def release_key(self) -> Tuple[str, str]:
        return (self.system_name, self.system_version)


@dataclass(frozen=True)
class SecurityNotification:
    """A post-deployment alert: your deployed system has a confirmed flaw."""

    consumer_id: str
    system_name: str
    system_version: str
    description: VulnerabilityDescription
    detected_by: str

    @property
    def vulnerability_key(self) -> str:
        return self.description.canonical


class RetrospectiveMonitor:
    """Watches the public chain and alerts affected consumers.

    The chain is read through a :class:`ConsumerClient`'s index; the
    monitor's own state is only the registered deployments and the
    vulnerability keys each one has been told about.
    """

    def __init__(self, chain: Blockchain) -> None:
        self.chain = chain
        self._consumer = ConsumerClient(chain)
        self._deployments: List[Deployment] = []
        #: deployment -> vulnerability keys already notified
        self._notified: Dict[Deployment, Set[str]] = {}
        self.notifications_sent = 0

    # -- registration ------------------------------------------------------

    def register_deployment(
        self, consumer_id: str, system_name: str, system_version: str
    ) -> Deployment:
        """A consumer records that it deployed a release."""
        deployment = Deployment(
            consumer_id=consumer_id,
            system_name=system_name,
            system_version=system_version,
        )
        if deployment not in self._notified:
            self._deployments.append(deployment)
            self._notified[deployment] = set()
        return deployment

    def unregister_deployment(self, deployment: Deployment) -> None:
        """Stop monitoring (e.g. the consumer retired the device)."""
        if deployment in self._notified:
            self._deployments.remove(deployment)
            del self._notified[deployment]

    def deployments_of(self, consumer_id: str) -> List[Deployment]:
        """All active deployments registered by one consumer."""
        return [d for d in self._deployments if d.consumer_id == consumer_id]

    def poll(self) -> List[SecurityNotification]:
        """Alert deployments of flaws confirmed since they were last told.

        Each (deployment, vulnerability) pair is notified exactly once,
        however many detectors re-describe the same flaw (N-version
        dedup via canonical keys); a release's flaws are visited in
        chain order across all of its SRAs.  Only reports carrying a
        not-yet-notified key are decoded.
        """
        index = self._consumer.index
        notifications: List[SecurityNotification] = []
        for deployment in self._deployments:
            seen = self._notified[deployment]
            sras = index.sras(
                system=deployment.system_name, version=deployment.system_version
            )
            for report in _release_reports(index, sras):
                if seen.issuperset(report.vulnerability_keys):
                    continue
                for description in _descriptions(index, report):
                    if description.canonical in seen:
                        continue
                    seen.add(description.canonical)
                    notifications.append(
                        SecurityNotification(
                            consumer_id=deployment.consumer_id,
                            system_name=deployment.system_name,
                            system_version=deployment.system_version,
                            description=description,
                            detected_by=report.detector_id,
                        )
                    )
        self.notifications_sent += len(notifications)
        return notifications
