"""Consumer reference queries — the "authoritative reference" feature.

"Consumers can access the public blockchain for learning the
authoritative references regarding with the security of IoT systems.
They can deploy IoT systems only if no (or less) vulnerability is
discovered" (§IV-A).  The client here reads *only* what a consumer
could read — confirmed chain records — never the simulation's ground
truth, so tests can check that the public view converges to the truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.chain.chain import Blockchain
from repro.core.reports import DetailedReport
from repro.detection.descriptions import VulnerabilityDescription, deduplicate
from repro.detection.vulnerability import Severity

if TYPE_CHECKING:
    from repro.query.indices import ChainIndex, ReportEntry, SraEntry

__all__ = ["SecurityReference", "ProviderTrackRecord", "ConsumerClient"]


@dataclass(frozen=True)
class SecurityReference:
    """What a consumer learns about one release before deploying it."""

    system_name: str
    system_version: str
    provider_id: str
    sra_confirmed: bool
    vulnerabilities: Tuple[VulnerabilityDescription, ...]

    @property
    def vulnerability_count(self) -> int:
        """Distinct confirmed vulnerabilities."""
        return len(self.vulnerabilities)

    @property
    def is_clean_so_far(self) -> bool:
        """True if no confirmed vulnerability has been recorded yet."""
        return not self.vulnerabilities

    def counts_by_severity(self) -> Dict[Severity, int]:
        """High/medium/low tallies for display."""
        counts = {severity: 0 for severity in Severity}
        for description in self.vulnerabilities:
            counts[description.severity] += 1
        return counts


@dataclass(frozen=True)
class ProviderTrackRecord:
    """A provider's accountability history, derived from the chain."""

    provider_id: str
    releases: int
    vulnerable_releases: int
    total_confirmed_vulnerabilities: int

    @property
    def vulnerable_fraction(self) -> float:
        """Observed VP: fraction of releases with confirmed flaws."""
        if self.releases == 0:
            return 0.0
        return self.vulnerable_releases / self.releases


class ConsumerClient:
    """Reads the public chain to answer deploy-or-not questions.

    Every answer comes from one :class:`~repro.query.indices.ChainIndex`
    over ``chain`` (:attr:`index`), which folds in only the blocks
    confirmed since the previous call; the index is built on the first
    query, so constructing a client costs nothing.
    """

    def __init__(self, chain: Blockchain) -> None:
        self.chain = chain
        self._index: Optional[ChainIndex] = None

    @property
    def index(self) -> ChainIndex:
        """The confirmed release view: SRAs joined to their reports."""
        if self._index is None:
            # Imported here: repro.query.indices imports repro.core.reports
            # and repro.core.sra, so a module-level import is a cycle.
            from repro.query.indices import ChainIndex

            self._index = ChainIndex(self.chain)
        return self._index

    def lookup(
        self, system_name: str, system_version: str
    ) -> Optional[SecurityReference]:
        """The authoritative reference for one release, or None if no
        confirmed SRA exists for it yet.

        Aggregates across all confirmed SRAs of the release — a
        re-detection round (SmartRetro-style) publishes a second SRA
        for the same version, and its findings belong to the same
        reference.
        """
        index = self.index
        sras = index.sras(system=system_name, version=system_version)
        if not sras:
            return None
        descriptions: List[VulnerabilityDescription] = []
        for report in _release_reports(index, sras):
            descriptions.extend(_descriptions(index, report))
        return SecurityReference(
            system_name=system_name,
            system_version=system_version,
            provider_id=sras[0].provider_id,
            sra_confirmed=True,
            vulnerabilities=tuple(deduplicate(descriptions)),
        )

    def should_deploy(
        self,
        system_name: str,
        system_version: str,
        max_vulnerabilities: int = 0,
    ) -> bool:
        """The consumer's decision rule: deploy only if the confirmed
        vulnerability count is within tolerance (and the SRA exists)."""
        reference = self.lookup(system_name, system_version)
        if reference is None:
            return False  # unannounced software: never deploy
        return reference.vulnerability_count <= max_vulnerabilities

    def provider_track_record(self, provider_id: str) -> ProviderTrackRecord:
        """Accountability summary over all of a provider's releases.

        A release is a (name, version): a re-detection round's SRA
        belongs to the release it reopens, as in :meth:`lookup`, and
        counts its flaws once however many rounds confirmed them.
        """
        index = self.index
        flaws: Dict[Tuple[str, str], Set[str]] = {}
        for sra in index.sras(provider=provider_id):
            keys = flaws.setdefault(sra.release_key, set())
            for report in index.reports(sra_id=sra.sra_id):
                keys.update(report.vulnerability_keys)
        vulnerable = [keys for keys in flaws.values() if keys]
        return ProviderTrackRecord(
            provider_id=provider_id,
            releases=len(flaws),
            vulnerable_releases=len(vulnerable),
            total_confirmed_vulnerabilities=sum(map(len, vulnerable)),
        )


def _release_reports(
    index: ChainIndex, sras: List[SraEntry]
) -> List[ReportEntry]:
    """The confirmed reports filed against ``sras``, in chain order
    (a re-detection round's reports interleave with the first round's)."""
    return sorted(
        (report for sra in sras for report in index.reports(sra_id=sra.sra_id)),
        key=lambda report: report.location,
    )


def _descriptions(
    index: ChainIndex, report: ReportEntry
) -> Tuple[VulnerabilityDescription, ...]:
    """Decode one indexed report's descriptions from its chain record."""
    record = index.get_record(report.record_id)
    return DetailedReport.from_payload(record.payload).descriptions
