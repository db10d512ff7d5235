"""Tests for the message-driven decentralized deployment."""

import random

import pytest

from repro.adversary.attacks import spoof_sra
from repro.chain.pow import PAPER_HASHPOWER_SHARES
from repro.core.stakeholders import DecentralizedDeployment
from repro.crypto.keys import KeyPair
from repro.detection import build_detector_fleet, build_system
from repro.detection.iot_system import repackage_with_malware
from repro.network.messages import MessageKind
from repro.units import to_wei


@pytest.fixture(scope="module")
def settled():
    deployment = DecentralizedDeployment(
        PAPER_HASHPOWER_SHARES,
        build_detector_fleet(thread_counts=(2, 5, 8), seed=81),
        seed=81,
    )
    system = build_system("dd-cam", vulnerability_count=3, rng=random.Random(1))
    sra = deployment.announce("provider-1", system)
    deployment.advance_for(900.0)
    return deployment, sra, system


class TestWorkflowOverMessages:
    def test_advance_for_returns_blocks_mined(self):
        deployment = DecentralizedDeployment(
            PAPER_HASHPOWER_SHARES,
            build_detector_fleet(thread_counts=(2, 5), seed=12),
            seed=12,
        )
        mined = deployment.advance_for(120.0)
        assert isinstance(mined, int) and mined >= 1

    def test_sra_reaches_all_providers(self, settled):
        deployment, sra, _ = settled
        for provider in deployment.providers.values():
            assert sra.sra_id in provider.known_sras

    def test_detectors_scanned_on_announcement(self, settled):
        deployment, _, _ = settled
        assert all(d.scans == 1 for d in deployment.detectors.values())

    def test_reports_mined_into_replicated_chain(self, settled):
        deployment, _, _ = settled
        from repro.chain.block import RecordKind

        chain = next(iter(deployment.providers.values())).chain
        initials = [
            record
            for block in chain.iter_canonical()
            for record in block.records
            if record.kind == RecordKind.INITIAL_REPORT
        ]
        assert initials

    def test_detectors_paid_on_chain(self, settled):
        deployment, sra, system = settled
        contract = deployment.contracts[sra.sra_id]
        assert contract.total_paid_wei() > 0
        earned = sum(
            deployment.detector_balance(d) for d in deployment.detectors
        )
        assert earned == contract.total_paid_wei()

    def test_each_flaw_paid_at_most_once(self, settled):
        deployment, sra, system = settled
        contract = deployment.contracts[sra.sra_id]
        truth = {flaw.key for flaw in system.ground_truth}
        assert contract.awarded_vulnerabilities() <= truth

    def test_replicas_converge(self, settled):
        deployment, _, _ = settled
        deployment.simulator.advance()
        assert deployment.converged()

    def test_consumer_query_round_trip(self, settled):
        deployment, _, _ = settled
        consumer = deployment.consumers["consumer-1"]
        consumer.query("provider-2", "dd-cam", "1.0.0")
        deployment.simulator.advance()
        reference = consumer.latest_reference
        assert reference is not None
        assert reference.vulnerability_count > 0


class TestAdversarialMessages:
    def test_spoofed_sra_rejected_by_providers(self):
        deployment = DecentralizedDeployment(
            PAPER_HASHPOWER_SHARES,
            build_detector_fleet(thread_counts=(4,), seed=82),
            seed=82,
        )
        attacker = KeyPair.from_seed(b"dd-attacker")
        system = build_system("dd-spoof", vulnerability_count=1, rng=random.Random(2))
        deployment.directory.publish(system)
        spoofed = spoof_sra(
            "provider-1", attacker, system, to_wei(1000), to_wei(250)
        )
        from repro.network.messages import Message

        victim = deployment.providers["provider-2"]
        victim.deliver(Message.wrap(MessageKind.SRA_ANNOUNCE, spoofed, "provider-2"))
        assert spoofed.sra_id not in victim.known_sras
        assert victim.rejected_messages == 1

    def test_detectors_refuse_repackaged_artifact(self):
        deployment = DecentralizedDeployment(
            PAPER_HASHPOWER_SHARES,
            build_detector_fleet(thread_counts=(8,), seed=83),
            seed=83,
        )
        system = build_system("dd-tamper", vulnerability_count=2, rng=random.Random(3))
        sra = deployment.announce("provider-3", system)
        # A marketplace swaps the hosted artifact for a repackaged one.
        tampered = repackage_with_malware(system, "evil-market")
        deployment.directory.publish(tampered, link=system.download_link)
        # New deployment-side scan: detectors check U_h and walk away.
        detector = next(iter(deployment.detectors.values()))
        before = detector.scans
        from repro.network.messages import Message

        detector.deliver(Message.wrap(MessageKind.SRA_ANNOUNCE, sra, "x"))
        assert detector.scans == before  # refused: artifact hash mismatch
