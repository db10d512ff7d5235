"""Tests for the identity registry and its verified-signature memo."""

import dataclasses
import random
from collections import Counter

import pytest

from repro.chain import PAPER_HASHPOWER_SHARES
from repro.core import registry as registry_module
from repro.core.registry import IdentityRegistry
from repro.core.reports import build_report_pair
from repro.core.stakeholders import DecentralizedDeployment
from repro.core.verification import ReportVerifier, VerdictCode
from repro.crypto import ecdsa
from repro.crypto.ecdsa import Signature
from repro.crypto.hashing import hash_fields
from repro.crypto.keys import KeyPair
from repro.detection import build_detector_fleet, build_system, describe
from repro.network.messages import MessageKind


class TestRegistry:
    def test_register_and_resolve(self, detector_keys):
        registry = IdentityRegistry()
        registry.register("det-x", detector_keys.public)
        assert "det-x" in registry
        assert registry.public_key("det-x") == detector_keys.public
        assert registry.wallet("det-x") == detector_keys.address

    def test_unknown_entity(self):
        registry = IdentityRegistry()
        assert registry.public_key("ghost") is None
        assert registry.wallet("ghost") is None
        assert "ghost" not in registry

    def test_explicit_wallet(self, detector_keys, other_keys):
        registry = IdentityRegistry()
        registry.register("det-x", detector_keys.public, wallet=other_keys.address)
        assert registry.wallet("det-x") == other_keys.address

    def test_rebinding_same_key_allowed(self, detector_keys):
        registry = IdentityRegistry()
        registry.register("det-x", detector_keys.public)
        registry.register("det-x", detector_keys.public)  # idempotent
        assert len(registry) == 1

    def test_rebinding_different_key_rejected(self, detector_keys, other_keys):
        registry = IdentityRegistry()
        registry.register("det-x", detector_keys.public)
        with pytest.raises(ValueError):
            registry.register("det-x", other_keys.public)

    def test_entities_iteration(self):
        registry = IdentityRegistry()
        pairs = {f"e{i}": KeyPair.from_seed(bytes([i])) for i in range(3)}
        for entity_id, keys in pairs.items():
            registry.register(entity_id, keys.public)
        assert dict(registry.entities()) == {
            entity_id: keys.public for entity_id, keys in pairs.items()
        }


@pytest.fixture
def verify_calls(monkeypatch):
    """Count every (key, digest, r, s) that reaches ``ecdsa.verify``."""
    calls = Counter()
    real = ecdsa.verify

    def counting(public_key, digest, signature, *args):
        calls[(public_key, digest, signature.r, signature.s)] += 1
        return real(public_key, digest, signature, *args)

    monkeypatch.setattr(ecdsa, "verify", counting)
    return calls


class TestSignatureMemo:
    def test_both_outcomes_cached(self, detector_keys, verify_calls):
        registry = IdentityRegistry()
        digest = hash_fields("memo")
        signature = detector_keys.sign(digest)
        forged = Signature(signature.r, signature.s - 1)
        for _ in range(3):
            assert registry.verify_signature(detector_keys.public, digest, signature)
            assert not registry.verify_signature(detector_keys.public, digest, forged)
        assert sorted(verify_calls.values()) == [1, 1]

    def test_key_is_the_full_input(self, detector_keys, other_keys, verify_calls):
        registry = IdentityRegistry()
        digest = hash_fields("memo")
        signature = detector_keys.sign(digest)
        assert registry.verify_signature(detector_keys.public, digest, signature)
        assert not registry.verify_signature(other_keys.public, digest, signature)
        assert not registry.verify_signature(
            detector_keys.public, hash_fields("other"), signature
        )
        assert len(verify_calls) == 3

    def test_evicts_least_recently_used_at_bound(
        self, detector_keys, verify_calls, monkeypatch
    ):
        monkeypatch.setattr(registry_module, "SIGNATURE_MEMO_SIZE", 2)
        registry = IdentityRegistry()
        digests = [hash_fields("evict", i) for i in range(3)]
        signatures = [detector_keys.sign(digest) for digest in digests]
        check = lambda i: registry.verify_signature(  # noqa: E731
            detector_keys.public, digests[i], signatures[i]
        )
        for i in (0, 1, 0, 2):  # 2 evicts 1, the least recently used
            check(i)
        assert len(registry._verified) == 2
        check(0)
        check(1)  # a miss: verified again
        key = lambda i: (  # noqa: E731
            detector_keys.public.point, digests[i], signatures[i].r, signatures[i].s
        )
        assert verify_calls[key(0)] == 1
        assert verify_calls[key(1)] == 2
        assert verify_calls[key(2)] == 1


def _deployment(seed):
    return DecentralizedDeployment(
        PAPER_HASHPOWER_SHARES,
        build_detector_fleet(thread_counts=(2, 5, 8), seed=seed),
        seed=seed,
    )


class TestDeploymentMemo:
    def test_each_signature_verified_once(self, verify_calls):
        deployment = _deployment(81)
        assert len(deployment.providers) == 5
        system = build_system("memo-cam", vulnerability_count=3, rng=random.Random(1))
        deployment.announce("provider-1", system)
        deployment.advance_for(900.0)
        accepted = sum(len(p.known_initials) for p in deployment.providers.values())
        assert accepted >= 5  # every replica ran Algorithm 1 on the reports
        assert verify_calls and set(verify_calls.values()) == {1}

    def test_tampered_signature_dropped_by_every_provider(
        self, verify_calls, monkeypatch
    ):
        verdicts = []
        real = ReportVerifier.verify_initial

        def spy(verifier, report):
            verdict = real(verifier, report)
            verdicts.append((verifier, report.report_id, verdict.code))
            return verdict

        monkeypatch.setattr(ReportVerifier, "verify_initial", spy)
        deployment = _deployment(84)
        system = build_system("memo-tamper", vulnerability_count=1, rng=random.Random(4))
        sra = deployment.announce("provider-2", system)
        deployment.advance_for(5.0)
        detector = next(iter(deployment.detectors.values()))
        description = describe(system.ground_truth[0], system.name, random.Random(5))
        initial, _ = build_report_pair(
            sra.sra_id, detector.name, detector.keys,
            detector.keys.address, (description,),
        )
        forged = Signature(initial.signature.r, initial.signature.s - 1)
        tampered = dataclasses.replace(initial, signature=forged)
        detector.broadcast(MessageKind.INITIAL_REPORT, tampered)
        deployment.advance_for(5.0)
        codes = {
            verifier: code
            for verifier, report_id, code in verdicts
            if report_id == tampered.report_id
        }
        assert len(codes) == 5
        assert set(codes.values()) == {VerdictCode.BAD_SIGNATURE}
        key = (detector.keys.public.point, tampered.report_id, forged.r, forged.s)
        assert verify_calls[key] == 1
        assert all(tampered.report_id not in p.known_initials
                   for p in deployment.providers.values())

    def test_deployments_do_not_share_entries(self, verify_calls):
        first, second = _deployment(85), _deployment(85)
        assert first.registry is not second.registry
        keys = first.providers["provider-1"].keys
        digest = hash_fields("shared?")
        signature = keys.sign(digest)
        for deployment in (first, second, first, second):
            assert deployment.registry.verify_signature(keys.public, digest, signature)
        assert verify_calls[(keys.public.point, digest, signature.r, signature.s)] == 2
