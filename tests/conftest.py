"""Shared fixtures for the SmartCrowd reproduction test suite."""

from __future__ import annotations

import contextlib
import random

import pytest

from repro.crypto.keys import KeyPair


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG per test."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def provider_keys() -> KeyPair:
    """A provider keypair."""
    return KeyPair.from_seed(b"test-provider")


@pytest.fixture
def detector_keys() -> KeyPair:
    """A detector keypair."""
    return KeyPair.from_seed(b"test-detector")


@pytest.fixture
def other_keys() -> KeyPair:
    """A third-party keypair (attackers, bystanders)."""
    return KeyPair.from_seed(b"test-other")


@pytest.fixture
def exit_stack():
    """Closes what a test registers (store-backed fleets) at teardown."""
    with contextlib.ExitStack() as stack:
        yield stack
