"""Parity of the fast secp256k1 paths with the double-and-add ladder.

``repro.crypto.ecdsa`` multiplies G through a fixed-base window table
and every other point through a wNAF; :mod:`tests.crypto.ladder` is the
plain ladder they replaced.  Every result must be identical.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ecdsa
from repro.crypto.ecdsa import CURVE, Signature
from repro.crypto.hashing import sha3_256
from tests.crypto.ladder import (
    ladder_mult,
    ladder_recover,
    ladder_sign,
    ladder_verify,
)

N = CURVE.n
G = CURVE.g
NEG_G = (G[0], CURVE.p - G[1])
Q = ladder_mult(0xFEEDFACE_CAFEBEEF_0123456789, G)

scalars = st.integers(min_value=1, max_value=N - 1)
digests = st.binary(min_size=1, max_size=64).map(sha3_256)

# Scalars whose table windows (8 bits) and wNAF windows (5 bits) hit
# their boundaries: all-zero and all-one windows, carries out of the top.
EDGE_SCALARS = [
    1, 2, 3, N - 2, N - 1, N, N + 1, 2 * N - 1,
    2**5, 2**8, 2**16, 2**248, 2**255,
    0xFF, 0xFF << 8, 0xFF << 248, 2**256 - 1,
    int("ff00" * 16, 16), int("00ff" * 16, 16),
    int("1f" * 32, 16), int("10" * 32, 16),
]


class TestScalarMult:
    @pytest.mark.parametrize("k", EDGE_SCALARS)
    @pytest.mark.parametrize("point", [G, NEG_G, Q], ids=["G", "-G", "Q"])
    def test_edge_scalars(self, k, point):
        assert ecdsa.scalar_mult(k, point) == ladder_mult(k, point)

    def test_n_minus_two_reaches_the_mixed_add_doubling(self):
        # The last wNAF digit of n - 2 is -1 and the accumulator before
        # it is (n - 1)·Q = -Q, so the final mixed add doubles.
        assert ecdsa._wnaf(N - 2)[0] == -1
        assert ecdsa.scalar_mult(N - 2, Q) == ladder_mult(N - 2, Q)

    def test_zero_and_infinity(self):
        assert ecdsa.scalar_mult(0, G) is None
        assert ecdsa.scalar_mult(N, Q) is None
        assert ecdsa.scalar_mult(5, None) is None

    def test_off_curve_point_raises(self):
        with pytest.raises(ecdsa.EcdsaError):
            ecdsa.scalar_mult(3, (1, 1))

    @given(scalars)
    @settings(max_examples=25, deadline=None)
    def test_generator(self, k):
        assert ecdsa.scalar_mult(k, G) == ladder_mult(k, G)

    @given(scalars, scalars)
    @settings(max_examples=15, deadline=None)
    def test_other_point(self, k, q):
        point = ladder_mult(q, G)
        assert ecdsa.scalar_mult(k, point) == ladder_mult(k, point)

    @given(st.integers(min_value=0, max_value=2**260))
    @settings(max_examples=50, deadline=None)
    def test_wnaf_digits_recompose(self, k):
        digits = ecdsa._wnaf(k)
        assert sum(d << i for i, d in enumerate(digits)) == k
        nonzero = [i for i, d in enumerate(digits) if d]
        assert all(digits[i] % 2 == 1 and abs(digits[i]) < 16 for i in nonzero)
        assert all(b - a >= 5 for a, b in zip(nonzero, nonzero[1:]))


class TestSignVerify:
    @given(scalars, digests)
    @settings(max_examples=15, deadline=None)
    def test_sign_matches_ladder(self, private_key, digest):
        assert ecdsa.sign(private_key, digest) == ladder_sign(private_key, digest)

    @given(scalars, digests, digests, scalars)
    @settings(max_examples=10, deadline=None)
    def test_verify_matches_ladder(self, private_key, digest, other, other_key):
        public = ladder_mult(private_key, G)
        signature = ladder_sign(private_key, digest)
        high_s = Signature(signature.r, N - signature.s)
        wrong_key = ladder_mult(other_key, G)
        cases = [
            (public, digest, signature),  # valid
            (public, other, signature),  # tampered digest
            (wrong_key, digest, signature),  # wrong key
            (public, digest, high_s),  # malleated high-s
        ]
        for key, message, sig in cases:
            assert ecdsa.verify(key, message, sig) == ladder_verify(key, message, sig)
        assert ecdsa.verify(public, digest, signature)

    @pytest.mark.parametrize("public", [G, NEG_G], ids=["G", "-G"])
    def test_u1_equal_u2_reaches_final_add_branches(self, public):
        # r == z makes u1 == u2: with Q = G the final add doubles, with
        # Q = -G it is the point at infinity.
        digest = sha3_256(b"u1 == u2")
        r = int.from_bytes(digest, "big") % N
        signature = Signature(r, 12345)
        expected = ladder_verify(public, digest, signature)
        assert ecdsa.verify(public, digest, signature) == expected
        if public == NEG_G:
            assert expected is False

    def test_signature_over_g_as_key(self):
        digest = sha3_256(b"key is G")
        signature = ecdsa.sign(1, digest)
        assert ecdsa.verify(G, digest, signature)
        assert not ecdsa.verify(NEG_G, digest, signature)
        assert ladder_verify(G, digest, signature)


class TestRecovery:
    @given(scalars, digests)
    @settings(max_examples=8, deadline=None)
    def test_recover_matches_ladder(self, private_key, digest):
        signature = ecdsa.sign(private_key, digest)
        recovered = ecdsa.recover_candidates(digest, signature)
        assert recovered == ladder_recover(digest, signature)
        assert ladder_mult(private_key, G) in recovered

    def test_final_add_doubling_and_infinity(self):
        # With R = t·G and z = -t·s, recovery's u1·G equals u2·R for one
        # lift of r (the final add doubles) and -u2·R for the other (the
        # point at infinity, which yields no candidate).
        t, s = 0xABCDEF, 0x123456789
        lift = ladder_mult(t, G)
        assert lift[0] < N
        r = lift[0]
        digest = ((-t * s) % N).to_bytes(32, "big")
        signature = Signature(r, s)
        recovered = ecdsa.recover_candidates(digest, signature)
        assert recovered == ladder_recover(digest, signature)
        assert recovered == (ladder_mult(2 * t * s * pow(r, -1, N), G),)

    def test_high_s_recovers_nothing(self):
        digest = sha3_256(b"high s")
        signature = ecdsa.sign(7, digest)
        high_s = Signature(signature.r, N - signature.s)
        assert ecdsa.recover_candidates(digest, high_s) == ()
        assert ladder_recover(digest, high_s) == ()


class TestCanonicalPoints:
    def test_coordinates_outside_field_rejected(self):
        assert not ecdsa.is_on_curve((G[0] + CURVE.p, G[1]))
        assert not ecdsa.is_on_curve((G[0], G[1] + CURVE.p))
        assert not ecdsa.is_on_curve((G[0], -G[1]))
        assert not ecdsa.is_on_curve((G[0] - CURVE.p, G[1]))

    def test_verify_rejects_non_canonical_key(self):
        digest = sha3_256(b"canonical")
        signature = ecdsa.sign(1, digest)
        assert ecdsa.verify(G, digest, signature)
        assert not ecdsa.verify((G[0] + CURVE.p, G[1]), digest, signature)
        assert not ecdsa.verify((G[0], G[1] - CURVE.p), digest, signature)


def test_import_builds_no_generator_table():
    """The G table is built on first use, never at import.

    Importing the package and the experiment suite must stay cheap: the
    suite's set-up is a re-import, and the table costs ~50 ms.
    """
    root = Path(__file__).resolve().parents[2]
    code = (
        "import repro, repro.experiments.__main__\n"
        "from repro.crypto import ecdsa\n"
        "assert ecdsa._G_TABLE is None, 'G table built at import'\n"
        "ecdsa.scalar_mult(2, ecdsa.CURVE.g)\n"
        "assert ecdsa._G_TABLE is not None\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
