"""The double-and-add ladder: the oracle for :mod:`repro.crypto.ecdsa`.

This is the plain Jacobian double-and-add that ``repro.crypto.ecdsa``
used before its fixed-base table and wNAF paths.  It keeps its own
copies of the point formulas, so a bug in the fast paths' arithmetic
cannot hide in both.  Nonce derivation and digest truncation are shared
with the module under test: they are not what the fast paths change.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.crypto.ecdsa import (
    CURVE,
    CurveParams,
    EcdsaError,
    Signature,
    _bits_to_int,
    _rfc6979_nonce,
)

Point = Optional[Tuple[int, int]]

_INFINITY = (1, 1, 0)


def _double(point, p):
    x, y, z = point
    if z == 0 or y == 0:
        return _INFINITY
    y_sq = (y * y) % p
    s = (4 * x * y_sq) % p
    m = (3 * x * x) % p
    x3 = (m * m - 2 * s) % p
    y3 = (m * (s - x3) - 8 * y_sq * y_sq) % p
    return (x3, y3, (2 * y * z) % p)


def _add(p1, p2, p):
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    if z1 == 0:
        return p2
    if z2 == 0:
        return p1
    z1_sq = (z1 * z1) % p
    z2_sq = (z2 * z2) % p
    u1 = (x1 * z2_sq) % p
    u2 = (x2 * z1_sq) % p
    s1 = (y1 * z2_sq * z2) % p
    s2 = (y2 * z1_sq * z1) % p
    if u1 == u2:
        if s1 != s2:
            return _INFINITY
        return _double(p1, p)
    h = (u2 - u1) % p
    r = (s2 - s1) % p
    h_sq = (h * h) % p
    h_cu = (h_sq * h) % p
    v = (u1 * h_sq) % p
    x3 = (r * r - h_cu - 2 * v) % p
    y3 = (r * (v - x3) - s1 * h_cu) % p
    return (x3, y3, (h * z1 * z2) % p)


def _affine(point, p) -> Point:
    x, y, z = point
    if z == 0:
        return None
    z_inv = pow(z, -1, p)
    z_inv_sq = (z_inv * z_inv) % p
    return ((x * z_inv_sq) % p, (y * z_inv_sq * z_inv) % p)


def _jacobian(point: Point):
    return _INFINITY if point is None else (point[0], point[1], 1)


def ladder_add(p1: Point, p2: Point, curve: CurveParams = CURVE) -> Point:
    """Affine point addition (None is the point at infinity)."""
    return _affine(_add(_jacobian(p1), _jacobian(p2), curve.p), curve.p)


def ladder_mult(k: int, point: Point, curve: CurveParams = CURVE) -> Point:
    """``k * point`` by right-to-left double-and-add."""
    if point is None or k % curve.n == 0:
        return None
    k %= curve.n
    accumulator = _INFINITY
    addend = _jacobian(point)
    while k:
        if k & 1:
            accumulator = _add(accumulator, addend, curve.p)
        addend = _double(addend, curve.p)
        k >>= 1
    return _affine(accumulator, curve.p)


def ladder_sign(private_key: int, digest: bytes, curve: CurveParams = CURVE) -> Signature:
    """RFC 6979 low-``s`` signing with the ladder for ``k·G``."""
    z = _bits_to_int(digest, curve.n) % curve.n
    k = _rfc6979_nonce(private_key, bytes(digest), curve)
    r = ladder_mult(k, curve.g, curve)[0] % curve.n
    s = (pow(k, -1, curve.n) * (z + r * private_key)) % curve.n
    assert r and s  # probability ~2^-256; the module under test retries
    return Signature(r, min(s, curve.n - s))


def ladder_verify(
    public_key: Point, digest: bytes, signature: Signature, curve: CurveParams = CURVE
) -> bool:
    """ECDSA verification with two ladders and an affine add."""
    if len(digest) != 32 or public_key is None:
        return False
    x, y = public_key
    if not (0 <= x < curve.p and 0 <= y < curve.p):
        return False
    if (y * y - (x * x * x + curve.a * x + curve.b)) % curve.p:
        return False
    r, s = signature.r, signature.s
    if not (1 <= r < curve.n and 1 <= s <= curve.n // 2):
        return False
    z = _bits_to_int(digest, curve.n) % curve.n
    s_inv = pow(s, -1, curve.n)
    point = ladder_add(
        ladder_mult((z * s_inv) % curve.n, curve.g, curve),
        ladder_mult((r * s_inv) % curve.n, public_key, curve),
        curve,
    )
    return point is not None and point[0] % curve.n == r


def ladder_recover(
    digest: bytes, signature: Signature, curve: CurveParams = CURVE
) -> Tuple[Tuple[int, int], ...]:
    """Public-key recovery: ``Q = r^-1 (s·R - z·G)`` for each lift ``R`` of ``r``."""
    r, s = signature.r, signature.s
    if not (1 <= r < curve.n and 1 <= s < curve.n):
        raise EcdsaError("signature scalars out of range")
    z = _bits_to_int(digest, curve.n) % curve.n
    r_inv = pow(r, -1, curve.n)
    zg = ladder_mult(z, curve.g, curve)
    neg_zg = None if zg is None else (zg[0], (-zg[1]) % curve.p)
    candidates = []
    for j in range(curve.h + 1):
        x = r + j * curve.n
        if x >= curve.p:
            continue
        y_sq = (pow(x, 3, curve.p) + curve.a * x + curve.b) % curve.p
        y = pow(y_sq, (curve.p + 1) // 4, curve.p)
        if (y * y) % curve.p != y_sq:
            continue
        for y_candidate in ((y, curve.p - y) if y != 0 else (y,)):
            sr = ladder_mult(s, (x, y_candidate), curve)
            q_point = ladder_mult(r_inv, ladder_add(sr, neg_zg, curve), curve)
            if q_point is not None and ladder_verify(q_point, digest, signature, curve):
                candidates.append(q_point)
    return tuple(candidates)
