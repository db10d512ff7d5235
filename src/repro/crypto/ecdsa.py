"""Pure-Python ECDSA over secp256k1.

SmartCrowd signs SRAs and detection reports with ECDSA on the
secp256k1 curve (§VII: "SmartCrowd supports ECDSA signature and hashing
function SHA-3 ... using secp256k1 curve").  No third-party crypto
library is available offline, so the curve arithmetic is implemented
here directly:

* Jacobian-coordinate point arithmetic; precomputed points are stored
  affine and added with a mixed Jacobian+affine add.
* Multiples of the generator G (signing, key derivation, the ``u1·G``
  half of verification, recovery) read a fixed-base table: one row per
  8-bit window of the scalar, row ``i`` holding ``d·2^(8i)·G`` for
  ``d = 1..255``, each row normalised to affine with one batch
  inversion.  A multiplication is then at most 32 mixed adds and no
  doublings.  The table (~8k points, ~50 ms) is built on the first
  multiplication of G and cached for the process — never at import.
* Any other point is multiplied through a width-5 wNAF over its odd
  multiples ``P, 3P, ..., 15P``.  ``verify`` sums ``u1·G`` (table) and
  ``u2·Q`` (wNAF) in Jacobian form and inverts once.
* RFC 6979 deterministic nonces, so signing is reproducible and never
  leaks the key through a bad RNG.
* Low-``s`` normalization (as Ethereum does) so signatures are
  non-malleable: ``verify`` rejects high-``s`` signatures.
* Canonical points only: a coordinate outside ``[0, p)`` is not on the
  curve, so one key never has two encodings.

This module operates on 32-byte message *digests*; callers hash first
(see :mod:`repro.crypto.hashing`).
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "CURVE",
    "CurveParams",
    "EcdsaError",
    "Signature",
    "scalar_mult",
    "point_add",
    "sign",
    "verify",
    "recover_candidates",
]


class EcdsaError(ValueError):
    """Raised for invalid keys, digests, or signatures."""


@dataclass(frozen=True)
class CurveParams:
    """Domain parameters of a short Weierstrass curve y^2 = x^3 + ax + b."""

    name: str
    p: int  # field prime
    a: int
    b: int
    g: Tuple[int, int]  # base point
    n: int  # group order
    h: int  # cofactor


#: secp256k1, the curve used by Bitcoin and Ethereum.
CURVE = CurveParams(
    name="secp256k1",
    p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F,
    a=0,
    b=7,
    g=(
        0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
        0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
    ),
    n=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141,
    h=1,
)

# Point at infinity sentinel for affine points.
_INFINITY: Optional[Tuple[int, int]] = None


def _inv_mod(value: int, modulus: int) -> int:
    """Modular inverse via Python's built-in extended-gcd pow."""
    return pow(value, -1, modulus)


# --- Jacobian coordinate arithmetic ------------------------------------
#
# A Jacobian point (X, Y, Z) represents the affine point (X/Z^2, Y/Z^3).
# The point at infinity is represented with Z == 0.

_JacPoint = Tuple[int, int, int]
_JAC_INFINITY: _JacPoint = (1, 1, 0)


def _to_jacobian(point: Optional[Tuple[int, int]]) -> _JacPoint:
    if point is None:
        return _JAC_INFINITY
    return (point[0], point[1], 1)


def _from_jacobian(point: _JacPoint, p: int) -> Optional[Tuple[int, int]]:
    x, y, z = point
    if z == 0:
        return None
    z_inv = _inv_mod(z, p)
    z_inv_sq = (z_inv * z_inv) % p
    return ((x * z_inv_sq) % p, (y * z_inv_sq * z_inv) % p)


def _jac_double(point: _JacPoint, p: int) -> _JacPoint:
    x, y, z = point
    if z == 0 or y == 0:
        return _JAC_INFINITY
    # Doubling formulas specialised for a == 0 (secp256k1).
    y_sq = (y * y) % p
    s = (4 * x * y_sq) % p
    m = (3 * x * x) % p
    x3 = (m * m - 2 * s) % p
    y3 = (m * (s - x3) - 8 * y_sq * y_sq) % p
    z3 = (2 * y * z) % p
    return (x3, y3, z3)


def _jac_add(p1: _JacPoint, p2: _JacPoint, p: int) -> _JacPoint:
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
            return _JAC_INFINITY
        return _jac_double(p1, p)
    h = (u2 - u1) % p
    r = (s2 - s1) % p
    h_sq = (h * h) % p
    h_cu = (h_sq * h) % p
    v = (u1 * h_sq) % p
    x3 = (r * r - h_cu - 2 * v) % p
    y3 = (r * (v - x3) - s1 * h_cu) % p
    z3 = (h * z1 * z2) % p
    return (x3, y3, z3)


def point_add(
    p1: Optional[Tuple[int, int]],
    p2: Optional[Tuple[int, int]],
    curve: CurveParams = CURVE,
) -> Optional[Tuple[int, int]]:
    """Add two affine points on ``curve`` (None is the point at infinity)."""
    result = _jac_add(_to_jacobian(p1), _to_jacobian(p2), curve.p)
    return _from_jacobian(result, curve.p)


def _jac_madd(point: _JacPoint, x2: int, y2: int, p: int) -> _JacPoint:
    """Add the affine point ``(x2, y2)`` to a Jacobian point (mixed add)."""
    x1, y1, z1 = point
    if z1 == 0:
        return (x2, y2, 1)
    z1_sq = (z1 * z1) % p
    h = (x2 * z1_sq - x1) % p
    r = (y2 * z1_sq * z1 - y1) % p
    if h == 0:
        if r != 0:
            return _JAC_INFINITY
        return _jac_double(point, p)
    h_sq = (h * h) % p
    h_cu = (h_sq * h) % p
    v = (x1 * h_sq) % p
    x3 = (r * r - h_cu - 2 * v) % p
    y3 = (r * (v - x3) - y1 * h_cu) % p
    return (x3, y3, (z1 * h) % p)


def _batch_to_affine(points: Sequence[_JacPoint], p: int) -> List[Tuple[int, int]]:
    """Normalise finite Jacobian points with one inversion (Montgomery's trick)."""
    prefix = []
    product = 1
    for _, _, z in points:
        prefix.append(product)
        product = (product * z) % p
    inverse = _inv_mod(product, p)
    affine = []
    for (x, y, z), before in zip(reversed(points), reversed(prefix)):
        z_inv = (inverse * before) % p
        inverse = (inverse * z) % p
        z_inv_sq = (z_inv * z_inv) % p
        affine.append(((x * z_inv_sq) % p, (y * z_inv_sq * z_inv) % p))
    affine.reverse()
    return affine


#: Bits per row of the fixed-base table for G.
_G_WINDOW = 8
#: Width of the NAF used for every other point.
_WNAF_WIDTH = 5

# Row i holds d·2^(_G_WINDOW·i)·G at index d - 1; built lazily.
_G_TABLE: Optional[List[List[Tuple[int, int]]]] = None


def _g_table() -> List[List[Tuple[int, int]]]:
    global _G_TABLE
    if _G_TABLE is None:
        p = CURVE.p
        rows = []
        bx, by = CURVE.g
        for _ in range(-(-CURVE.n.bit_length() // _G_WINDOW)):
            # 1·B .. 2^w·B; the last one is the next row's base.
            multiples = [(bx, by, 1)]
            for _ in range((1 << _G_WINDOW) - 1):
                multiples.append(_jac_madd(multiples[-1], bx, by, p))
            affine = _batch_to_affine(multiples, p)
            bx, by = affine.pop()
            rows.append(affine)
        _G_TABLE = rows
    return _G_TABLE


def _g_mult(k: int) -> _JacPoint:
    """``k·G`` for ``0 <= k < n`` on secp256k1, from the fixed-base table."""
    p = CURVE.p
    mask = (1 << _G_WINDOW) - 1
    accumulator = _JAC_INFINITY
    for row in _g_table():
        digit = k & mask
        if digit:
            x, y = row[digit - 1]
            accumulator = _jac_madd(accumulator, x, y, p)
        k >>= _G_WINDOW
    return accumulator


def _wnaf(k: int) -> List[int]:
    """Width-:data:`_WNAF_WIDTH` NAF digits of ``k >= 0``, least significant first.

    Every nonzero digit is odd with ``|digit| < 2^(w-1)``, and any two
    nonzero digits are at least ``w`` positions apart.
    """
    full = 1 << _WNAF_WIDTH
    digits = []
    while k:
        digit = 0
        if k & 1:
            digit = k & (full - 1)
            if digit >= full >> 1:
                digit -= full
            k -= digit
        digits.append(digit)
        k >>= 1
    return digits


def _wnaf_mult(k: int, point: Tuple[int, int], p: int) -> _JacPoint:
    """``k·point`` for ``0 <= k < n`` by wNAF over affine odd multiples."""
    base = _to_jacobian(point)
    twice = _jac_double(base, p)
    odd = [base]
    for _ in range((1 << (_WNAF_WIDTH - 2)) - 1):
        odd.append(_jac_add(odd[-1], twice, p))
    table = _batch_to_affine(odd, p)  # table[i] = (2i + 1)·point
    accumulator = _JAC_INFINITY
    for digit in reversed(_wnaf(k)):
        accumulator = _jac_double(accumulator, p)
        if digit > 0:
            x, y = table[digit >> 1]
            accumulator = _jac_madd(accumulator, x, y, p)
        elif digit < 0:
            x, y = table[-digit >> 1]
            accumulator = _jac_madd(accumulator, x, p - y, p)
    return accumulator


def _mult(k: int, point: Tuple[int, int], curve: CurveParams) -> _JacPoint:
    """``k·point`` for ``0 <= k < n``: the G table when it applies, else wNAF."""
    if point == curve.g and curve == CURVE:
        return _g_mult(k)
    return _wnaf_mult(k, point, curve.p)


def scalar_mult(
    k: int,
    point: Optional[Tuple[int, int]],
    curve: CurveParams = CURVE,
) -> Optional[Tuple[int, int]]:
    """Compute ``k * point``.

    Multiples of secp256k1's generator read the fixed-base table; any
    other point goes through a width-5 wNAF.  Raises :class:`EcdsaError`
    for a point that is not on ``curve``.
    """
    if point is None or k % curve.n == 0:
        return None
    if not is_on_curve(point, curve):
        raise EcdsaError("point is not on the curve")
    return _from_jacobian(_mult(k % curve.n, point, curve), curve.p)


def is_on_curve(point: Optional[Tuple[int, int]], curve: CurveParams = CURVE) -> bool:
    """Check curve membership of an affine point in canonical form.

    Coordinates must lie in ``[0, p)``: ``x + p`` names the same field
    element but would give the same key a second encoding and address.
    """
    if point is None:
        return True
    x, y = point
    if not (0 <= x < curve.p and 0 <= y < curve.p):
        return False
    return (y * y - (x * x * x + curve.a * x + curve.b)) % curve.p == 0


@dataclass(frozen=True)
class Signature:
    """An ECDSA signature ``(r, s)`` in canonical low-``s`` form."""

    r: int
    s: int

    def to_bytes(self) -> bytes:
        """Serialize as the 64-byte ``r || s`` fixed-width encoding."""
        return self.r.to_bytes(32, "big") + self.s.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Signature":
        """Parse a 64-byte ``r || s`` encoding."""
        if len(data) != 64:
            raise EcdsaError(f"signature must be 64 bytes, got {len(data)}")
        return cls(int.from_bytes(data[:32], "big"), int.from_bytes(data[32:], "big"))

    def is_low_s(self, curve: CurveParams = CURVE) -> bool:
        """True if ``s`` is in the lower half of the group order."""
        return 1 <= self.s <= curve.n // 2


def _bits_to_int(data: bytes, n: int) -> int:
    """Leftmost-bits conversion from RFC 6979 §2.3.2."""
    value = int.from_bytes(data, "big")
    excess = len(data) * 8 - n.bit_length()
    if excess > 0:
        value >>= excess
    return value


def _rfc6979_nonce(private_key: int, digest: bytes, curve: CurveParams) -> int:
    """Deterministic nonce generation per RFC 6979 with HMAC-SHA256."""
    n = curve.n
    holen = 32  # SHA-256 output length
    x_bytes = private_key.to_bytes(32, "big")
    h1 = _bits_to_int(digest, n) % n
    h1_bytes = h1.to_bytes(32, "big")

    v = b"\x01" * holen
    k = b"\x00" * holen
    k = hmac.new(k, v + b"\x00" + x_bytes + h1_bytes, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    k = hmac.new(k, v + b"\x01" + x_bytes + h1_bytes, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()

    while True:
        v = hmac.new(k, v, hashlib.sha256).digest()
        candidate = _bits_to_int(v, n)
        if 1 <= candidate < n:
            return candidate
        k = hmac.new(k, v + b"\x00", hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()


def _check_digest(digest: bytes) -> None:
    if not isinstance(digest, (bytes, bytearray)) or len(digest) != 32:
        raise EcdsaError("message digest must be exactly 32 bytes")


def sign(private_key: int, digest: bytes, curve: CurveParams = CURVE) -> Signature:
    """Sign a 32-byte digest, returning a canonical low-``s`` signature.

    Nonces are deterministic (RFC 6979), so signing the same digest with
    the same key always yields the same signature.
    """
    _check_digest(digest)
    if not 1 <= private_key < curve.n:
        raise EcdsaError("private key out of range")
    z = _bits_to_int(digest, curve.n) % curve.n
    while True:
        k = _rfc6979_nonce(private_key, bytes(digest), curve)
        point = scalar_mult(k, curve.g, curve)
        assert point is not None
        r = point[0] % curve.n
        if r == 0:
            digest = hashlib.sha256(bytes(digest)).digest()  # pragma: no cover
            continue  # pragma: no cover
        s = (_inv_mod(k, curve.n) * (z + r * private_key)) % curve.n
        if s == 0:
            digest = hashlib.sha256(bytes(digest)).digest()  # pragma: no cover
            continue  # pragma: no cover
        if s > curve.n // 2:
            s = curve.n - s
        return Signature(r, s)


def verify(
    public_key: Tuple[int, int],
    digest: bytes,
    signature: Signature,
    curve: CurveParams = CURVE,
) -> bool:
    """Verify a signature over a 32-byte digest.

    Returns False (never raises) for any malformed or non-canonical
    signature, matching the drop-don't-crash semantics of Algorithm 1.
    """
    try:
        _check_digest(digest)
    except EcdsaError:
        return False
    if not is_on_curve(public_key, curve) or public_key is None:
        return False
    r, s = signature.r, signature.s
    if not (1 <= r < curve.n):
        return False
    if not signature.is_low_s(curve):
        return False
    z = _bits_to_int(digest, curve.n) % curve.n
    s_inv = _inv_mod(s, curve.n)
    u1 = (z * s_inv) % curve.n
    u2 = (r * s_inv) % curve.n
    point = _from_jacobian(
        _jac_add(_mult(u1, curve.g, curve), _mult(u2, public_key, curve), curve.p),
        curve.p,
    )
    if point is None:
        return False
    return point[0] % curve.n == r


def recover_candidates(
    digest: bytes,
    signature: Signature,
    curve: CurveParams = CURVE,
) -> Tuple[Tuple[int, int], ...]:
    """Recover the candidate public keys that could have produced ``signature``.

    ECDSA public-key recovery (as used by Ethereum's ``ecrecover``).
    Returns up to two candidate keys; callers disambiguate with a
    recovery id or by comparing addresses.
    """
    _check_digest(digest)
    r, s = signature.r, signature.s
    if not (1 <= r < curve.n and 1 <= s < curve.n):
        raise EcdsaError("signature scalars out of range")
    z = _bits_to_int(digest, curve.n) % curve.n
    # Q = r^-1 (s*R - z*G) = u1*G + u2*R
    r_inv = _inv_mod(r, curve.n)
    u1 = (-z * r_inv) % curve.n
    u2 = (s * r_inv) % curve.n
    u1_g = _mult(u1, curve.g, curve)
    candidates = []
    for j in range(curve.h + 1):
        x = r + j * curve.n
        if x >= curve.p:
            continue
        # Solve y^2 = x^3 + 7 (p ≡ 3 mod 4 so sqrt is a power).
        y_sq = (pow(x, 3, curve.p) + curve.a * x + curve.b) % curve.p
        y = pow(y_sq, (curve.p + 1) // 4, curve.p)
        if (y * y) % curve.p != y_sq:
            continue
        for y_candidate in ((y, curve.p - y) if y != 0 else (y,)):
            q_jac = _jac_add(u1_g, _mult(u2, (x, y_candidate), curve), curve.p)
            q_point = _from_jacobian(q_jac, curve.p)
            if q_point is not None and verify(q_point, digest, signature, curve):
                candidates.append(q_point)
    return tuple(candidates)
