"""Identity registry: long-lived keys of IoT entities.

"In SmartCrowd, every IoT entity (e.g., IoT provider, detector, and
consumer) has long-time lived public key pk and private key sk" (§V-A).
Verifiers resolve an entity id (``P_i``, ``D_i``) to its public key
through this registry — the reproduction's stand-in for whatever PKI or
on-chain key registration a deployment would use.

The registry also remembers which signatures it has checked.  Every
provider replica of a deployment runs Algorithm 1 on the same R† and
R*, so :meth:`IdentityRegistry.verify_signature` pays for each distinct
signature once.  The memo is per registry — one per deployment or
platform — so a new deployment starts cold.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, Optional, Tuple

from repro.crypto.ecdsa import Signature
from repro.crypto.keys import Address, PublicKey

__all__ = ["IdentityRegistry", "SIGNATURE_MEMO_SIZE"]

#: Verified-signature outcomes each registry keeps (least recently used
#: evicted first).
SIGNATURE_MEMO_SIZE = 4096


class IdentityRegistry:
    """Maps entity ids to public keys (and payout addresses)."""

    def __init__(self) -> None:
        self._keys: Dict[str, PublicKey] = {}
        self._wallets: Dict[str, Address] = {}
        #: (key point, digest, r, s) -> the outcome of ``PublicKey.verify``.
        self._verified: "OrderedDict[tuple, bool]" = OrderedDict()

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self._keys

    def __len__(self) -> int:
        return len(self._keys)

    def register(
        self,
        entity_id: str,
        public_key: PublicKey,
        wallet: Optional[Address] = None,
    ) -> None:
        """Bind an entity id to its long-lived public key.

        Re-registering an id with a *different* key is rejected —
        identities are long-lived, and allowing silent rebinding would
        let an attacker hijack a detector's payouts.
        """
        existing = self._keys.get(entity_id)
        if existing is not None and existing != public_key:
            raise ValueError(f"identity {entity_id!r} is already bound to another key")
        self._keys[entity_id] = public_key
        self._wallets[entity_id] = wallet if wallet is not None else public_key.address()

    def public_key(self, entity_id: str) -> Optional[PublicKey]:
        """Resolve an id to its public key (None if unknown)."""
        return self._keys.get(entity_id)

    def wallet(self, entity_id: str) -> Optional[Address]:
        """Resolve an id to its payout address."""
        return self._wallets.get(entity_id)

    def entities(self) -> Iterator[Tuple[str, PublicKey]]:
        """Iterate all registered (id, key) pairs."""
        return iter(self._keys.items())

    def verify_signature(
        self, public_key: PublicKey, digest: bytes, signature: Signature
    ) -> bool:
        """``public_key.verify(digest, signature)``, memoised on this registry.

        The memo key is the full input, and both outcomes are kept, so a
        hit returns exactly what a fresh check would.
        """
        key = (public_key.point, digest, signature.r, signature.s)
        memo = self._verified
        outcome = memo.get(key)
        if outcome is not None:
            memo.move_to_end(key)
            return outcome
        outcome = public_key.verify(digest, signature)
        memo[key] = outcome
        if len(memo) > SIGNATURE_MEMO_SIZE:
            memo.popitem(last=False)
        return outcome
