"""Deterministic fleet partitioning: which shard owns which node.

Two strategies, both pure functions of the spec (no rng, no state):

``topology``
    Contiguous slices of the fleet's interleaved ring order (full nodes
    with their light replicas spread between them — the same order the
    overlay topology is built over).  Ring edges overwhelmingly stay
    intra-shard, so ``ring``/``ring_random`` fleets cross shards only
    on the two seam edges plus random chords — the topology-aware
    choice for the large-fleet default.

``consistent_hash``
    Classic consistent hashing: shards project virtual points onto a
    hash ring, every node hashes to a position, and the next point
    clockwise owns it.  Placement is independent of fleet order, so
    adding nodes moves only a 1/shards fraction of assignments — the
    choice when fleet membership churns.

Either way every shard must own at least one full node: lights resync
headers from an in-shard SPV server, and the mining plane needs a
replica to extend wherever the sampled winner lives.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.crypto.hashing import sha3_256
from repro.shard.spec import FleetSpec

__all__ = ["ShardPlan", "build_plan", "derive_shard_seeds"]


@dataclass(frozen=True)
class ShardPlan:
    """A fixed assignment of every fleet node to exactly one shard."""

    #: Per-shard node-name tuples, in global fleet order within a shard.
    assignments: Tuple[Tuple[str, ...], ...]

    def __post_init__(self) -> None:
        owners: Dict[str, int] = {}
        for index, names in enumerate(self.assignments):
            if not names:
                raise ValueError(f"shard {index} owns no nodes")
            for name in names:
                if name in owners:
                    raise ValueError(f"{name!r} is assigned to two shards")
                owners[name] = index
        object.__setattr__(self, "_owners", owners)

    @property
    def shards(self) -> int:
        """Number of shards."""
        return len(self.assignments)

    def shard_of(self, name: str) -> int:
        """The shard index owning ``name`` (KeyError if unknown)."""
        return self._owners[name]

    def owns(self, shard_index: int, name: str) -> bool:
        """True if ``shard_index`` owns ``name``."""
        return self._owners.get(name) == shard_index

    def members(self, shard_index: int) -> Tuple[str, ...]:
        """The node names owned by one shard."""
        return self.assignments[shard_index]

    def __contains__(self, name: str) -> bool:
        return name in self._owners


def _hash_position(label: str) -> int:
    """A point on the 64-bit hash ring."""
    return int.from_bytes(sha3_256(label.encode())[:8], "big")


def build_plan(spec: FleetSpec, ring_order: Sequence[str]) -> ShardPlan:
    """Partition ``ring_order`` (the fleet's interleaved name order).

    Raises :class:`ValueError` if the strategy strands a shard without
    a full node — a plan the engine could not mine or serve lights on.
    """
    if spec.shards == 1:
        return ShardPlan(assignments=(tuple(ring_order),))
    if spec.shard_strategy == "consistent_hash":
        assignments = _consistent_hash_assignments(ring_order, spec.shards)
    else:
        assignments = _contiguous_assignments(ring_order, spec.shards)
    plan = ShardPlan(assignments=assignments)
    # Light replicas carry the spec's names; full nodes may be named by
    # the fleet's hashpower shares, so they are everything else.
    light_names = set(spec.light_names())
    for index in range(plan.shards):
        if all(name in light_names for name in plan.members(index)):
            raise ValueError(
                f"{spec.shard_strategy!r} plan leaves shard {index} with no "
                "full node; lower the shard count or rebalance the fleet"
            )
    return plan


def _contiguous_assignments(
    ring_order: Sequence[str], shards: int
) -> Tuple[Tuple[str, ...], ...]:
    """Contiguous ring slices, sizes as even as the division allows."""
    count = len(ring_order)
    base, remainder = divmod(count, shards)
    pieces: List[Tuple[str, ...]] = []
    cursor = 0
    for index in range(shards):
        take = base + (1 if index < remainder else 0)
        pieces.append(tuple(ring_order[cursor : cursor + take]))
        cursor += take
    return tuple(pieces)


def _consistent_hash_assignments(
    ring_order: Sequence[str], shards: int, points_per_shard: int = 64
) -> Tuple[Tuple[str, ...], ...]:
    """Hash-ring ownership with ``points_per_shard`` virtual points."""
    ring: List[Tuple[int, int]] = []
    for shard in range(shards):
        for point in range(points_per_shard):
            ring.append((_hash_position(f"shard:{shard}:vnode:{point}"), shard))
    ring.sort()
    positions = [position for position, _ in ring]
    pieces: List[List[str]] = [[] for _ in range(shards)]
    for name in ring_order:
        spot = bisect.bisect_right(positions, _hash_position(f"node:{name}"))
        owner = ring[spot % len(ring)][1]
        pieces[owner].append(name)
    return tuple(tuple(piece) for piece in pieces)


def derive_shard_seeds(master_seed: int, count: int) -> List[int]:
    """``count`` independent per-shard rng seeds from one master draw.

    Hash-derived (not sequential) so shard k's stream never collides
    with shard k+1's regardless of how either consumes it — the same
    discipline :func:`repro.experiments.runner.derive_seeds` applies to
    trial fan-out.  ``count == 1`` returns the master seed itself, so a
    one-shard fleet draws the master stream directly.
    """
    if count == 1:
        return [master_seed]
    return [
        int.from_bytes(
            sha3_256(f"shard-seed:{master_seed}:{index}".encode())[:8], "big"
        )
        for index in range(count)
    ]
