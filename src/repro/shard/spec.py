"""One frozen description of a whole fleet: :class:`FleetSpec`.

Fleet-shaped experiments kept re-spelling the same knobs — how many
full nodes, how many header-only light replicas, which topology and
relay mode, where (if anywhere) replicas persist, and how many shards
the fleet is partitioned into.  :class:`FleetSpec` is the one object
that carries them:

* :class:`~repro.shard.engine.ShardedSimulator` runs any spec (its only
  required argument); ``shards == 1`` is the serial fleet,
* :class:`~repro.core.stakeholders.DecentralizedDeployment` (``spec=``)
  takes its persistence knobs from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.network.config import NetworkConfig

__all__ = ["FleetSpec"]

#: Shard-assignment strategies understood by :mod:`repro.shard.plan`.
_STRATEGIES = ("topology", "consistent_hash")


@dataclass(frozen=True)
class FleetSpec:
    """A fleet's shape: node counts, overlay, persistence, sharding.

    ``full_nodes``/``light_nodes`` size the two participation planes
    (§V-B: full replicas vs lightweight header-only detectors);
    ``network`` carries the overlay topology and relay mode; a set
    ``store_dir`` makes every node persist under ``store_dir/<name>``;
    ``shards`` partitions the fleet (``1`` means one serial event loop,
    the only value the stakeholder deployment accepts);
    ``shard_strategy`` picks how nodes map to shards (``"topology"``
    keeps ring neighbours together, ``"consistent_hash"`` spreads names
    over a hash ring).
    """

    full_nodes: int
    light_nodes: int = 0
    network: NetworkConfig = field(default_factory=NetworkConfig)
    store_dir: Optional[str] = None
    store_snapshot_interval: int = 512
    shards: int = 1
    shard_strategy: str = "topology"

    def __post_init__(self) -> None:
        if self.full_nodes < 1:
            raise ValueError("a fleet needs at least one full node")
        if self.light_nodes < 0:
            raise ValueError("light_nodes must be >= 0")
        if not isinstance(self.network, NetworkConfig):
            raise TypeError(
                f"network must be a NetworkConfig, got {type(self.network).__name__}"
            )
        if self.store_snapshot_interval < 1:
            raise ValueError("store_snapshot_interval must be >= 1")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.shards > self.full_nodes:
            raise ValueError(
                f"cannot split {self.full_nodes} full nodes over "
                f"{self.shards} shards (every shard needs a full node "
                "to mine on and serve its light replicas)"
            )
        if self.shard_strategy not in _STRATEGIES:
            raise ValueError(
                f"unknown shard strategy {self.shard_strategy!r} "
                f"(use one of {_STRATEGIES})"
            )

    # -- derived shape -----------------------------------------------------

    @property
    def nodes(self) -> int:
        """Total fleet size (full + light)."""
        return self.full_nodes + self.light_nodes

    @property
    def light_fraction(self) -> float:
        """Fraction of the fleet participating header-only."""
        return self.light_nodes / self.nodes

    def full_names(self) -> List[str]:
        """The canonical full-node names (``provider-i``)."""
        return [f"provider-{i}" for i in range(self.full_nodes)]

    def light_names(self) -> List[str]:
        """The canonical light-replica names (``light-i``)."""
        return [f"light-{i}" for i in range(self.light_nodes)]

    def equal_shares(self) -> Dict[str, float]:
        """Uniform hashpower over the canonical full-node names."""
        return {name: 1.0 for name in self.full_names()}

    # -- construction helpers ---------------------------------------------

    @classmethod
    def for_fleet(
        cls,
        node_count: int,
        network: Optional[NetworkConfig] = None,
        shards: int = 1,
        store_dir: Optional[str] = None,
        **extra,
    ) -> "FleetSpec":
        """The scale-out split for a fleet of ``node_count`` nodes.

        Mirrors :func:`~repro.experiments.fleet_scale.fleet_split`:
        small fleets (the paper's regime) are all full nodes, large
        fleets keep a 2% full-node backbone (floor 10) and let the rest
        participate header-only.  ``network`` defaults to
        :meth:`NetworkConfig.large_fleet` once the fleet outgrows the
        paper's LAN.
        """
        full, light = _fleet_split(node_count)
        if network is None:
            network = (
                NetworkConfig.large_fleet() if light else NetworkConfig()
            )
        return cls(
            full_nodes=full,
            light_nodes=light,
            network=network,
            shards=shards,
            store_dir=store_dir,
            **extra,
        )

    def with_shards(self, shards: int, strategy: Optional[str] = None) -> "FleetSpec":
        """This spec re-partitioned over ``shards`` shards."""
        if strategy is None:
            return replace(self, shards=shards)
        return replace(self, shards=shards, shard_strategy=strategy)

    def unsharded(self) -> "FleetSpec":
        """This spec with sharding stripped (one serial event loop)."""
        return replace(self, shards=1)


def _fleet_split(node_count: int) -> Tuple[int, int]:
    """(full, light) split — the 2%-backbone heuristic from fleet_scale."""
    if node_count < 1:
        raise ValueError("a fleet needs at least one node")
    if node_count <= 25:
        return node_count, 0
    full = max(10, node_count // 50)
    return full, node_count - full
