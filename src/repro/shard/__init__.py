"""The replica-fleet engine: one spec, one or many shards, same bits.

``repro.shard`` runs every replica fleet: a :class:`FleetSpec`
describes the fleet once, a :class:`ShardPlan` partitions it
(topology-aware slices or consistent hashing), and
:class:`ShardedSimulator` runs each shard's simulator independently
between deterministic epoch barriers, exchanging cross-shard
inv/getdata/payload traffic as length-prefixed frames
(:mod:`repro.shard.frames`).  A serial fleet is ``spec.shards == 1``:
one event loop, no barriers.  ``jobs=1`` is the always-live parity
oracle: parallel runs are seed-for-seed bit-identical to it.
"""

from repro.shard.engine import ShardGateway, ShardState, ShardedSimulator
from repro.shard.frames import (
    CrossShardFrame,
    FrameError,
    FrameKind,
    decode_frame,
    decode_frames,
    encode_frame,
    encode_frames,
)
from repro.shard.plan import ShardPlan, build_plan, derive_shard_seeds
from repro.shard.spec import FleetSpec

__all__ = [
    "CrossShardFrame",
    "FleetSpec",
    "FrameError",
    "FrameKind",
    "ShardGateway",
    "ShardPlan",
    "ShardState",
    "ShardedSimulator",
    "build_plan",
    "decode_frame",
    "decode_frames",
    "derive_shard_seeds",
    "encode_frame",
    "encode_frames",
]
