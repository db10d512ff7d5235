"""SmartCrowd reproduction.

A from-scratch Python implementation of *SmartCrowd: Decentralized and
Automated Incentives for Distributed IoT System Detection* (Wu et al.,
ICDCS 2019): a blockchain-powered crowdsourcing platform where
detectors earn automatic bounties for IoT vulnerabilities, providers
are held accountable through escrowed insurances, and consumers read an
authoritative on-chain security reference.

Subpackages
-----------
``repro.crypto``      secp256k1 ECDSA + SHA-3 (pure Python)
``repro.chain``       PoW blockchain: blocks, Merkle trees, fork choice
``repro.contracts``   deterministic contract runtime + SmartCrowd contract
``repro.network``     discrete-event P2P gossip simulation
``repro.detection``   IoT systems, detectors, scanners, AutoVerif
``repro.core``        the paper's contribution: SRAs, two-phase reports,
                      Algorithm 1, incentives, the platform orchestrator
``repro.adversary``   attack library + 51%/double-spend analysis
``repro.analysis``    closed forms of SVI-B (DC_T, balances, VPB)
``repro.workloads``   the SVII experimental setup as reusable presets
``repro.experiments`` one runner per paper table/figure
``repro.query``       consumer read path: materialized indices, snapshot
                      caching, batched query serving
``repro.shard``       the replica-fleet engine: FleetSpec, serial or
                      barrier-synchronized sharded workers, bit parity

Quickstart
----------
>>> from repro import SmartCrowdPlatform, PlatformConfig
>>> from repro.detection import build_detector_fleet, build_system
>>> from repro.chain import PAPER_HASHPOWER_SHARES
>>> platform = SmartCrowdPlatform(
...     PAPER_HASHPOWER_SHARES, build_detector_fleet(), PlatformConfig(seed=1)
... )
>>> system = build_system("smart-camera", vulnerability_count=2)
>>> sra = platform.announce_release("provider-1", system)
>>> _ = platform.advance_for(1200.0)
"""

from repro.core import (
    ConsumerClient,
    IncentiveParameters,
    PlatformConfig,
    SmartCrowdPlatform,
)
from repro.network.config import NetworkConfig
from repro.query import QueryRequest, QueryService
from repro.shard import FleetSpec, ShardedSimulator
from repro.units import ETHER, GWEI, WEI, format_ether, from_wei, to_wei

__version__ = "1.0.0"

__all__ = [
    "ConsumerClient",
    "ETHER",
    "FleetSpec",
    "GWEI",
    "IncentiveParameters",
    "NetworkConfig",
    "PlatformConfig",
    "QueryRequest",
    "QueryService",
    "ShardedSimulator",
    "SmartCrowdPlatform",
    "WEI",
    "__version__",
    "format_ether",
    "from_wei",
    "to_wei",
]
