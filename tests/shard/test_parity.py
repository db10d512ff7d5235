"""The sharded engine's parity contract, seed for seed.

Asserted at the bit level across 3 seeds (the one-shard trajectories
are pinned separately, in ``test_serial_digests.py``):

1. ``jobs`` is pure parallelism — a fleet spread over worker processes
   is identical to the serial ``jobs=1`` oracle: heads, serialized
   confirmed chains, replayed ledger state, light tips, replica
   counters, and merged gossip summaries.
2. The shard count is configuration — each count is deterministic in
   its own right.
3. Persistence is invisible — a store-backed fleet walks the same
   trajectory as the in-memory one (stores draw no randomness).
"""

import pytest

from repro.chain.ledger import LedgerStateMachine
from repro.chain.serialization import import_chain
from repro.network.config import NetworkConfig
from repro.shard import FleetSpec, ShardedSimulator

SEEDS = (0, 1, 2)
BLOCKS = 6


def _spec(**overrides):
    base = dict(
        full_nodes=8,
        light_nodes=16,
        network=NetworkConfig.large_fleet(),
        shards=2,
    )
    base.update(overrides)
    return FleetSpec(**base)


def _run(spec, seed, jobs):
    """One fleet run reduced to its comparable bit-level artifacts."""
    with ShardedSimulator(spec, seed=seed, jobs=jobs) as fleet:
        fleet.run_blocks(BLOCKS)
        fleet.finalize()
        return {
            "heads": fleet.heads(),
            "light_tips": fleet.light_heads(),
            "chains": fleet.chain_bytes(),
            "counters": fleet.replica_counters(),
            "summary": fleet.summary(),
            "canonical": fleet.export_canonical(),
            "blocks_mined": fleet.blocks_mined,
        }


def _ledger_state(canonical_blob):
    """Replay a serialized canonical chain into world state + nonces."""
    state, nonces = LedgerStateMachine().replay(import_chain(canonical_blob))
    return state.snapshot(), nonces


class TestJobsParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_worker_processes_match_the_serial_oracle(self, seed):
        spec = _spec()
        serial = _run(spec, seed, jobs=1)
        parallel = _run(spec, seed, jobs=2)
        assert serial == parallel

    @pytest.mark.parametrize("seed", SEEDS)
    def test_ledger_replay_is_identical(self, seed):
        spec = _spec()
        serial = _ledger_state(_run(spec, seed, jobs=1)["canonical"])
        parallel = _ledger_state(_run(spec, seed, jobs=2)["canonical"])
        assert serial == parallel

    def test_consistent_hash_fleets_hold_parity_too(self):
        spec = _spec(shard_strategy="consistent_hash")
        assert _run(spec, 1, jobs=1) == _run(spec, 1, jobs=2)

    def test_flood_mode_fleets_hold_parity_too(self):
        spec = _spec(network=NetworkConfig(), light_nodes=4)
        assert _run(spec, 2, jobs=1) == _run(spec, 2, jobs=2)


class TestShardCount:
    def test_shard_count_is_config_not_noise(self):
        # Different shard counts are different experiments (barrier
        # batching quantizes cross-shard arrivals), but each is
        # deterministic in its own right.
        two = _run(_spec(shards=2), 0, jobs=1)
        four = _run(_spec(shards=4), 0, jobs=1)
        assert two == _run(_spec(shards=2), 0, jobs=1)
        assert four == _run(_spec(shards=4), 0, jobs=1)


class TestStoreParity:
    def test_persistence_is_trajectory_invisible(self, tmp_path):
        plain = _run(_spec(), 1, jobs=1)
        stored = _run(_spec(store_dir=str(tmp_path / "serial")), 1, jobs=1)
        for key in ("heads", "light_tips", "chains", "canonical"):
            assert plain[key] == stored[key]

    def test_store_backed_fleets_hold_jobs_parity(self, tmp_path):
        serial = _run(_spec(store_dir=str(tmp_path / "serial")), 2, jobs=1)
        parallel = _run(_spec(store_dir=str(tmp_path / "workers")), 2, jobs=2)
        for key in ("heads", "light_tips", "chains", "canonical", "summary"):
            assert serial[key] == parallel[key]
        # Both fleets actually persisted: every member has a directory.
        for root in (tmp_path / "serial", tmp_path / "workers"):
            assert len(list(root.iterdir())) == 24
