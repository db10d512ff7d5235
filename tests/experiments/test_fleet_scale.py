"""Fleet scale-out experiment: determinism, parity, and the 5x claim."""

import os

import pytest

from repro.experiments.fleet_scale import fleet_split, run_fleet_scale
from repro.network.config import NetworkConfig
from repro.shard import FleetSpec, ShardedSimulator


class TestFleetSplit:
    def test_small_fleets_are_all_full(self):
        assert fleet_split(5) == (5, 0)
        assert fleet_split(25) == (25, 0)

    def test_large_fleets_keep_a_backbone(self):
        full, light = fleet_split(1000)
        assert full + light == 1000
        assert full == 20
        full, light = fleet_split(200)
        assert full == 10 and light == 190


class TestConvergenceInvariants:
    def test_inv_fleet_converges(self):
        result = run_fleet_scale(node_counts=(50,), blocks=5, seed=3)
        assert result.all_converged()
        point = result.point("inv", 50)
        assert point["canonical_height"] >= 1
        assert point["blocks_mined"] >= 5  # base blocks + tie-break rounds

    def test_flood_and_inv_reach_the_same_height(self):
        result = run_fleet_scale(node_counts=(50,), blocks=5, seed=3)
        # Same seed split differently per mode, so heights may differ by
        # fork luck — but both modes must fully converge.
        for mode in ("inv", "flood"):
            point = result.point(mode, 50)
            assert point["full_converged"] and point["light_converged"]

    def test_thousand_node_inv_fleet(self):
        # The issue's headline scenario in tier-1: 1000 nodes, inv-pull,
        # post-convergence agreement on both planes.  Flood baseline is
        # excluded here (quadratic; the bench lane covers it).
        result = run_fleet_scale(
            node_counts=(1000,), blocks=4, flood_baseline=False, seed=17
        )
        point = result.point("inv", 1000)
        assert point["full_converged"] and point["light_converged"]
        assert point["light_nodes"] == 980
        # Inv-pull keeps traffic near-linear: well under the ~4M
        # messages four complete-mesh floods would cost.
        assert point["messages_sent"] < 100_000


class TestMessageSavings:
    def test_inv_is_5x_cheaper_than_flooding_at_200_nodes(self):
        result = run_fleet_scale(node_counts=(200,), blocks=4, seed=5)
        assert result.all_converged()
        assert result.flood_to_inv_message_ratio(200) >= 5.0
        inv = result.point("inv", 200)
        flood = result.point("flood", 200)
        assert flood["bytes_sent"] > 5 * inv["bytes_sent"]


class TestDeterminism:
    def test_same_seed_same_points(self):
        first = run_fleet_scale(node_counts=(50,), blocks=4, seed=9)
        second = run_fleet_scale(node_counts=(50,), blocks=4, seed=9)
        assert first.points == second.points

    def test_jobs_parity(self):
        serial = run_fleet_scale(node_counts=(50, 80), blocks=4, seed=9)
        parallel = run_fleet_scale(node_counts=(50, 80), blocks=4, seed=9, jobs=2)
        assert serial.points == parallel.points

    def test_checkpoint_resume_is_bit_identical(self, tmp_path):
        path = os.fspath(tmp_path / "fleet.jsonl")
        uninterrupted = run_fleet_scale(node_counts=(50, 80), blocks=4, seed=9)
        # First pass journals only the 50-node points...
        run_fleet_scale(node_counts=(50,), blocks=4, seed=9, checkpoint=path)
        # ...resume recomputes just the 80-node points.
        resumed = run_fleet_scale(
            node_counts=(50, 80), blocks=4, seed=9, checkpoint=path
        )
        assert resumed.points == uninterrupted.points


class TestLightFleetMechanics:
    def test_light_clients_track_reorgs(self):
        net = ShardedSimulator(
            FleetSpec(
                full_nodes=6,
                light_nodes=12,
                network=NetworkConfig.large_fleet(degree=4, fanout=2),
            ),
            {f"p{i}": 1.0 for i in range(6)},
            seed=21,
        )
        net.run_blocks(10)
        net.finalize()
        assert net.converged()
        assert net.light_converged()
        heaviest = max(
            net.replicas.values(), key=lambda r: r.chain.total_difficulty()
        )
        for light in net.light_replicas.values():
            assert len(light.headers) == heaviest.chain.height + 1

    def test_crashed_light_client_resyncs_on_restart(self):
        net = ShardedSimulator(
            FleetSpec(
                full_nodes=5,
                light_nodes=3,
                network=NetworkConfig(topology="complete", mode="inv"),
            ),
            {f"p{i}": 1.0 for i in range(5)},
            seed=22,
        )
        net.run_blocks(3)
        net.settle()
        victim = net.light_replicas["light-0"]
        victim.crash()
        net.run_blocks(4)
        net.settle()
        assert victim.tip_id() != net._heaviest_replica().head_id()
        victim.restart()
        assert victim.tip_id() == net._heaviest_replica().head_id()
        assert victim.header_resyncs >= 1

    def test_seen_capacity_bounds_dedup_state(self):
        net = ShardedSimulator(
            FleetSpec(
                full_nodes=4,
                network=NetworkConfig(
                    topology="complete", mode="inv", seen_capacity=3
                ),
            ),
            {f"p{i}": 1.0 for i in range(4)},
            seed=23,
        )
        net.run_blocks(8)
        net.finalize()
        assert net.converged()
        for name in net.replicas:
            assert len(net.network._seen[name]) <= 3


@pytest.mark.bench
class TestFleetScaleBenchShape:
    def test_result_table_renders(self):
        result = run_fleet_scale(node_counts=(50,), blocks=3, seed=2)
        text = result.to_table().render()
        assert "inv" in text and "flood" in text
