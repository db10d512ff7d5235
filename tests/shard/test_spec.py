"""FleetSpec: one fleet-shape object, consumed by every fleet.

Covers the frozen dataclass's validation and derived shape, plus how
``DecentralizedDeployment`` takes its persistence from ``spec=`` and
rejects the shapes it does not model.
"""

import pytest

from repro.core.stakeholders import DecentralizedDeployment
from repro.network.config import NetworkConfig
from repro.shard import FleetSpec


class TestValidation:
    def test_needs_a_full_node(self):
        with pytest.raises(ValueError, match="at least one full node"):
            FleetSpec(full_nodes=0)

    def test_rejects_negative_lights(self):
        with pytest.raises(ValueError, match="light_nodes"):
            FleetSpec(full_nodes=1, light_nodes=-1)

    def test_rejects_more_shards_than_full_nodes(self):
        with pytest.raises(ValueError, match="cannot split"):
            FleetSpec(full_nodes=2, shards=3)

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown shard strategy"):
            FleetSpec(full_nodes=2, shard_strategy="round_robin")

    def test_rejects_non_config_network(self):
        with pytest.raises(TypeError, match="NetworkConfig"):
            FleetSpec(full_nodes=2, network="ring")

    def test_rejects_bad_snapshot_interval(self):
        with pytest.raises(ValueError, match="store_snapshot_interval"):
            FleetSpec(full_nodes=2, store_snapshot_interval=0)


class TestDerivedShape:
    def test_counts_and_names(self):
        spec = FleetSpec(full_nodes=3, light_nodes=5)
        assert spec.nodes == 8
        assert spec.light_fraction == 5 / 8
        assert spec.full_names() == ["provider-0", "provider-1", "provider-2"]
        assert spec.light_names() == [f"light-{i}" for i in range(5)]
        assert spec.equal_shares() == {name: 1.0 for name in spec.full_names()}

    def test_for_fleet_small_is_all_full(self):
        spec = FleetSpec.for_fleet(20)
        assert (spec.full_nodes, spec.light_nodes) == (20, 0)
        assert spec.network == NetworkConfig()

    def test_for_fleet_large_keeps_the_backbone(self):
        spec = FleetSpec.for_fleet(1000)
        assert (spec.full_nodes, spec.light_nodes) == (20, 980)
        assert spec.network == NetworkConfig.large_fleet()

    def test_with_shards_and_unsharded(self):
        spec = FleetSpec(full_nodes=6, light_nodes=4)
        sharded = spec.with_shards(3, strategy="consistent_hash")
        assert sharded.shards == 3
        assert sharded.shard_strategy == "consistent_hash"
        assert sharded.unsharded().shards == 1
        # The original is frozen and untouched.
        assert spec.shards == 1

    def test_specs_are_hashable_and_comparable(self):
        assert FleetSpec(full_nodes=2) == FleetSpec(full_nodes=2)
        assert len({FleetSpec(full_nodes=2), FleetSpec(full_nodes=2)}) == 1


class TestDeploymentAdoption:
    def test_spec_supplies_persistence(self, tmp_path):
        spec = FleetSpec(full_nodes=2, store_dir=str(tmp_path / "fleet"))
        deployment = DecentralizedDeployment(
            {"p1": 0.5, "p2": 0.5}, [], spec=spec
        )
        assert deployment.store_dir == tmp_path / "fleet"
        assert deployment.spec is spec
        for provider in deployment.providers.values():
            assert provider.store is not None
            provider.store.close()

    def test_rejects_lights_and_shards(self):
        with pytest.raises(ValueError, match="light replicas"):
            DecentralizedDeployment(
                {"p1": 1.0}, [], spec=FleetSpec(full_nodes=1, light_nodes=2)
            )
        with pytest.raises(ValueError, match="single-process"):
            DecentralizedDeployment(
                {"p1": 1.0}, [], spec=FleetSpec(full_nodes=2, shards=2)
            )

    def test_rejects_a_non_spec(self):
        with pytest.raises(TypeError, match="FleetSpec"):
            DecentralizedDeployment({"p1": 1.0}, [], spec={"full_nodes": 1})
