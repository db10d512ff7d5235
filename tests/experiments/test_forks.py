"""Shape tests for the fork-rate experiment."""

import pytest

from repro.experiments.forks import run_fork_rate


class TestForkRate:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fork_rate(ratios=(0.005, 0.3), blocks=150)

    def test_negligible_forks_at_paper_operating_point(self, result):
        # LAN delays (<<1% of block time) essentially never fork.
        assert result.orphan_rate(0.005) < 0.02

    def test_slow_network_forks_more(self, result):
        assert result.orphan_rate(0.3) > result.orphan_rate(0.005)

    def test_rates_are_valid_fractions(self, result):
        for _, _, rate in result.points.values():
            assert 0.0 <= rate < 1.0

    def test_table_renders(self, result):
        text = result.to_table().render()
        assert "orphan rate" in text


class TestOrphanAccounting:
    """Regression: orphan rate must count against blocks actually mined.

    The old accounting divided the *tallest replica's* height by
    ``blocks + extra`` — but tie-break rounds can mine on losing forks
    and the tallest replica can sit on one, so at forking ratios the
    rate could go negative or overstate convergence.  The fix counts
    the fleet's ``blocks_mined`` against the canonical (heaviest)
    chain's height, clamped to [0, 1].
    """

    @pytest.fixture(scope="class")
    def forking(self):
        # A forking operating point: delays at half the block time.
        return run_fork_rate(ratios=(0.5,), blocks=60)

    def test_rate_is_a_valid_fraction_at_forking_ratio(self, forking):
        mined, height, rate = forking.points[0.5]
        assert 0.0 <= rate <= 1.0

    def test_rate_is_orphans_over_mined(self, forking):
        mined, height, rate = forking.points[0.5]
        assert rate == pytest.approx((mined - height) / mined)

    def test_canonical_height_never_exceeds_mined(self, forking):
        mined, height, _ = forking.points[0.5]
        assert 0 < height <= mined

    def test_mined_counts_tie_break_blocks(self, forking):
        # blocks_mined is authoritative: at least the requested blocks,
        # plus any tie-break rounds that actually mined.
        mined, _, _ = forking.points[0.5]
        assert mined >= 60

    def test_genesis_not_counted_as_mined_or_canonical(self):
        # At LAN delays every mined block lands on the canonical chain:
        # height (non-genesis canonical blocks) equals mined exactly,
        # which only holds if genesis is excluded from both sides.
        result = run_fork_rate(ratios=(0.005,), blocks=40)
        mined, height, rate = result.points[0.005]
        assert mined == height
        assert rate == 0.0
