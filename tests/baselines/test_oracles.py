"""Distance-oracle baselines: TZ (2k-1) and PR (2,1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.pr_oracle import PROracle
from repro.baselines.tz_oracle import TZOracle
from repro.graph.generators import erdos_renyi, grid, with_random_weights
from repro.graph.metric import MetricView


class TestTZOracle:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_bound_all_pairs_unweighted(self, k, er_unweighted, metric_er):
        o = TZOracle(er_unweighted, k=k, metric=metric_er, seed=1)
        n = er_unweighted.n
        for u in range(n):
            for v in range(n):
                if u == v:
                    assert o.query(u, v) == 0.0
                    continue
                d = metric_er.d(u, v)
                est = o.query(u, v)
                assert d - 1e-9 <= est <= (2 * k - 1) * d + 1e-9

    @pytest.mark.parametrize("k", [2, 3])
    def test_bound_weighted(self, k, er_weighted, metric_er_weighted):
        o = TZOracle(er_weighted, k=k, metric=metric_er_weighted, seed=2)
        n = er_weighted.n
        for u in range(0, n, 3):
            for v in range(1, n, 4):
                if u == v:
                    continue
                d = metric_er_weighted.d(u, v)
                est = o.query(u, v)
                assert d - 1e-9 <= est <= (2 * k - 1) * d + 1e-9

    def test_k1_is_exact(self, er_unweighted, metric_er):
        o = TZOracle(er_unweighted, k=1, metric=metric_er)
        for u in range(0, er_unweighted.n, 5):
            for v in range(er_unweighted.n):
                assert o.query(u, v) == pytest.approx(metric_er.d(u, v))

    def test_space_decreases_with_k(self, er_unweighted, metric_er):
        spaces = [
            TZOracle(er_unweighted, k=k, metric=metric_er, seed=3)
            .space_words()["total"]
            for k in (1, 2, 3)
        ]
        assert spaces[0] > spaces[1] > 0
        assert spaces[1] > spaces[2] * 0.5  # noisy but same order

    @given(seed=st.integers(0, 20))
    @settings(max_examples=10, deadline=None)
    def test_random_graphs_k2(self, seed):
        g = erdos_renyi(36, 0.15, seed=seed)
        m = MetricView(g)
        o = TZOracle(g, k=2, metric=m, seed=seed)
        for u in range(0, 36, 4):
            for v in range(1, 36, 5):
                if u == v:
                    continue
                d = m.d(u, v)
                assert d - 1e-9 <= o.query(u, v) <= 3 * d + 1e-9

    def test_invalid_k(self, er_unweighted, metric_er):
        with pytest.raises(ValueError):
            TZOracle(er_unweighted, k=0, metric=metric_er)


class TestPROracle:
    def test_bound_all_pairs(self, er_unweighted, metric_er):
        o = PROracle(er_unweighted, metric=metric_er, seed=1)
        n = er_unweighted.n
        for u in range(n):
            for v in range(n):
                if u == v:
                    assert o.query(u, v) == 0.0
                    continue
                d = metric_er.d(u, v)
                est = o.query(u, v)
                assert d - 1e-9 <= est <= 2 * d + 1 + 1e-9

    def test_grid(self):
        g = grid(8, 8)
        m = MetricView(g)
        o = PROracle(g, metric=m, seed=2)
        for u in range(0, 64, 3):
            for v in range(1, 64, 4):
                if u == v:
                    continue
                d = m.d(u, v)
                assert d <= o.query(u, v) <= 2 * d + 1

    @given(seed=st.integers(0, 25))
    @settings(max_examples=12, deadline=None)
    def test_random_graphs(self, seed):
        g = erdos_renyi(32, 0.12, seed=seed)
        m = MetricView(g)
        o = PROracle(g, metric=m, seed=seed)
        for u in range(0, 32, 3):
            for v in range(1, 32, 3):
                if u == v:
                    continue
                d = m.d(u, v)
                assert d - 1e-9 <= o.query(u, v) <= 2 * d + 1 + 1e-9

    def test_requires_unweighted(self, er_weighted, metric_er_weighted):
        with pytest.raises(ValueError):
            PROracle(er_weighted, metric=metric_er_weighted)

    def test_landmarks_hit_every_ball(self, er_unweighted, metric_er):
        o = PROracle(er_unweighted, metric=metric_er, seed=3)
        landmark_set = set(o.landmarks)
        for u in range(er_unweighted.n):
            assert landmark_set & set(o.family.ball(u))

    def test_space_reported(self, er_unweighted, metric_er):
        o = PROracle(er_unweighted, metric=metric_er, seed=4)
        space = o.space_words()
        assert space["total"] >= space["max_per_vertex"] > 0


class TestClusterDistancesReleased:
    # The oracles build no cluster trees, so they keep none of the
    # cluster sweep's distances.
    def test_tz_oracle(self, er_unweighted, metric_er):
        o = TZOracle(er_unweighted, k=3, metric=metric_er, seed=1)
        assert not o.hierarchy._member_dists

    def test_pr_oracle(self, er_unweighted, metric_er):
        o = PROracle(er_unweighted, metric=metric_er, seed=1)
        assert not o.bunches._member_dists
