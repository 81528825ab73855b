"""The Thorup–Zwick (4k-5) compact routing baseline."""

import pytest

from repro.baselines.hierarchy import SampledHierarchy
from repro.baselines.thorup_zwick import ThorupZwickScheme
from repro.graph.generators import (
    erdos_renyi,
    grid,
    random_sparse,
    with_random_weights,
)
from repro.graph.metric import MetricView
from repro.routing.simulator import measure_stretch, route


class TestStretch:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_bound_unweighted(self, k, er_unweighted, metric_er):
        s = ThorupZwickScheme(er_unweighted, k=k, metric=metric_er, seed=1)
        pairs = [
            (u, v)
            for u in range(0, er_unweighted.n, 3)
            for v in range(1, er_unweighted.n, 4)
            if u != v
        ]
        report = measure_stretch(
            s, metric_er, pairs, multiplicative_slack=s.stretch_bound()
        )
        assert report.max_additive_over <= 1e-9

    @pytest.mark.parametrize("k", [2, 3])
    def test_bound_weighted(self, k, er_weighted, metric_er_weighted):
        s = ThorupZwickScheme(er_weighted, k=k, metric=metric_er_weighted, seed=2)
        pairs = [
            (u, v)
            for u in range(0, er_weighted.n, 3)
            for v in range(1, er_weighted.n, 4)
            if u != v
        ]
        report = measure_stretch(
            s, metric_er_weighted, pairs,
            multiplicative_slack=s.stretch_bound(),
        )
        assert report.max_additive_over <= 1e-6

    def test_grid(self):
        g = grid(8, 8)
        m = MetricView(g)
        s = ThorupZwickScheme(g, k=3, metric=m, seed=3)
        for u in range(0, 64, 5):
            for v in range(1, 64, 6):
                if u == v:
                    continue
                r = route(s, u, v)
                assert r.length <= 7 * m.d(u, v) + 1e-9


class TestStructure:
    def test_invalid_k_rejected(self, er_unweighted, metric_er):
        with pytest.raises(ValueError):
            ThorupZwickScheme(er_unweighted, k=1, metric=metric_er)

    def test_tables_shrink_with_k(self, er_unweighted, metric_er):
        sizes = []
        for k in (2, 3, 4):
            s = ThorupZwickScheme(er_unweighted, k=k, metric=metric_er, seed=4)
            sizes.append(s.stats().avg_table_words)
        assert sizes[0] > sizes[2]

    def test_own_cluster_pairs_exact(self, er_unweighted, metric_er):
        s = ThorupZwickScheme(er_unweighted, k=3, metric=metric_er, seed=5)
        level1 = set(s.hierarchy.level(1))
        checked = 0
        for u in range(er_unweighted.n):
            if u in level1:
                continue
            for v in s.hierarchy.cluster(u):
                if v != u:
                    assert route(s, u, v).length == pytest.approx(
                        metric_er.d(u, v)
                    )
                    checked += 1
        assert checked > 0

    def test_shared_hierarchy_reused(self, er_unweighted, metric_er):
        h = SampledHierarchy(metric_er, 3, seed=6)
        s = ThorupZwickScheme(
            er_unweighted, k=3, metric=metric_er, hierarchy=h
        )
        assert s.hierarchy is h

    def test_label_has_k_entries(self, er_unweighted, metric_er):
        s = ThorupZwickScheme(er_unweighted, k=3, metric=metric_er, seed=7)
        for v in range(0, er_unweighted.n, 9):
            _, entries = s.label_of(v)
            assert len(entries) == 3


class TestLazyRowBound:
    def test_tz2_rows_are_the_landmark_columns(self):
        # On a lazy metric the only full rows a TZ build needs are the
        # A_1 columns (plus a few for sampling and the tolerance scale);
        # cluster trees check closure against the cluster sweep.
        g = random_sparse(600, 2400, seed=3)
        m = MetricView(g, mode="lazy")
        s = ThorupZwickScheme(g, k=2, metric=m, seed=0)
        assert m.rows_computed <= len(s.hierarchy.level(1)) + 8
