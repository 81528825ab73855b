"""The Thorup–Zwick sampled hierarchy."""

import pytest

from repro.baselines.hierarchy import SampledHierarchy
from repro.graph.generators import random_sparse, with_random_weights
from repro.graph.metric import MetricView


@pytest.fixture(scope="module")
def h3(metric_er):
    return SampledHierarchy(metric_er, 3, seed=1)


class TestLevels:
    def test_monotone_and_nonempty(self, h3, metric_er):
        assert h3.level(0) == list(range(metric_er.n))
        assert set(h3.level(2)) <= set(h3.level(1)) <= set(h3.level(0))
        assert h3.level(2)
        assert h3.level(3) == []

    def test_level_of(self, h3, metric_er):
        for w in range(metric_er.n):
            lvl = h3.level_of(w)
            assert w in h3.level(lvl)
            assert lvl + 1 >= 3 or w not in h3.level(lvl + 1)

    def test_invalid_k_rejected(self, metric_er):
        with pytest.raises(ValueError):
            SampledHierarchy(metric_er, 1)

    def test_deterministic(self, metric_er):
        a = SampledHierarchy(metric_er, 3, seed=9)
        b = SampledHierarchy(metric_er, 3, seed=9)
        for i in range(3):
            assert a.level(i) == b.level(i)


class TestPivots:
    def test_pivot_distance_matches(self, h3, metric_er):
        for v in range(metric_er.n):
            for i in range(3):
                d = h3.pivot_distance(i, v)
                assert d == pytest.approx(
                    min(metric_er.d(v, w) for w in h3.level(i))
                )

    def test_collapse_invariant(self, h3):
        h3.validate()  # checks v in C(p_i(v)) for all i, among others

    def test_pivot_in_level(self, h3):
        for v in range(h3.n):
            for i in range(3):
                assert h3.pivot(i, v) in h3.level(i) or h3.pivot(
                    i, v
                ) in h3.level(i + 1)


class TestClusters:
    def test_transposition(self, h3):
        for v in range(h3.n):
            for w in h3.bunch(v):
                assert v in h3.cluster(w)

    def test_cluster_definition(self, h3, metric_er):
        for w in range(0, h3.n, 7):
            lvl = h3.level_of(w)
            nxt = h3.level(lvl + 1)
            for v in range(h3.n):
                if nxt:
                    bound = min(metric_er.d(v, x) for x in nxt)
                else:
                    bound = float("inf")
                assert (v in h3.cluster(w)) == (metric_er.d(w, v) < bound)

    def test_level0_cluster_bound_from_lemma4(self, h3, metric_er):
        """Lemma 4 bounds level-0 clusters by 4n/s, s = n^{1-1/k}."""
        n = metric_er.n
        bound = 4 * n / (n ** (1 - 1 / 3))
        level1 = set(h3.level(1))
        for w in range(n):
            if w not in level1:
                assert len(h3.cluster(w)) <= bound

    def test_top_level_clusters_are_everything(self, h3):
        for w in h3.level(2):
            assert len(h3.cluster(w)) == h3.n

    def test_max_bunch_size(self, h3):
        assert h3.max_bunch_size() == max(
            len(h3.bunch(v)) for v in range(h3.n)
        )


class TestWeighted:
    def test_validate_on_weighted(self, metric_er_weighted):
        h = SampledHierarchy(metric_er_weighted, 4, seed=2)
        h.validate()


class TestClusterTrees:
    def test_trees_from_sweep_distances(self):
        g = with_random_weights(random_sparse(300, 1200, seed=5), seed=6)
        m = MetricView(g, mode="lazy")
        h = SampledHierarchy(m, 3, seed=2)
        before = m.rows_computed
        trees = {w: h.cluster_tree(w) for w, _ in h.clusters()}
        # the closure checks read the cluster sweep, not full rows
        assert m.rows_computed == before
        for w, members in h.clusters():
            assert trees[w].parent == m.restricted_spt_parents(w, members)
        # released once used: a repeat call reads the row, same tree
        w = next(iter(trees))
        rows = m.rows_computed
        assert h.cluster_tree(w).parent == trees[w].parent
        assert m.rows_computed <= rows + 1

    def test_lazy_tol_matches_row_checked_build(self):
        # The lazy tolerance freezes at its first read.  Row-checked trees
        # put the first cluster root's row into that scale; sweep-checked
        # trees read none, and on this graph the scale is the same.
        g = with_random_weights(random_sparse(300, 1200, seed=5), seed=6)
        swept, rowed = MetricView(g, mode="lazy"), MetricView(g, mode="lazy")
        h = SampledHierarchy(swept, 3, seed=2)
        for w, _ in h.clusters():
            h.cluster_tree(w)
        for w, members in SampledHierarchy(rowed, 3, seed=2).clusters():
            rowed.restricted_spt_parents(w, members)
        assert swept.tol == rowed.tol
