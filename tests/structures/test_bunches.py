"""Bunches, clusters, pivots and cluster trees."""

import pytest

from repro.graph.generators import random_sparse
from repro.graph.metric import MetricView
from repro.structures.bunches import BunchStructure
from repro.structures.sampling import sample_cluster_bounded


@pytest.fixture(scope="module")
def bunches_er(metric_er):
    a = sample_cluster_bounded(metric_er, 10.0, seed=1)
    return BunchStructure(metric_er, a), a


class TestPivots:
    def test_pivot_is_nearest_landmark(self, metric_er, bunches_er):
        b, a = bunches_er
        for v in range(metric_er.n):
            p = b.pivot(v)
            assert p in a
            d = b.distance_to_landmarks(v)
            assert d == pytest.approx(min(metric_er.d(v, x) for x in a))
            assert metric_er.d(v, p) == pytest.approx(d)

    def test_pivot_tie_break_smallest_id(self, metric_grid):
        # path inside grid has symmetric landmarks; check lexicographic rule
        b = BunchStructure(metric_grid, [0, metric_grid.n - 1])
        for v in range(metric_grid.n):
            d0 = metric_grid.d(v, 0)
            d1 = metric_grid.d(v, metric_grid.n - 1)
            if d0 == d1:
                assert b.pivot(v) == 0

    def test_landmark_is_own_pivot(self, metric_er, bunches_er):
        b, a = bunches_er
        for x in a:
            assert b.pivot(x) == x
            assert b.distance_to_landmarks(x) == 0.0

    def test_empty_landmarks_rejected(self, metric_er):
        with pytest.raises(ValueError):
            BunchStructure(metric_er, [])


class TestBunchesClusters:
    def test_transposition(self, metric_er, bunches_er):
        b, _ = bunches_er
        for v in range(metric_er.n):
            for w in b.bunch(v):
                assert v in b.cluster(w)
        for w in range(metric_er.n):
            for v in b.cluster(w):
                assert w in b.bunch(v)

    def test_definition(self, metric_er, bunches_er):
        b, _ = bunches_er
        for w in range(metric_er.n):
            expect = [
                v
                for v in range(metric_er.n)
                if metric_er.d(w, v) < b.distance_to_landmarks(v)
            ]
            assert b.cluster(w) == expect

    def test_landmark_clusters_empty(self, metric_er, bunches_er):
        b, a = bunches_er
        for x in a:
            assert b.cluster(x) == []

    def test_nonlandmark_in_own_cluster(self, metric_er, bunches_er):
        b, a = bunches_er
        for w in range(metric_er.n):
            if w not in a:
                assert w in b.cluster(w)

    def test_in_cluster_matches_lists(self, metric_er, bunches_er):
        b, _ = bunches_er
        for w in range(0, metric_er.n, 9):
            members = set(b.cluster(w))
            for v in range(metric_er.n):
                assert b.in_cluster(w, v) == (v in members)


class TestClusterTrees:
    def test_tree_spans_cluster_with_exact_distances(
        self, metric_er, bunches_er
    ):
        b, a = bunches_er
        g = metric_er.graph
        for w in range(metric_er.n):
            members = b.cluster(w)
            if not members:
                continue
            tree = b.cluster_tree(w)
            assert set(tree.parent) == set(members)
            for v in members:
                # walk to the root accumulating weights = exact distance
                total, cur = 0.0, v
                while cur != w:
                    p = tree.parent[cur]
                    total += g.weight(cur, p)
                    cur = p
                assert total == pytest.approx(metric_er.d(w, v))

    def test_weighted_cluster_trees(self, metric_er_weighted):
        a = sample_cluster_bounded(metric_er_weighted, 10.0, seed=2)
        b = BunchStructure(metric_er_weighted, a)
        g = metric_er_weighted.graph
        for w in range(0, metric_er_weighted.n, 11):
            members = b.cluster(w)
            if not members:
                continue
            tree = b.cluster_tree(w)
            for v in members:
                total, cur = 0.0, v
                while cur != w:
                    p = tree.parent[cur]
                    total += g.weight(cur, p)
                    cur = p
                assert total == pytest.approx(metric_er_weighted.d(w, v))

    def test_empty_cluster_tree_rejected(self, metric_er, bunches_er):
        b, a = bunches_er
        with pytest.raises(ValueError):
            b.cluster_tree(a[0])

    def test_max_sizes_reported(self, metric_er, bunches_er):
        b, _ = bunches_er
        assert b.max_cluster_size() == max(
            len(b.cluster(w)) for w in range(metric_er.n)
        )
        assert b.max_bunch_size() == max(
            len(b.bunch(v)) for v in range(metric_er.n)
        )


class TestLazyClusterTrees:
    def test_trees_add_no_rows_beyond_landmark_columns(self):
        g = random_sparse(600, 2400, seed=3)
        m = MetricView(g, mode="lazy")
        a = sample_cluster_bounded(m, 600 ** 0.5, seed=1)
        before = m.rows_computed
        b = BunchStructure(m, a)
        assert m.rows_computed - before <= len(b.landmarks)
        built = m.rows_computed
        owners = [w for w in range(m.n) if b.cluster(w)]
        trees = {w: b.cluster_tree(w) for w in owners}
        assert m.rows_computed == built
        assert not b._member_dists  # released as each tree was built
        for w in owners:  # the row-checked tree is the same tree
            assert trees[w].parent == m.restricted_spt_parents(
                w, b.cluster(w)
            )

    def test_release_drops_unused_distances(self):
        g = random_sparse(600, 2400, seed=3)
        m = MetricView(g, mode="lazy")
        b = BunchStructure(m, sample_cluster_bounded(m, 600 ** 0.5, seed=1))
        w = next(w for w in range(m.n) if b.cluster(w))
        b.release_cluster_distances()
        assert not b._member_dists
        rows = m.rows_computed
        # still buildable afterwards, from the root's row
        assert b.cluster_tree(w).parent == m.restricted_spt_parents(
            w, b.cluster(w)
        )
        assert m.rows_computed == rows + 1
