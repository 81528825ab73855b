"""A Pătraşcu–Roditty-style (2,1)-stretch distance oracle ([19]).

The oracle Theorem 10 almost matches.  For unweighted graphs it answers
``query(u,v) <= 2 d(u,v) + 1`` with ``Õ(n^{2/3})`` words per vertex
(``Õ(n^{5/3})`` total).

Per vertex ``u`` (with ``q = n^{1/3}``, ``q̃ = alpha*q*log n``):

* the ball ``B(u, q̃)`` with exact distances,
* distances to *every* landmark of ``A`` (``|A| = Õ(n^{2/3})``; ``A`` is a
  Lemma 4 sample augmented with a hitting set of all balls, so
  ``d(u, p_A(u)) <= r_u + 1``),
* the bunch ``B_A(u)`` with exact distances, and the pivot ``p_A(u)``.

Query — minimum over four candidates::

    min over w in B(u,q̃) ∩ B_A(v) of d(u,w) + d(w,v)      (exact if nonempty)
    min over w in B(v,q̃) ∩ B_A(u) of d(v,w) + d(w,u)
    d(u, p_A(v)) + d(p_A(v), v)
    d(v, p_A(u)) + d(p_A(u), u)

When both intersections are empty, ``r_u + d(v,p_A(v)) <= d`` and
``r_v + d(u,p_A(u)) <= d`` while ``d(·,p_A(·)) <= r_· + 1``; adding the four
inequalities gives ``min(d(u,p_A(u)), d(v,p_A(v))) <= (d+1)/2`` and hence a
``2d+1`` candidate.  When an intersection is nonempty the Theorem 10
argument shows the best common vertex lies on a shortest path, so the
answer is exact.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..graph.core import Graph
from ..graph.metric import MetricView
from ..structures.balls import BallFamily, ball_size_parameter
from ..structures.bunches import BunchStructure
from ..structures.hitting_set import greedy_hitting_set
from ..structures.sampling import sample_cluster_bounded

__all__ = ["PROracle"]


class PROracle:
    """(2,1)-stretch distance oracle for unweighted graphs."""

    name = "PR oracle (2,1)"

    def __init__(
        self,
        graph: Graph,
        *,
        alpha: float = 1.0,
        q: Optional[int] = None,
        seed: int = 0,
        metric: Optional[MetricView] = None,
    ) -> None:
        if not graph.is_unweighted():
            raise ValueError("the (2,1) oracle is stated for unweighted graphs")
        self.graph = graph
        self.metric = metric if metric is not None else MetricView(graph)
        n = graph.n
        self.q = q if q is not None else max(1, round(n ** (1.0 / 3.0)))
        ell = ball_size_parameter(n, self.q, alpha)
        self.family = BallFamily(self.metric, ell)

        balls = [self.family.ball(u) for u in graph.vertices()]
        sampled = sample_cluster_bounded(self.metric, n / self.q, seed=seed)
        hitting = greedy_hitting_set(balls)
        self.landmarks = sorted(set(sampled) | set(hitting))
        self.bunches = BunchStructure(self.metric, self.landmarks)
        self.bunches.release_cluster_distances()  # no trees here

        # Per-vertex stores (distances as ints — unweighted).
        self._ball_dist: List[Dict[int, int]] = []
        self._bunch_dist: List[Dict[int, int]] = []
        self._landmark_dist: List[Dict[int, int]] = []
        for u in graph.vertices():
            self._ball_dist.append(
                {w: int(self.metric.d(u, w)) for w in self.family.ball(u)}
            )
            self._bunch_dist.append(
                {w: int(self.metric.d(u, w)) for w in self.bunches.bunch(u)}
            )
            self._landmark_dist.append(
                {a: int(self.metric.d(u, a)) for a in self.landmarks}
            )

    # ------------------------------------------------------------------
    def stretch_bound(self) -> tuple[float, float]:
        return (2.0, 1.0)

    def query(self, u: int, v: int) -> float:
        """A ``2d+1`` distance estimate (exact on ball intersections)."""
        if u == v:
            return 0.0
        best = float("inf")
        bunch_v = self._bunch_dist[v]
        for w, d_uw in self._ball_dist[u].items():
            d_wv = bunch_v.get(w)
            if d_wv is not None:
                best = min(best, d_uw + d_wv)
        bunch_u = self._bunch_dist[u]
        for w, d_vw in self._ball_dist[v].items():
            d_wu = bunch_u.get(w)
            if d_wu is not None:
                best = min(best, d_vw + d_wu)
        p_v = self.bunches.pivot(v)
        best = min(
            best, self._landmark_dist[u][p_v] + self._landmark_dist[v][p_v]
        )
        p_u = self.bunches.pivot(u)
        best = min(
            best, self._landmark_dist[v][p_u] + self._landmark_dist[u][p_u]
        )
        return float(best)

    # ------------------------------------------------------------------
    def space_words(self) -> Dict[str, int]:
        """Total and per-vertex-max storage in words."""
        per_vertex = [
            2 * len(self._ball_dist[u])
            + 2 * len(self._bunch_dist[u])
            + 2 * len(self._landmark_dist[u])
            for u in self.graph.vertices()
        ]
        return {
            "total": sum(per_vertex),
            "max_per_vertex": max(per_vertex, default=0),
        }
