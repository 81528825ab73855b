"""The Thorup–Zwick (2k-1)-stretch approximate distance oracle ([22]).

The centralized counterpart the paper's routing schemes are measured
against.  Stores ``O(k n^{1+1/k})`` total words; answers
``query(u, v) <= (2k-1) d(u, v)`` in ``O(k)`` time.

Structures per vertex ``v``:

* pivots ``p_i(v)`` and their distances, ``i = 0..k-1``,
* the bunch ``B(v)`` as a hash map ``w -> d(v, w)``.

The query is the classic pivot ladder: walk ``w = p_j(u)`` upward,
swapping ``u`` and ``v`` each round, until ``w ∈ B(v)``; return
``d(u, w) + d(w, v)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..graph.core import Graph
from ..graph.metric import MetricView
from .hierarchy import SampledHierarchy

__all__ = ["TZOracle"]


class TZOracle:
    """The (2k-1)-stretch distance oracle of Thorup and Zwick."""

    def __init__(
        self,
        graph: Graph,
        k: int = 2,
        *,
        seed: int = 0,
        metric: Optional[MetricView] = None,
        hierarchy: Optional[SampledHierarchy] = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"oracle needs k >= 1, got {k}")
        self.graph = graph
        self.k = k
        self.name = f"TZ oracle 2k-1 (k={k})"
        self.metric = metric if metric is not None else MetricView(graph)
        if k == 1:
            # Degenerate exact oracle (the paper's k=1 row): stores all
            # pairwise distances.  Row-at-a-time extraction keeps this a
            # sequential scan over the metric's row oracle rather than n^2
            # scalar d() calls.
            self.hierarchy = None
            self._bunch_dist = []
            for v in graph.vertices():
                row = self.metric.row(v)
                self._bunch_dist.append(
                    {
                        w: float(row[w])
                        for w in graph.vertices()
                        if w != v
                    }
                )
            self._pivots = [[(v, 0.0)] for v in graph.vertices()]
            return
        if hierarchy is None:
            hierarchy = SampledHierarchy(self.metric, k, seed=seed)
            hierarchy.release_cluster_distances()  # no trees here
        self.hierarchy = hierarchy
        self._bunch_dist: List[Dict[int, float]] = []
        for v in graph.vertices():
            row = self.metric.row(v)
            self._bunch_dist.append(
                {w: float(row[w]) for w in self.hierarchy.bunch(v)}
            )
        self._pivots = [
            [
                (
                    self.hierarchy.pivot(i, v),
                    self.hierarchy.pivot_distance(i, v),
                )
                for i in range(k)
            ]
            for v in graph.vertices()
        ]

    # ------------------------------------------------------------------
    def stretch_bound(self) -> float:
        return 2.0 * self.k - 1.0

    def query(self, u: int, v: int) -> float:
        """A ``(2k-1)``-stretch distance estimate."""
        if u == v:
            return 0.0
        w = u
        j = 0
        while w not in self._bunch_dist[v] and w != v:
            j += 1
            if j >= self.k:
                raise RuntimeError(
                    "pivot ladder exceeded k rounds; hierarchy broken"
                )
            u, v = v, u
            w = self._pivots[u][j][0]
        d_uw = self._pivots[u][j][1] if j > 0 else 0.0
        d_wv = 0.0 if w == v else self._bunch_dist[v][w]
        return d_uw + d_wv

    # ------------------------------------------------------------------
    def space_words(self) -> Dict[str, int]:
        """Total and per-vertex-max storage in words."""
        per_vertex = [
            2 * len(self._bunch_dist[v]) + 2 * len(self._pivots[v])
            for v in self.graph.vertices()
        ]
        return {
            "total": sum(per_vertex),
            "max_per_vertex": max(per_vertex, default=0),
        }
