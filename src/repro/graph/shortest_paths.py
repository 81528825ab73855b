"""Shortest-path algorithms: BFS, Dijkstra, truncated (ball) Dijkstra, APSP.

Tie-breaking discipline
-----------------------
Vertex vicinities ``B(u, ell)`` (the ``ell`` closest vertices of ``u``) must
be defined with respect to a *consistent total order*; the paper breaks
distance ties "by lexicographical order of vertex names" (Section 2).  We use
the total order ``x <_u y  iff  (d(u,x), x) < (d(u,y), y)``.  Property 1 —
``v in B(u, ell)`` and ``w`` on a shortest ``u``–``v`` path implies
``v in B(w, ell)`` — holds for this order for *every* shortest path, which is
what makes ball routing (Lemma 2) loop-free.  All ball computations in the
repository go through :func:`truncated_dijkstra` / :func:`all_balls` or
:func:`repro.graph.metric.MetricView.ball`, all of which honour this order.

Kernel dispatch
---------------
``REPRO_KERNEL`` selects one of three engines, all producing *identical*
results — same distances, same ``(dist, id)`` ball order, same
deterministic parents — which the differential suites assert:

* ``pure`` (aliases ``py``/``python``): the pure-Python reference
  implementations, also exported under ``*_py`` names;
* ``numpy`` (aliases ``np``/``kernel``): the flat-array CSR kernel
  (:mod:`repro.graph.csr`) with its numpy delta-stepping batch engine;
* ``native``: the numpy kernel with the compiled inner loops from
  :mod:`repro.native` — *forced*, so a host without a compiler and
  without a cached library raises the typed
  :class:`repro.native.NativeUnavailableError`;
* ``auto`` (or unset): prefers ``native`` when the library loads and
  otherwise falls back to ``numpy`` recording why
  (:func:`repro.native.fallback_reason`) — or to ``pure`` when numpy
  itself is missing.

Any other value raises :class:`KernelConfigError` rather than silently
running a different engine than the caller asked for.

The choice is resolved **once per process** on first use
(:func:`kernel_mode` caches it), so mutating the environment mid-run cannot
silently mix engines inside one structure build; tests that need to flip
the switch call :func:`reset_kernel_choice` after changing the environment
variable.
"""

from __future__ import annotations

import heapq
import os
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from .core import Graph

__all__ = [
    "bfs_distances",
    "dijkstra",
    "truncated_dijkstra",
    "shortest_path_tree",
    "multi_source_distances",
    "all_balls",
    "bounded_distance",
    "subgraph_dijkstra",
    "path_length",
    "dijkstra_py",
    "truncated_dijkstra_py",
    "multi_source_distances_py",
    "bounded_distance_py",
    "subgraph_dijkstra_py",
    "use_kernel",
    "kernel_mode",
    "reset_kernel_choice",
    "KernelConfigError",
]

_INF = float("inf")

#: cached kernel mode; None = not yet resolved (see kernel_mode).
_KERNEL_MODE: Optional[str] = None

_PURE_NAMES = ("pure", "py", "python")
_NUMPY_NAMES = ("numpy", "np", "kernel")
_AUTO_NAMES = ("", "auto")


class KernelConfigError(ValueError):
    """``REPRO_KERNEL`` named an engine the dispatch does not know."""


def kernel_mode() -> str:
    """The active engine: ``"pure"``, ``"numpy"`` or ``"native"``.

    Resolved once per process and cached: every dispatch in a run sees the
    same choice, so a mid-run mutation of ``REPRO_KERNEL`` cannot mix
    engines within one structure build.
    """
    global _KERNEL_MODE
    if _KERNEL_MODE is None:
        _KERNEL_MODE = _resolve_kernel_mode()
    return _KERNEL_MODE


def use_kernel() -> bool:
    """Whether the CSR kernel is active (i.e. the mode is not ``pure``)."""
    return kernel_mode() != "pure"


def reset_kernel_choice() -> None:
    """Drop the cached :func:`kernel_mode` resolution (test-only hook).

    The next dispatch re-reads ``REPRO_KERNEL`` from the environment.
    """
    global _KERNEL_MODE
    _KERNEL_MODE = None


def _resolve_kernel_mode() -> str:
    raw = os.environ.get("REPRO_KERNEL", "").strip().lower()
    if raw in _PURE_NAMES:
        return "pure"
    if raw != "native" and raw not in _NUMPY_NAMES + _AUTO_NAMES:
        raise KernelConfigError(
            f"REPRO_KERNEL={raw!r} is not a known engine; expected "
            "pure (py/python), numpy (np/kernel), native, or auto"
        )
    try:
        from . import csr  # noqa: F401
    except ImportError:
        if raw == "native":
            raise KernelConfigError(
                "REPRO_KERNEL=native requires numpy, which failed to import"
            )
        return "pure"
    if raw == "native":
        # Forced: surface the typed NativeUnavailableError/NativeBuildError
        # instead of silently running the numpy engine.
        from ..native import load_kernels

        load_kernels()
        return "native"
    if raw in _AUTO_NAMES:
        from ..native import try_kernels

        if try_kernels() is not None:
            return "native"
        return "numpy"
    return "numpy"


def _kernel(g: Graph):
    """The cached CSR kernel for ``g``, or ``None`` for the pure path."""
    if g.n == 0 or not use_kernel():
        return None
    from .csr import csr_graph

    return csr_graph(g)


def bfs_distances(g: Graph, source: int) -> List[float]:
    """Hop distances from ``source``; unreachable vertices get ``inf``."""
    dist = [_INF] * g.n
    dist[source] = 0.0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u):
            if dist[v] == _INF:
                dist[v] = dist[u] + 1.0
                queue.append(v)
    return dist


def dijkstra(
    g: Graph, source: int
) -> Tuple[List[float], List[Optional[int]]]:
    """Single-source Dijkstra (kernel-dispatched).

    Returns ``(dist, parent)`` where ``parent[v]`` is ``v``'s predecessor on
    a shortest path from ``source`` (ties resolved toward the smallest
    ``(distance, id)`` predecessor, keeping trees deterministic).
    """
    kernel = _kernel(g)
    if kernel is not None:
        return kernel.dijkstra(source)
    return dijkstra_py(g, source)


def dijkstra_py(
    g: Graph, source: int
) -> Tuple[List[float], List[Optional[int]]]:
    """Pure-Python single-source Dijkstra (differential-test reference)."""
    dist = [_INF] * g.n
    parent: List[Optional[int]] = [None] * g.n
    dist[source] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, source)]
    done = [False] * g.n
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, w in g.neighbor_items(u):
            nd = d + w
            if nd < dist[v] or (nd == dist[v] and parent[v] is not None and u < parent[v]):
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, parent


def truncated_dijkstra(
    g: Graph, source: int, ell: int
) -> Tuple[List[int], Dict[int, float]]:
    """The ``ell`` closest vertices of ``source`` in ``(dist, id)`` order.

    Returns ``(ball, dist)`` where ``ball`` lists the closest vertices in
    increasing ``(distance, id)`` order (``source`` itself first) and ``dist``
    maps each ball member to its distance.  This is the paper's
    ``B(u, ell)``.  Kernel-dispatched; both paths key their heap by
    ``(distance, id)`` so pops follow exactly the total order ``<_u``
    described in the module docstring.
    """
    kernel = _kernel(g)
    if kernel is not None:
        return kernel.truncated_dijkstra(source, ell)
    return truncated_dijkstra_py(g, source, ell)


def truncated_dijkstra_py(
    g: Graph, source: int, ell: int
) -> Tuple[List[int], Dict[int, float]]:
    """Pure-Python truncated Dijkstra (differential-test reference)."""
    if ell <= 0:
        return [], {}
    ball: List[int] = []
    dist: Dict[int, float] = {}
    best: Dict[int, float] = {source: 0.0}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap and len(ball) < ell:
        d, u = heapq.heappop(heap)
        if u in dist:
            continue
        if d > best.get(u, _INF):
            continue
        dist[u] = d
        ball.append(u)
        for v, w in g.neighbor_items(u):
            nd = d + w
            if v not in dist and nd < best.get(v, _INF):
                best[v] = nd
                heapq.heappush(heap, (nd, v))
    return ball, dist


def all_balls(
    g: Graph,
    ell: int,
    *,
    tol: float = 0.0,
    with_radii: bool = False,
    engine: Optional[str] = None,
) -> Tuple[List[List[int]], Optional[List[float]]]:
    """``B(u, ell)`` for every vertex, batched (kernel-dispatched).

    Returns ``(balls, radii)`` with ``radii`` ``None`` unless requested.
    The kernel path runs a batched engine — the delta-stepping candidate
    queue on weighted graphs, a vectorized level BFS on unit weights —
    with reusable flat buffers instead of per-source allocation; ``engine``
    forces a specific kernel implementation (see
    :meth:`repro.graph.csr.CSRGraph.all_balls`; benchmarks use it to pit
    the engines against each other).  The pure path loops
    :func:`truncated_dijkstra_py`.  Ball contents and order are identical
    on every path.
    """
    if g.n == 0 or ell <= 0:
        # Same degenerate result on every path (the kernel short-circuits
        # identically before its radius computation).
        return (
            [[] for _ in range(g.n)],
            [0.0] * g.n if with_radii else None,
        )
    kernel = _kernel(g)
    if kernel is not None:
        return kernel.all_balls(
            ell, tol=tol, with_radii=with_radii, engine=engine
        )
    balls: List[List[int]] = []
    radii: Optional[List[float]] = [] if with_radii else None
    for u in g.vertices():
        ball, dist = truncated_dijkstra_py(g, u, min(ell, g.n))
        balls.append(ball)
        if with_radii:
            radii.append(_ball_radius_py(g, ball, dist, tol))
    return balls, radii


def _ball_radius_py(
    g: Graph, ball: List[int], dist: Dict[int, float], tol: float
) -> float:
    """Radius ``r_u(ell)`` for a pure-path ball (reference implementation).

    The boundary level is complete iff no vertex outside the ball lies
    within ``tol`` of the boundary distance; outside vertices at smaller
    distance cannot exist because balls are ``(dist, id)`` prefixes, so it
    suffices to scan the neighbours of ball members.
    """
    if not ball:
        raise ValueError("empty ball has no radius")
    dmax = dist[ball[-1]]
    complete = True
    for u in ball:
        du = dist[u]
        for v, w in g.neighbor_items(u):
            if v in dist:
                continue
            if du + w <= dmax + tol:
                complete = False
                break
        if not complete:
            break
    if complete:
        return dmax
    inner = [d for d in dist.values() if d < dmax - tol]
    return max(inner) if inner else 0.0


def shortest_path_tree(
    g: Graph, root: int, members: Optional[Sequence[int]] = None
) -> Dict[int, int]:
    """Shortest-path tree rooted at ``root`` as a ``child -> parent`` map.

    When ``members`` is given, the tree is restricted to that vertex set,
    which must be *shortest-path closed toward the root* (true for the
    paper's clusters ``C_A(w)``): every member's parent on the shortest path
    is then itself a member.  The root maps to itself.
    """
    dist, parent = dijkstra(g, root)
    if members is None:
        members = [v for v in g.vertices() if dist[v] < _INF]
    member_set = set(members)
    if root not in member_set:
        raise ValueError(f"root {root} not among tree members")
    tree: Dict[int, int] = {root: root}
    for v in members:
        if v == root:
            continue
        if dist[v] == _INF:
            raise ValueError(f"member {v} unreachable from root {root}")
        p = parent[v]
        # Walk up until we hit a member; for shortest-path-closed member
        # sets this loop exits immediately.
        while p is not None and p not in member_set:
            p = parent[p]
        if p is None:
            raise ValueError(
                f"member set is not shortest-path closed toward {root} at {v}"
            )
        tree[v] = p
    return tree


def multi_source_distances(g: Graph, sources: Sequence[int]) -> Tuple[List[float], List[int]]:
    """Distance to the nearest source, and that source, for every vertex.

    Returns ``(dist, nearest)``.  ``nearest[v]`` is the paper's ``p_A(v)``
    with ties broken *lexicographically*: among sources at equal distance
    from ``v``, the smallest source id wins — the heap carries
    ``(dist, source, vertex)`` keys so pops realize exactly that order.
    Duplicate sources are deduplicated up front (a repeated source carries
    no extra information, and deduplication keeps the seeding loop
    branch-free).  ``nearest[v] == -1`` when no source is reachable.
    Kernel-dispatched.
    """
    kernel = _kernel(g)
    if kernel is not None:
        return kernel.multi_source_distances(sources)
    return multi_source_distances_py(g, sources)


def multi_source_distances_py(
    g: Graph, sources: Sequence[int]
) -> Tuple[List[float], List[int]]:
    """Pure-Python multi-source Dijkstra (differential-test reference)."""
    dist = [_INF] * g.n
    nearest = [-1] * g.n
    heap: List[Tuple[float, int, int]] = []
    for s in sorted(set(sources)):
        dist[s] = 0.0
        nearest[s] = s
        heap.append((0.0, s, s))
    heapq.heapify(heap)
    while heap:
        d, src, u = heapq.heappop(heap)
        if (d, src) > (dist[u], nearest[u]):
            continue
        for v, w in g.neighbor_items(u):
            nd = d + w
            if nd < dist[v] or (nd == dist[v] and src < nearest[v]):
                dist[v] = nd
                nearest[v] = src
                heapq.heappush(heap, (nd, src, v))
    return dist, nearest


def bounded_distance(
    g: Graph, source: int, target: int, limit: float
) -> float:
    """``d(source, target)`` when at most ``limit``; ``inf`` otherwise.

    Uses the CSR kernel only when a *current* CSR mirror is already cached
    on ``g`` — never builds one, because the hot caller (the greedy
    spanner) queries a graph it is still mutating, where a per-call
    O(n + m) rebuild would dwarf the query.  Static graphs get the kernel
    by building it once via :func:`repro.graph.csr.csr_graph`.
    """
    if use_kernel() and g.n > 0:
        from .csr import cached_csr_graph

        kernel = cached_csr_graph(g)
        if kernel is not None:
            return kernel.bounded_distance(source, target, limit)
    return bounded_distance_py(g, source, target, limit)


def bounded_distance_py(
    g: Graph, source: int, target: int, limit: float
) -> float:
    """Pure-Python bounded-radius Dijkstra (differential-test reference)."""
    dist = {source: 0.0}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    seen: set = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in seen:
            continue
        seen.add(u)
        if u == target:
            return d
        if d > limit:
            return _INF
        for v, w in g.neighbor_items(u):
            nd = d + w
            if nd <= limit and nd < dist.get(v, _INF):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return _INF


def subgraph_dijkstra(
    g: Graph, root: int, members: Sequence[int]
) -> Tuple[Dict[int, float], Dict[int, int]]:
    """Dijkstra restricted to the subgraph induced by ``members``.

    Returns ``(dist, parent)`` maps over the member set (unreachable
    members absent; ``parent[root] == root``).  For shortest-path-closed
    member sets (the paper's clusters) the induced distances equal the
    global ones, which is what
    :meth:`repro.graph.metric.MetricView.restricted_spt_parents` validates.
    Kernel-dispatched; parent ties go to the smallest predecessor id on
    both paths.
    """
    kernel = _kernel(g)
    if kernel is not None:
        return kernel.subgraph_dijkstra(root, members)
    return subgraph_dijkstra_py(g, root, members)


def subgraph_dijkstra_py(
    g: Graph, root: int, members: Sequence[int]
) -> Tuple[Dict[int, float], Dict[int, int]]:
    """Pure-Python induced-subgraph Dijkstra (differential-test reference)."""
    member_set = set(members)
    if root not in member_set:
        raise ValueError(f"root {root} not among members")
    dist: Dict[int, float] = {root: 0.0}
    parent: Dict[int, int] = {root: root}
    settled: set = set()
    heap: List[Tuple[float, int]] = [(0.0, root)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        if d > dist.get(u, _INF):
            continue
        settled.add(u)
        for v, w in g.neighbor_items(u):
            if v not in member_set:
                continue
            nd = d + w
            dv = dist.get(v, _INF)
            if nd < dv:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
            elif nd == dv and v not in settled and u < parent[v]:
                parent[v] = u  # (nd, v) is already queued
    return dist, parent


def path_length(g: Graph, path: Sequence[int]) -> float:
    """Total weight of a vertex path; validates that each hop is an edge."""
    total = 0.0
    for u, v in zip(path, path[1:]):
        total += g.weight(u, v)
    return total
