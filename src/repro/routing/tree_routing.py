"""Tree routing (Lemma 3, after Thorup–Zwick / Fraigniaud–Gavoille).

Routes on the unique tree path between any two vertices of a rooted tree,
with **O(1) words of routing information per vertex per tree** and
**O(log n)-word labels**.  The construction is the classic heavy-path
interval scheme:

* order every vertex's children heavy-first and assign DFS intervals
  ``[in, out)``; a vertex's subtree is exactly the interval,
* each vertex keeps: its own interval, the port to its parent, and the port
  plus interval of its *heavy* child (largest subtree),
* the label of ``v`` is its DFS index plus, for every **light** edge
  ``p -> c`` on the root-to-``v`` path, the pair ``(dfs_in(c), port at p)``.

A light edge at least halves the subtree size, so a label carries at most
``log2 n`` pairs.  Routing at ``u`` toward label ``L``:

1. ``u``'s interval does not contain ``L`` → go to the parent;
2. the heavy child's interval contains ``L`` → take the heavy port;
3. otherwise the next edge is light and ``u``'s child on the path is the
   entry of ``L`` with the smallest DFS index inside ``u``'s interval.

Every routing table in this repository stores tree information as the plain
6-tuple produced here, so the word accounting of
:mod:`repro.routing.model` sees its true cost.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..graph.trees import RootedTree
from .ports import PortAssignment

if TYPE_CHECKING:
    from ..graph.metric import MetricView

__all__ = [
    "TreeRecord",
    "TreeLabel",
    "TreeRouting",
    "native_cluster_tree",
    "tree_step",
]

# (dfs_in, dfs_out, parent_port, heavy_port, heavy_in, heavy_out)
# parent_port = -1 at the root; heavy_port = -1 at leaves.
TreeRecord = Tuple[int, int, int, int, int, int]

# (dfs_in, ((light_child_dfs_in, port_at_parent), ...))
TreeLabel = Tuple[int, Tuple[Tuple[int, int], ...]]


def tree_step(record: TreeRecord, label: TreeLabel) -> Optional[int]:
    """One routing decision: the port to forward on, or ``None`` to deliver."""
    dfs_in, dfs_out, parent_port, heavy_port, heavy_in, heavy_out = record
    target_in, light_stops = label
    if target_in == dfs_in:
        return None
    if not dfs_in <= target_in < dfs_out:
        if parent_port < 0:
            raise ValueError("target outside the tree reached the root")
        return parent_port
    if heavy_port >= 0 and heavy_in <= target_in < heavy_out:
        return heavy_port
    # The next edge is light: find the label entry that is u's child, i.e.
    # the shallowest stop inside u's interval.
    best: Optional[Tuple[int, int]] = None
    for stop_in, port in light_stops:
        if dfs_in < stop_in < dfs_out and (best is None or stop_in < best[0]):
            best = (stop_in, port)
    if best is None:
        raise ValueError(
            f"no light stop inside interval [{dfs_in},{dfs_out}); corrupt label"
        )
    return best[1]


class TreeRouting:
    """Preprocessed tree routing structure for one rooted tree.

    Parameters
    ----------
    tree:
        The rooted tree (vertices are graph vertex ids; every tree edge must
        be a graph edge).
    ports:
        The fixed-port assignment of the underlying graph.
    """

    def __init__(self, tree: RootedTree, ports: PortAssignment) -> None:
        self._tree: Optional[RootedTree] = tree
        self.root = tree.root
        self._records: Dict[int, TreeRecord] = {}
        self._labels: Dict[int, TreeLabel] = {}

        heavy: Dict[int, Optional[int]] = {
            v: tree.heavy_child(v) for v in tree.parent
        }
        # Iterative DFS, heavy child first, to assign intervals.
        dfs_in: Dict[int, int] = {}
        dfs_out: Dict[int, int] = {}
        counter = 0
        stack: List[Tuple[int, bool]] = [(tree.root, False)]
        while stack:
            v, processed = stack.pop()
            if processed:
                dfs_out[v] = counter
                continue
            dfs_in[v] = counter
            counter += 1
            stack.append((v, True))
            kids = tree.children[v]
            h = heavy[v]
            ordered = ([h] if h is not None else []) + [
                c for c in kids if c != h
            ]
            # Push in reverse so the heavy child is visited first.
            for c in reversed(ordered):
                stack.append((c, False))

        for v in tree.parent:
            parent_port = (
                -1 if v == tree.root else ports.port_to(v, tree.parent[v])
            )
            h = heavy[v]
            if h is None:
                record: TreeRecord = (
                    dfs_in[v], dfs_out[v], parent_port, -1, 0, 0
                )
            else:
                record = (
                    dfs_in[v],
                    dfs_out[v],
                    parent_port,
                    ports.port_to(v, h),
                    dfs_in[h],
                    dfs_out[h],
                )
            self._records[v] = record

        # Labels: accumulate light stops down from the root.
        light_stops: Dict[int, Tuple[Tuple[int, int], ...]] = {
            tree.root: ()
        }
        for v in tree.vertices:
            if v == tree.root:
                continue
            p = tree.parent[v]
            inherited = light_stops[p]
            if heavy[p] == v:
                light_stops[v] = inherited
            else:
                light_stops[v] = inherited + (
                    (dfs_in[v], ports.port_to(p, v)),
                )
        for v in tree.parent:
            self._labels[v] = (dfs_in[v], light_stops[v])

    @classmethod
    def from_parts(
        cls,
        root: int,
        parent: Dict[int, int],
        records: Dict[int, TreeRecord],
        labels: Dict[int, TreeLabel],
    ) -> "TreeRouting":
        """A routing structure from precomputed parent map, records and
        labels (the native cluster-tree kernel's output); the
        :class:`RootedTree` is built only if :attr:`tree` is read."""
        self = cls.__new__(cls)
        self._tree = None
        self._parent = parent
        self.root = root
        self._records = records
        self._labels = labels
        return self

    @property
    def tree(self) -> RootedTree:
        """The rooted tree routed over (built on first use)."""
        if self._tree is None:
            self._tree = RootedTree(self._parent)
        return self._tree

    # ------------------------------------------------------------------
    def record_of(self, v: int) -> TreeRecord:
        """Routing record stored at tree vertex ``v`` (6 words)."""
        return self._records[v]

    def label_of(self, v: int) -> TreeLabel:
        """Tree label of ``v`` (``1 + 2 * #light-edges`` words)."""
        return self._labels[v]

    def members(self) -> List[int]:
        """Vertices covered by this tree."""
        return self.tree.vertices

    @staticmethod
    def step(record: TreeRecord, label: TreeLabel) -> Optional[int]:
        """Forwarding decision (see :func:`tree_step`)."""
        return tree_step(record, label)


def native_cluster_tree(
    metric: "MetricView",
    root: int,
    members: Sequence[int],
    member_dists: Optional[Sequence[float]],
    ports: PortAssignment,
) -> Optional[TreeRouting]:
    """``TreeRouting(RootedTree(metric.restricted_spt_parents(root,
    members, member_dists)), ports)`` built in one native call.

    ``None`` unless the resolved kernel mode is ``native``, and for
    inputs outside the kernel's domain (members not strictly
    increasing, a missing root, a distance count that does not match):
    the caller then runs the reference, which returns the canonical
    tree or raises the canonical error.  A closure failure raises the
    reference's exact ``ValueError``.  Parents, records, labels and the
    insertion order of all three dicts equal the reference's.
    """
    from ..graph.csr import _native_kernels

    kernels = _native_kernels()
    if kernels is None:
        return None
    import numpy as np

    from ..graph.csr import csr_graph
    from ..graph.metric import not_closed_error

    if member_dists is None:
        if root not in members:
            return None
        member_dists = metric.row(root)[list(members)]
    elif len(member_dists) != len(members):
        return None
    csr = csr_graph(metric.graph)
    graph = (
        csr.indptr,
        csr.indices,
        csr.weights,
        ports.csr_ports(csr.indptr, csr.indices),
    )
    found = kernels.cluster_tree(
        graph,
        members,
        np.ascontiguousarray(member_dists, dtype=np.float64),
        root,
        metric.tol,
    )
    if found is None:
        return None
    if not isinstance(found[0], dict):  # (v, induced, global)
        raise not_closed_error(root, *found)
    return TreeRouting.from_parts(root, *found)
