"""In-memory span tracer that wraps the pipeline's layer entry points.

The benchmark measures end-to-end numbers with tracing off; a separate
traced run installs the wrappers below around each layer's public entry
points and records one span per call: name, start, end, the span that
caused it (parent id) and the request it belongs to.  Spans stay in
memory (up to a cap; aggregates keep counting past it) and are written
out once, when the run ends.

A layer's *self* time is its span's duration minus the time its child
spans cover, so nested layers (``LocalRouter.step`` calling the shard
decoder, which may call the pure decoder) are not double-counted.

Each function is patched where it is defined *and* where another module
looked it up at import time (``from .shard_codec import
encode_node_table`` binds a second name in ``repro.routing.serving``),
so a call through either name is traced.  :meth:`Tracer.install`
refuses a target that no longer exists: a renamed entry point fails the
traced run loudly instead of silently reporting a zero layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: span name -> ((module, attribute path), ...) every place the entry
#: point is defined or bound under another module's name
TARGETS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "graph.metric.next_hop": (("repro.graph.metric", "MetricView.next_hop"),),
    "graph.metric.rows": (("repro.graph.metric", "MetricView.rows"),),
    "graph.csr.all_balls": (("repro.graph.csr", "CSRGraph.all_balls"),),
    "graph.csr.rows": (("repro.graph.csr", "CSRGraph.rows"),),
    "graph.csr.bounded_rows": (("repro.graph.csr", "CSRGraph.bounded_rows"),),
    "schemes.stats": (
        ("repro.routing.model", "CompactRoutingScheme.stats"),
    ),
    "routing.tables.compile": (
        ("repro.routing.tables", "compile_tables"),
        ("repro.schemes.base", "compile_tables"),
        ("repro.routing", "compile_tables"),
    ),
    "routing.shard_codec.encode": (
        ("repro.routing.shard_codec", "encode_node_table"),
        ("repro.routing.serving", "encode_node_table"),
        ("repro.routing", "encode_node_table"),
    ),
    "routing.shard_codec.encode_pack": (
        ("repro.routing.shard_codec", "encode_pack"),
        ("repro.routing.serving", "encode_pack"),
    ),
    "routing.shard_codec.decode": (
        ("repro.routing.shard_codec", "decode_node_table"),
        ("repro.routing", "decode_node_table"),
    ),
    "routing.shard_codec.decode_fast": (
        ("repro.routing.shard_codec", "decode_node_table_fast"),
        ("repro.routing.serving", "decode_node_table_fast"),
    ),
    "routing.header_codec.encode": (
        ("repro.routing.header_codec", "encode"),
        ("repro.routing", "encode_header"),
    ),
    "routing.simulator.step": (("repro.routing.serving", "LocalRouter.step"),),
}

#: spans kept in memory; past it only the aggregates keep counting
MAX_SPANS = 200_000

#: spans whose return value's ``len()`` is summed as a byte count
BYTE_COUNTED = ("routing.shard_codec.encode",)


class Tracer:
    """Spans and per-name aggregates for one traced run."""

    def __init__(self) -> None:
        #: (span id, parent id, request, name, start, end)
        self.spans: List[Tuple[int, int, Any, str, float, float]] = []
        self.dropped = 0
        #: name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: name -> summed byte count (see BYTE_COUNTED)
        self.bytes: Dict[str, int] = {}
        self.request: Any = None
        self._next_id = 1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    # -- spans ---------------------------------------------------------
    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the ``with`` body."""
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1][0] if stack else 0
        frame = [span_id, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            with self._lock:
                agg = self.totals.setdefault(name, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
                if len(self.spans) < MAX_SPANS:
                    self.spans.append(
                        (span_id, parent, self.request, name, start, end)
                    )
                else:
                    self.dropped += 1

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a span named ``name`` around every call."""
        counts_bytes = name in BYTE_COUNTED

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                out = fn(*args, **kwargs)
            if counts_bytes:
                with self._lock:
                    self.bytes[name] = self.bytes.get(name, 0) + len(out)
            return out

        traced.__wrapped_by_pipebench__ = True  # type: ignore[attr-defined]
        return traced

    # -- patching ------------------------------------------------------
    def patch(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by its traced wrapper (undone by
        :meth:`uninstall`)."""
        had_own = isinstance(owner, type) and attr in owner.__dict__
        original = getattr(owner, attr)
        if getattr(original, "__wrapped_by_pipebench__", False):
            raise RuntimeError(f"{owner!r}.{attr} is already traced")
        if isinstance(owner, type):
            self._undo.append(
                (owner, attr, owner.__dict__.get(attr), had_own))
        else:
            self._undo.append((owner, attr, original, True))
        setattr(owner, attr, self.wrap(name, original))

    def install(
        self, extra: Optional[Dict[str, Tuple[Any, str]]] = None
    ) -> None:
        """Patch every entry point in :data:`TARGETS` (plus ``extra``:
        span name -> ``(owner, attribute)``)."""
        for name, sites in TARGETS.items():
            for module_name, path in sites:
                owner: Any = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                if not hasattr(owner, attr):
                    raise AttributeError(
                        f"traced entry point {module_name}.{path} is gone; "
                        f"update pipebench/tracing.py TARGETS"
                    )
                self.patch(owner, attr, name)
        for name, (owner, attr) in (extra or {}).items():
            self.patch(owner, attr, name)

    @contextmanager
    def patched(
        self, extra: Optional[Dict[str, Tuple[Any, str]]] = None
    ) -> Iterator[None]:
        """:meth:`install` for the duration of the ``with`` body."""
        try:
            self.install(extra)
            yield
        finally:
            self.uninstall()

    def uninstall(self) -> None:
        """Restore every patched attribute, last patched first."""
        while self._undo:
            owner, attr, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- results -------------------------------------------------------
    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return float(self.totals.get(name, (0, 0.0, 0.0))[1])

    def self_s(self, name: str) -> float:
        return float(self.totals.get(name, (0, 0.0, 0.0))[2])

    def write(self, path: str) -> None:
        """Dump every kept span as JSON lines (one object per span)."""
        with open(path, "w") as fh:
            for span_id, parent, request, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "request": request,
                    "name": name, "start": start, "end": end,
                }) + "\n")
