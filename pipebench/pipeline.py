"""The pipeline a user runs, measured end to end: build -> save -> serve.

One run of one workload:

1. **Inputs.**  The workload's graph is pinned in ``workloads.json``
   (generator, size, seed) and its fingerprint is asserted; the run's
   ``--seed`` draws the route pairs with the benchmark's own RNG.
2. **Set-up**, repeated :data:`SETUPS` times on a fresh copy of the
   graph: ``repro.api.build`` -> packed shard write
   (``RoutingSession.save(shards=True, packed=True)``, or
   ``write_shards(..., replicas=2)`` for the cluster) -> open
   (``RoutingSession.from_shards`` or ``start_cluster``).  ``setup_s``
   is the median.  Between save and open, untimed, the in-memory build
   routes every pair for the check (:class:`Reference`) and is dropped,
   so that the store serves alone, as in a deployment.
3. **Serve**, after each set-up and an untimed warm-up, for
   ``seconds / SETUPS``: a closed loop from this one client process
   that routes one pair at a time,
   or issues ``route_batch`` of ``batch`` pairs on the cluster (a
   route's latency runs from its batch's issue to its
   ``on_route_done``).  The pair list is cycled if the run outlasts it.
4. **Check**, outside every timed phase: each served route must have
   completed, been delivered, match its set-up's in-memory route
   (path and length) and stay within the spec's ``(alpha, beta)`` bound
   against exact distances computed here with scipy; the manifest's
   word totals must equal the scheme's own accounting; a cluster must
   have served without an RPC error or failover.  ``stretch_max`` is
   taken over a fixed sample of pairs that does not depend on
   ``--seed`` (:data:`STRETCH_SAMPLE`), so that it is exact for a given
   program, like the other counts; the sample must keep the bound too.

**Host speed.**  The hosts this runs on change speed by tens of percent
over seconds to minutes (a fixed pure-Python loop swings 60-155 ms on a
2-vCPU VM), far more than the bounds a later change is judged by.  So
every reported time is scaled to a reference host speed: after each
``BLOCK_S`` block of serving, and around each set-up phase, the benchmark
times one fixed unit of interpreter work (:func:`calibrate`), and a
block's timings are multiplied by ``CAL_REF_S`` over the median
calibration near it.  The unscaled numbers are printed as notes.  A
workload runs pinned to one core, the cluster's workers included (see
``run.py``), so that every timing scales with that one calibration.

A traced run (``trace=True``) sets up and serves twice — once untraced,
once with :class:`tracing.Tracer` installed, each serving half the
seconds — and reports per-layer numbers from the traced half plus the
tracing overhead (traced minus untraced).  The serving counters of the
cluster come from ``cluster_stats()``: worker-side calls cannot be
wrapped from the client.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import tempfile
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))

#: set-ups per run; ``setup_s`` is their median.  Two, not more: the
#: rest of a run's time goes to serving, whose spread needs it more
SETUPS = 2
#: distinct route pairs drawn per run (smoke runs use fewer)
PAIRS = 8192
SMOKE_PAIRS = 128
#: RNG key of the fixed pair sample ``stretch_max`` is taken over (as
#: many pairs as a run serves distinct ones)
STRETCH_SAMPLE = "pipebench-stretch-sample"

#: untimed warm-up before each slice's timed serving: one pass over the
#: pairs, cut off after this share of the slice's serving time.  A
#: deployment loads each table once, so its cold start is paid per
#: set-up, not per route, and would otherwise set the p99 of the slice
#: (a quarter left the cluster's pass a third done, and the batches that
#: loaded the rest made its p99).  The cut binds only on the capped
#: store, which never gets warm and whose pass takes twice the slice
WARMUP_SHARE = 1.0
#: serving seconds between two host-speed calibrations
BLOCK_S = 0.05
#: a block's speed factor is the median of the calibrations this many
#: blocks either side of it
CAL_WINDOW = 5
#: calibrations taken at each set-up phase boundary
CAL_SETUP = 10
#: the calibration time every reported timing is scaled to
CAL_REF_S = 0.001

#: name -> (unit, better) of every end-to-end metric, in print order
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "routes_per_s": ("1/s", "higher"),
    "route_p50_us": ("us", "lower"),
    "route_p99_us": ("us", "lower"),
    "route_ok_ratio": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "table_words_max": ("words", "lower"),
    "header_bytes_max": ("bytes", "lower"),
    "store_bytes": ("bytes", "lower"),
    "stretch_max": ("ratio", "lower"),
}

#: name -> unit of every per-layer metric, grouped by layer
PER_LAYER: Dict[str, str] = {
    "graph.metric.rows_computed": "count",
    "graph.metric.bounded_rows_computed": "count",
    "graph.metric.next_hop_calls": "count",
    "graph.metric.next_hop_s": "s",
    "graph.metric.rows_s": "s",
    "graph.csr.rows_s": "s",
    "graph.csr.bounded_rows_s": "s",
    "api.substrate.core_s": "s",
    "api.substrate.artifact_s": "s",
    "api.substrate.hits": "count",
    "api.substrate.misses": "count",
    "schemes.build_self_s": "s",
    "schemes.stats_s": "s",
    "schemes.stats_calls": "count",
    "routing.tables.compile_s": "s",
    "routing.shard_codec.encode_s": "s",
    "routing.shard_codec.encode_calls": "count",
    "routing.shard_codec.bytes_encoded": "bytes",
    "routing.shard_codec.encode_pack_s": "s",
    "routing.serving.save_self_s": "s",
    "routing.serving.open_s": "s",
    "routing.serving.loads": "count",
    "routing.serving.hits": "count",
    "routing.serving.hit_ratio": "ratio",
    "routing.serving.bytes_read": "bytes",
    "routing.shard_codec.decode_s": "s",
    "routing.shard_codec.decode_calls": "count",
    "routing.header_codec.encode_s": "s",
    "routing.header_codec.header_bytes": "bytes",
    "routing.simulator.step_self_s": "s",
    "routing.simulator.hops": "count",
    "routing.simulator.routes": "count",
    "cluster.rpcs": "count",
    "cluster.rpcs_per_route": "ratio",
    "cluster.wire_bytes": "bytes",
    "cluster.frames": "count",
    "cluster.start_s": "s",
    "cluster.store.loads": "count",
    "cluster.store.hits": "count",
    "trace.spans": "count",
    "trace.overhead_setup_s": "s",
    "trace.overhead_routes_per_s": "1/s",
    "trace.overhead_route_p50_us": "us",
}


class InputDriftError(RuntimeError):
    """A generated graph no longer matches its pinned fingerprint."""


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
def calibrate() -> float:
    """Seconds this host takes right now for one fixed unit of
    interpreter work (integer arithmetic and dict stores, the mix the
    serving path runs)."""
    t0 = time.perf_counter()
    table: Dict[int, int] = {}
    x = 0
    for j in range(6000):
        x += j * j
        table[j * 7919 % 10007] = x
    return time.perf_counter() - t0


def host_factors(cal_s: List[float]) -> List[float]:
    """Per block, the factor that scales its timings to a host on which
    :func:`calibrate` takes :data:`CAL_REF_S`."""
    return [
        CAL_REF_S / statistics.median(
            cal_s[max(0, b - CAL_WINDOW):b + CAL_WINDOW + 1])
        for b in range(len(cal_s))
    ]


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Workload:
    name: str
    scheme: str
    graph: Dict[str, Any]
    fingerprint: Dict[str, Any]
    serve: str
    max_resident_divisor: Optional[int]
    metric_mode: str
    cluster: Dict[str, int] = field(default_factory=dict)
    smoke: bool = False


def load_workloads(smoke: bool = False) -> Dict[str, Workload]:
    """Every workload of ``workloads.json`` (the smoke variant if asked)."""
    with open(os.path.join(HERE, "workloads.json")) as fh:
        spec = json.load(fh)
    out = {}
    for name, w in spec["workloads"].items():
        size = w["smoke"] if smoke else w
        out[name] = Workload(
            name=name,
            scheme=w["scheme"],
            graph=size["graph"],
            fingerprint=size["fingerprint"],
            serve=w["serve"],
            max_resident_divisor=w["max_resident_divisor"],
            metric_mode=w["metric_mode"],
            cluster=size.get("cluster", w.get("cluster", {})),
            smoke=smoke,
        )
    return out


def make_graph(wl: Workload) -> Any:
    from repro.graph import generators

    spec = wl.graph
    g = generators.random_sparse(spec["n"], spec["m"], seed=spec["seed"])
    weights = spec.get("weights")
    if weights:
        g = generators.with_random_weights(
            g, seed=weights["seed"], low=weights["low"], high=weights["high"]
        )
    return g


def fingerprint(g: Any) -> Dict[str, Any]:
    """``n``, ``m`` and a hash of the edge list in insertion order (the
    order fixes the port numbering, so it is part of the input)."""
    h = hashlib.sha256()
    m = 0
    for u, v, w in g.edges():
        h.update(f"{u} {v} {w!r}\n".encode())
        m += 1
    return {"n": g.n, "m": m, "edges_sha256": h.hexdigest()}


def pinned_graph(wl: Workload) -> Any:
    """The workload's graph, after asserting its pinned fingerprint."""
    g = make_graph(wl)
    got = fingerprint(g)
    if got != wl.fingerprint:
        raise InputDriftError(
            f"{wl.name}{' (smoke)' if wl.smoke else ''}: generated graph "
            f"{got} differs from the pinned {wl.fingerprint} in "
            f"pipebench/workloads.json — repro.graph.generators changed"
        )
    return g


def make_pairs(n: int, seed: Any, count: int) -> List[Tuple[int, int]]:
    """``count`` random ``(source, target)`` pairs with source != target.

    The RNG is keyed by a string so that no seed replays the stream the
    graph generators drew their edges from (``random.Random(1)`` would
    hand back graph 1's edge list as the pairs)."""
    rng = random.Random(f"pipebench-pairs-{seed}")
    pairs = []
    while len(pairs) < count:
        s, t = rng.randrange(n), rng.randrange(n)
        if s != t:
            pairs.append((s, t))
    return pairs


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class Reference:
    """What the in-memory build of one set-up says, for the checks.

    It is taken between the save and the open, untimed, and the build is
    dropped before the open: a deployment serves from its shards alone.
    Holding the build would swell the serving process's memory and its
    garbage collector's work, and the cluster's workers, forked at the
    open, would inherit all of it (their collections of the inherited
    heap stalled whole batches and made the cluster's p99 bimodal)."""

    #: per pair, in the order of the pairs given: the in-memory route
    path_hash: List[int]
    length: List[float]
    delivered: List[bool]
    bound: Tuple[float, float]  # the spec's (alpha, beta)
    words: Tuple[int, int]  # total and max table words, from stats()
    metric_mode: str
    #: the build's own counters (per-layer metrics of the traced run)
    build_layers: Dict[str, float]


def make_reference(session: Any, pairs: List[Tuple[int, int]]) -> Reference:
    """The :class:`Reference` of ``session`` over ``pairs``; the build's
    counters are read before routing, which may compute metric rows."""
    metric = session.substrate.metric
    sub = session.substrate.stats()
    core = ("metric", "ports")
    build_layers = {
        "graph.metric.rows_computed": metric.rows_computed,
        "graph.metric.bounded_rows_computed": metric.bounded_rows_computed,
        "api.substrate.core_s": sum(
            v["build_seconds"] for k, v in sub.items() if k in core),
        "api.substrate.artifact_s": sum(
            v["build_seconds"] for k, v in sub.items() if k not in core),
        "api.substrate.hits": sum(v["hits"] for v in sub.values()),
        "api.substrate.misses": sum(v["misses"] for v in sub.values()),
    }
    routes = [session.route(s, t) for s, t in pairs]
    stats = session.stats()
    return Reference(
        path_hash=[hash(tuple(r.path)) for r in routes],
        length=[r.length for r in routes],
        delivered=[r.delivered for r in routes],
        bound=session.stretch_bound(),
        words=(stats.total_table_words, stats.max_table_words),
        metric_mode=metric.mode,
        build_layers=build_layers,
    )


@dataclass
class Deployment:
    """One built, saved and opened pipeline."""

    shard_dir: str
    reference: Optional[Reference] = None
    seconds: float = 0.0  # build + save + open, as measured
    scaled_seconds: float = 0.0  # the same, scaled per phase (host speed)
    served: Any = None  # RoutingSession over the shards (local)
    handle: Any = None  # ClusterHandle (cluster)
    router: Any = None  # ClusterRouter (cluster)

    def close(self) -> None:
        if self.served is not None:
            self.served.scheme.store.close()
        if self.router is not None:
            self.router.close()
        if self.handle is not None:
            self.handle.stop()
        shutil.rmtree(self.shard_dir, ignore_errors=True)


def _nospan(name: str) -> contextlib.AbstractContextManager:
    return contextlib.nullcontext()


def _factory(wl: Workload) -> type:
    from repro.api import get_spec

    return get_spec(wl.scheme).factory


def save(wl: Workload, session: Any, shard_dir: str) -> None:
    """The workload's packed shard write of ``session``."""
    if wl.serve == "cluster":
        from repro.routing.serving import write_shards

        write_shards(
            session.scheme, shard_dir, spec_name=session.spec_name,
            params=session.params, seed=session.seed, packed=True,
            replicas=wl.cluster["replicas"],
            group_size=wl.cluster["group_size"],
        )
    else:
        session.save(shard_dir, shards=True, packed=True)


class PhaseClock:
    """Times set-up phases, calibrating host speed at every boundary so
    each phase is scaled by the calibrations either side of it."""

    def __init__(self) -> None:
        self.raw = self.scaled = 0.0
        self._cal = [calibrate() for _ in range(CAL_SETUP)]

    @contextlib.contextmanager
    def phase(self) -> Iterator[None]:
        t0 = time.perf_counter()
        yield
        seconds = time.perf_counter() - t0
        after = [calibrate() for _ in range(CAL_SETUP)]
        self.raw += seconds
        self.scaled += seconds * CAL_REF_S / statistics.median(
            self._cal + after)
        self._cal = after


def setup(wl: Workload, workdir: str, pairs: List[Tuple[int, int]],
          tracer: Optional[Tracer] = None) -> Deployment:
    """Build -> save -> open on a fresh copy of the graph (no CSR or
    metric cached on it); ``scaled_seconds`` is ``setup_s``.  Between
    save and open the build gives its :class:`Reference` over ``pairs``
    and is dropped.

    With a ``tracer``, build and save run with its wrappers installed;
    open records only its own span, because the cluster forks its
    workers there and they must not inherit the wrappers."""
    from repro.api import RoutingSession, build
    from repro.graph.metric import MetricView

    span = tracer.span if tracer is not None else _nospan
    patched = (
        tracer.patched(extra={"schemes.build": (_factory(wl), "__init__")})
        if tracer is not None else contextlib.nullcontext()
    )
    graph = pinned_graph(wl)
    n = graph.n
    gc.collect()
    dep = Deployment(
        shard_dir=tempfile.mkdtemp(prefix=f"{wl.name}-", dir=workdir),
    )
    clock = PhaseClock()
    try:
        with patched:
            with clock.phase(), span("setup.build"):
                # smoke graphs sit below the dense/lazy cut-over; force
                # the full-size workload's side so the same layers run
                session = build(
                    wl.scheme, graph, seed=0,
                    metric=(MetricView(graph, mode=wl.metric_mode)
                            if wl.smoke else None),
                )
            with clock.phase(), span("setup.save"):
                save(wl, session, dep.shard_dir)
        dep.reference = make_reference(session, pairs)
        del session, graph
        gc.collect()
        with clock.phase(), span("setup.open"):
            if wl.serve == "cluster":
                from repro.cluster import start_cluster

                dep.handle = start_cluster(
                    dep.shard_dir, workers=wl.cluster["workers"]
                )
                dep.router = dep.handle.router()
            else:
                budget = (
                    n // wl.max_resident_divisor
                    if wl.max_resident_divisor else None
                )
                dep.served = RoutingSession.from_shards(
                    dep.shard_dir, max_resident=budget
                )
    except BaseException:
        dep.close()
        raise
    dep.seconds, dep.scaled_seconds = clock.raw, clock.scaled
    return dep


# ----------------------------------------------------------------------
# Serve
# ----------------------------------------------------------------------
class ServeRun:
    """Served routes, recorded compactly for the check after the run
    (a route's path is kept as its hash, so the recorder does not hold
    every route's path alive and inflate ``peak_rss_mb``), plus the
    host-speed calibration taken after each block of serving."""

    def __init__(self) -> None:
        self.pair = array("l")  # index into the pair list
        self.path_hash = array("q")
        self.length = array("d")
        self.hops = array("l")
        self.delivered = bytearray()
        self.errors: Dict[int, str] = {}  # route number -> what it raised
        self.latencies_s = array("d")
        self.block_of = array("l")
        #: per block: serving seconds, then one calibration after it
        self.block_s: List[float] = []
        self.cal_s: List[float] = []

    def __len__(self) -> int:
        return len(self.pair)

    def record(self, k: int, res: Any, latency: float) -> None:
        self.pair.append(k)
        self.path_hash.append(hash(tuple(res.path)))
        self.length.append(res.length)
        self.hops.append(len(res.path) - 1)
        self.delivered.append(res.delivered)
        self.latencies_s.append(latency)
        self.block_of.append(len(self.block_s))

    def record_error(self, k: int, error: str, latency: float) -> None:
        self.errors[len(self.pair)] = error
        self.pair.append(k)
        self.path_hash.append(0)
        self.length.append(math.nan)
        self.hops.append(0)
        self.delivered.append(False)
        self.latencies_s.append(latency)
        self.block_of.append(len(self.block_s))

    def end_block(self, seconds: float) -> None:
        self.block_s.append(seconds)
        self.cal_s.append(calibrate())

    @property
    def elapsed_s(self) -> float:
        return sum(self.block_s)


def serve_local(route: Callable[[int, int], Any],
                pairs: List[Tuple[int, int]], seconds: float,
                tracer: Optional[Tracer] = None,
                limit: Optional[int] = None) -> ServeRun:
    """Closed loop: route one pair, then the next, for ``seconds`` of
    serving (or ``limit`` routes), with a calibration after every
    :data:`BLOCK_S` block."""
    run = ServeRun()
    count = len(pairs)
    limit = math.inf if limit is None else limit
    i = 0
    while run.elapsed_s < seconds and i < limit:
        start = now = time.perf_counter()
        end = start + min(BLOCK_S, seconds - run.elapsed_s)
        while now < end and i < limit:
            k = i % count
            s, t = pairs[k]
            if tracer is not None:
                tracer.request = i
            t0 = now
            try:
                res = route(s, t)
            except Exception as exc:  # a raising route fails; run goes on
                now = time.perf_counter()
                run.record_error(k, f"{type(exc).__name__}: {exc}", now - t0)
            else:
                now = time.perf_counter()
                run.record(k, res, now - t0)
            i += 1
        run.end_block(now - start)
    return run


def serve_cluster(router: Any, pairs: List[Tuple[int, int]], seconds: float,
                  batch: int, limit: Optional[int] = None) -> ServeRun:
    """Closed loop of ``route_batch`` calls of ``batch`` pairs each, for
    ``seconds`` (or about ``limit`` routes); each call is one block,
    followed by a calibration."""
    run = ServeRun()
    count = len(pairs)
    limit = math.inf if limit is None else limit
    i = 0
    while run.elapsed_s < seconds and i < limit:
        index = [(i + j) % count for j in range(batch)]
        done: Dict[int, Tuple[Any, float]] = {}

        def on_done(j: int, res: Any) -> None:
            done[j] = (res, time.perf_counter())

        t0 = time.perf_counter()
        error = ""
        try:
            router.route_batch([pairs[k] for k in index],
                               on_route_done=on_done)
        except Exception as exc:  # the whole batch fails; the run goes on
            error = f"{type(exc).__name__}: {exc}"
        now = time.perf_counter()
        for j, k in enumerate(index):
            if j in done and not error:
                res, t1 = done[j]
                run.record(k, res, t1 - t0)
            else:
                run.record_error(k, error or "no result", now - t0)
        run.end_block(now - t0)
        i += batch
    return run


def serve(wl: Workload, dep: Deployment, pairs: List[Tuple[int, int]],
          seconds: float, tracer: Optional[Tracer] = None,
          limit: Optional[int] = None) -> ServeRun:
    if wl.serve == "cluster":
        return serve_cluster(
            dep.router, pairs, seconds, wl.cluster["batch"], limit)
    return serve_local(dep.served.route, pairs, seconds, tracer, limit)


# ----------------------------------------------------------------------
# Checks (never timed)
# ----------------------------------------------------------------------
def exact_distances(graph: Any, pairs: List[Tuple[int, int]]) -> List[float]:
    """``d(s, t)`` for every pair, computed with scipy independently of
    the program's own metric."""
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    rows, cols, weights = [], [], []
    for u, v, w in graph.edges():
        rows += [u, v]
        cols += [v, u]
        weights += [w, w]
    matrix = csr_matrix((weights, (rows, cols)), shape=(graph.n, graph.n))
    sources = sorted({s for s, _ in pairs})
    where = {s: i for i, s in enumerate(sources)}
    dist = dijkstra(matrix, directed=False, indices=np.array(sources))
    return [float(dist[where[s], t]) for s, t in pairs]


@dataclass
class CheckReport:
    attempted: int
    failed: int
    reasons: Dict[str, int]
    stretch_max: float
    #: the manifests' word totals and the fixed sample's bound hold
    contract_ok: bool


def check(graph: Any, pairs: List[Tuple[int, int]],
          sample: List[Tuple[int, int]], slices: List["Slice"]
          ) -> CheckReport:
    """Every served route against its set-up's in-memory route and the
    bound, the in-memory routes of the fixed ``sample`` against the
    bound (they give ``stretch_max``), and every manifest's word totals
    against the scheme's accounting."""
    dist = exact_distances(graph, pairs + sample)
    reasons: Dict[str, int] = {}

    def fail(reason: str, count: int = 1) -> None:
        reasons[reason] = reasons.get(reason, 0) + count

    attempted = failed = 0
    stretch_max = 1.0
    contract_ok = True
    for sl in slices:
        ref = sl.reference
        alpha, beta = ref.bound
        within = [
            ok and length <= alpha * d + beta + 1e-9 * max(1.0, d)
            for ok, length, d in zip(ref.delivered, ref.length, dist)
        ]
        stretch_max = max(stretch_max, max(
            length / d
            for length, d in zip(ref.length[len(pairs):], dist[len(pairs):])
        ))
        if not all(within[len(pairs):]):
            contract_ok = False
            fail("sample exceeds (alpha, beta) bound",
                 within[len(pairs):].count(False))
        words = sl.manifest["words"]
        if (words["total_table_words"], words["max_table_words"]) != (
                ref.words):
            contract_ok = False
            fail("manifest words differ from stats()")
        for run in (sl.warmup, sl.run):
            for i, k in enumerate(run.pair):
                attempted += 1
                if i in run.errors:
                    reason = "raised"
                elif not run.delivered[i]:
                    reason = "not delivered"
                elif (run.path_hash[i] != ref.path_hash[k]
                      or run.length[i] != ref.length[k]):
                    reason = "differs from in-memory route"
                elif not within[k]:
                    reason = "exceeds (alpha, beta) bound"
                else:
                    continue
                failed += 1
                fail(reason)
    return CheckReport(attempted, failed, reasons, stretch_max, contract_ok)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def latency_metrics(runs: List[ServeRun],
                    normalized: bool = True) -> Dict[str, float]:
    """Throughput and latency percentiles over all routes of ``runs``,
    scaled by :func:`host_factors` unless ``normalized`` is false."""
    lat: List[float] = []
    elapsed = 0.0
    for run in runs:
        factors = (
            host_factors(run.cal_s) if normalized else [1.0] * len(run.cal_s)
        )
        lat.extend(
            x * factors[b] for x, b in zip(run.latencies_s, run.block_of))
        elapsed += sum(t * f for t, f in zip(run.block_s, factors))
    lat.sort()
    return {
        "routes_per_s": len(lat) / elapsed,
        "route_p50_us": _percentile(lat, 0.50) * 1e6,
        "route_p99_us": _percentile(lat, 0.99) * 1e6,
    }


def store_bytes(path: str) -> int:
    """Bytes of every file the save wrote (replicas and manifest too)."""
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def serve_counters(wl: Workload, dep: Deployment) -> Dict[str, Any]:
    """The program's own serving counters (store or cluster)."""
    if wl.serve == "cluster":
        return dep.router.cluster_stats()
    return dep.served.serve_stats()


def max_header_bytes(wl: Workload, counters: Dict[str, Any]) -> int:
    if wl.serve == "cluster":
        return int(counters["header"]["max_header_bytes"])
    return int(counters["max_header_bytes"])


def peak_rss_mb(wl: Workload) -> float:
    """Peak memory of this process; on the cluster also of the largest
    reaped child (a worker, which opens the shard store and holds the
    tables it decodes)."""
    who = [resource.RUSAGE_SELF]
    if wl.serve == "cluster":
        who.append(resource.RUSAGE_CHILDREN)
    return max(resource.getrusage(w).ru_maxrss for w in who) / 1024.0


def fleet_ok(wl: Workload, counters: Dict[str, Any]) -> bool:
    """A healthy fleet serves without an RPC error or a failover."""
    return wl.serve != "cluster" or (
        counters["rpc_errors"] == 0 and counters["failovers"] == 0)


def layer_metrics(wl: Workload, ref: Reference, tracer: Tracer,
                  runs: List[ServeRun], counters: Dict[str, Any]
                  ) -> Dict[str, float]:
    """Per-layer numbers of one traced set-up + warm-up + serve."""
    routes = sum(len(run) for run in runs)
    out: Dict[str, float] = {
        **ref.build_layers,
        "graph.metric.next_hop_calls": tracer.calls("graph.metric.next_hop"),
        "graph.metric.next_hop_s": tracer.self_s("graph.metric.next_hop"),
        "graph.metric.rows_s": tracer.self_s("graph.metric.rows"),
        "graph.csr.rows_s": tracer.self_s("graph.csr.rows"),
        "graph.csr.bounded_rows_s": tracer.self_s("graph.csr.bounded_rows"),
        "schemes.build_self_s": tracer.self_s("schemes.build"),
        "schemes.stats_s": tracer.self_s("schemes.stats"),
        "schemes.stats_calls": tracer.calls("schemes.stats"),
        "routing.tables.compile_s": tracer.self_s("routing.tables.compile"),
        "routing.shard_codec.encode_s":
            tracer.self_s("routing.shard_codec.encode"),
        "routing.shard_codec.encode_calls":
            tracer.calls("routing.shard_codec.encode"),
        "routing.shard_codec.bytes_encoded":
            tracer.bytes.get("routing.shard_codec.encode", 0),
        "routing.shard_codec.encode_pack_s":
            tracer.self_s("routing.shard_codec.encode_pack"),
        "routing.serving.save_self_s": tracer.self_s("setup.save"),
        "routing.shard_codec.decode_s": (
            tracer.self_s("routing.shard_codec.decode_fast")
            + tracer.self_s("routing.shard_codec.decode")),
        "routing.shard_codec.decode_calls":
            tracer.calls("routing.shard_codec.decode_fast"),
        "routing.header_codec.encode_s":
            tracer.self_s("routing.header_codec.encode"),
        "routing.simulator.step_self_s":
            tracer.self_s("routing.simulator.step"),
        "routing.simulator.hops": sum(sum(run.hops) for run in runs),
        "routing.simulator.routes": routes,
        "trace.spans": len(tracer.spans) + tracer.dropped,
    }
    if wl.serve == "cluster":
        wire = counters["wire"]
        out.update({
            "routing.serving.open_s": 0.0,
            "routing.serving.loads": 0,
            "routing.serving.hits": 0,
            "routing.serving.hit_ratio": 0.0,
            "routing.serving.bytes_read": 0,
            "routing.header_codec.header_bytes":
                counters["header"]["header_bytes"],
            "cluster.rpcs": counters["rpcs"],
            "cluster.rpcs_per_route": counters["rpcs"] / max(routes, 1),
            "cluster.wire_bytes": (
                wire["frame_header_bytes"] + wire["payload_bytes_sent"]
                + wire["payload_bytes_received"]),
            "cluster.frames": wire["frames_sent"] + wire["frames_received"],
            "cluster.start_s": tracer.total_s("setup.open"),
            "cluster.store.loads": counters["store"]["loads"],
            "cluster.store.hits": counters["store"]["hits"],
        })
    else:
        loads, hits = counters["loads"], counters["hits"]
        out.update({
            "routing.serving.open_s": tracer.total_s("setup.open"),
            "routing.serving.loads": loads,
            "routing.serving.hits": hits,
            "routing.serving.hit_ratio": hits / max(loads + hits, 1),
            "routing.serving.bytes_read": counters["bytes_read"],
            "routing.header_codec.header_bytes": counters["header_bytes"],
        })
        for name in PER_LAYER:
            if name.startswith("cluster."):
                out[name] = 0
    return out


# ----------------------------------------------------------------------
# Configuration record
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def prepare_kernels() -> None:
    """Resolve ``REPRO_KERNEL`` now, compiling the native library if the
    resolution wants it: users pay that once per machine, not per run."""
    from repro.graph.shortest_paths import kernel_mode

    kernel_mode()


def resolved_config(wl: Workload, metric_mode: str) -> Dict[str, Any]:
    import numpy
    import scipy

    from repro import native
    from repro.graph.parallel import parallel_workers
    from repro.graph.shortest_paths import kernel_mode

    return {
        "workload": wl.name,
        "smoke": wl.smoke,
        "graph": wl.fingerprint,
        "metric_mode": metric_mode,
        "REPRO_KERNEL": os.environ.get("REPRO_KERNEL", ""),
        "kernel": kernel_mode(),
        "native_fallback": native.fallback_reason(),
        "parallel_workers": parallel_workers(),
        "cores": len(os.sched_getaffinity(0)),
        "host_cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": _cpu_model(),
        "setups": SETUPS,
    }


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
@dataclass
class Slice:
    """One set-up plus the serving done on it."""

    reference: Reference
    setup_raw_s: float
    setup_s: float  # scaled by the calibrations around the set-up
    warmup: ServeRun
    run: ServeRun
    counters: Dict[str, Any]
    manifest: Dict[str, Any]
    store_bytes: int


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    units: Dict[str, str]
    config: Dict[str, Any]
    notes: Dict[str, Any]


def measure_slice(wl: Workload, pairs: List[Tuple[int, int]],
                  sample: List[Tuple[int, int]], seconds: float,
                  workdir: str, serve_fn: Callable[..., ServeRun],
                  tracer: Optional[Tracer] = None) -> Slice:
    """Set up, warm up, serve ``pairs`` for ``seconds``, read the
    counters, and tear the deployment down again; the reference covers
    ``pairs + sample``.  A traced slice traces the warm-up too, like the
    store's counters."""
    if tracer is not None:
        tracer.request = "setup"  # the spans of one set-up share this id
    dep = setup(wl, workdir, pairs + sample, tracer)
    try:
        with (tracer.patched() if tracer is not None
              else contextlib.nullcontext()):
            warmup = serve_fn(wl, dep, pairs, seconds * WARMUP_SHARE,
                              tracer, limit=len(pairs))
            run = serve_fn(wl, dep, pairs, seconds, tracer)
        counters = serve_counters(wl, dep)
        with open(os.path.join(dep.shard_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        size = store_bytes(dep.shard_dir)
    finally:
        dep.close()
    return Slice(dep.reference, dep.seconds, dep.scaled_seconds, warmup, run,
                 counters, manifest, size)


def run_workload(wl: Workload, seed: int, seconds: float, *, trace: bool,
                 workdir: str, trace_out: Optional[str] = None,
                 serve_fn: Optional[Callable[..., ServeRun]] = None
                 ) -> RunResult:
    """Run one workload; see the module docstring.

    The serving time is split evenly over the set-ups, each slice served
    by its own deployment right after it is set up: host speed drifts
    over tens of seconds, and spreading the measured serving over the
    whole run averages more of that drift than one block would.
    ``serve_fn`` replaces :func:`serve` (the benchmark's tests inject a
    misrouting engine through it).
    """
    serve_fn = serve_fn or serve
    prepare_kernels()
    pairs = make_pairs(
        wl.fingerprint["n"], seed, SMOKE_PAIRS if wl.smoke else PAIRS
    )
    sample = make_pairs(wl.fingerprint["n"], STRETCH_SAMPLE, len(pairs))
    notes: Dict[str, Any] = {}
    if not trace:
        slices = [
            measure_slice(wl, pairs, sample, seconds / SETUPS, workdir,
                          serve_fn)
            for _ in range(SETUPS)
        ]
        rss = peak_rss_mb(wl)
    else:
        # an untraced slice, then the traced one the layers come from
        tracer = Tracer()
        slices = [
            measure_slice(wl, pairs, sample, seconds / 2, workdir, serve_fn,
                          tracer=traced)
            for traced in (None, tracer)
        ]
    report = check(make_graph(wl), pairs, sample, slices)
    fleet = all(fleet_ok(wl, sl.counters) for sl in slices)
    runs = [sl.run for sl in slices]
    notes["setup_s_each"] = [sl.setup_s for sl in slices]
    notes["raw_setup_s_each"] = [sl.setup_raw_s for sl in slices]
    notes["raw_serving"] = latency_metrics(runs, normalized=False)
    notes["calibration_ms_median"] = 1e3 * statistics.median(
        c for run in runs for c in run.cal_s)
    if not trace:
        metrics = {
            "setup_s": statistics.median(notes["setup_s_each"]),
            **latency_metrics(runs),
            "route_ok_ratio": 1.0 - report.failed / report.attempted,
            "peak_rss_mb": rss,
            "table_words_max":
                slices[-1].manifest["words"]["max_table_words"],
            "header_bytes_max": max(
                max_header_bytes(wl, sl.counters) for sl in slices),
            "store_bytes": slices[-1].store_bytes,
            "stretch_max": report.stretch_max,
        }
        units = {k: u for k, (u, _) in END_TO_END.items()}
    else:
        base, traced = slices
        metrics = layer_metrics(wl, traced.reference, tracer,
                                [traced.warmup, traced.run], traced.counters)
        on, off = latency_metrics([traced.run]), latency_metrics([base.run])
        metrics["trace.overhead_setup_s"] = traced.setup_s - base.setup_s
        metrics["trace.overhead_routes_per_s"] = (
            on["routes_per_s"] - off["routes_per_s"])
        metrics["trace.overhead_route_p50_us"] = (
            on["route_p50_us"] - off["route_p50_us"])
        units = dict(PER_LAYER)
        notes["span_calls"] = {
            name: tracer.calls(name) for name in sorted(tracer.totals)}
        if trace_out:
            tracer.write(trace_out)
    notes.update({
        "fail_reasons": report.reasons,
        "contract_ok": report.contract_ok,
        "fleet_ok": fleet,
        "route_fail_ratio": report.failed / report.attempted,
    })
    return RunResult(
        correct=report.failed == 0 and report.contract_ok and fleet,
        attempted=report.attempted,
        failed=report.failed,
        metrics=metrics,
        units=units,
        config=resolved_config(wl, slices[-1].reference.metric_mode),
        notes=notes,
    )
