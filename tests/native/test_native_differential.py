"""Differential suite of the native C kernel tier.

The tier's contract is the same one the parallel tier carries:
``REPRO_KERNEL`` changes wall-clock, never a single byte of any result.
Every test here races the native engine against its differential
references (numpy, pure) on seeded inputs — graphs for the
delta-stepping batch engine, real and fuzzed shard tables for the C
table codec — and asserts bit/byte identity.  Decoded tables are
compared type-exactly (``True`` is not ``1`` is not ``1.0``, ``-0.0``
is not ``0.0``), encoded tables byte for byte, rejected inputs by
error type and message.  The fallback half
simulates a compiler-less host (``REPRO_NATIVE_CC=off`` + an empty
cache): ``auto`` must fall back to numpy with the reason recorded,
``native`` must raise the typed :class:`NativeUnavailableError`.
"""

import collections
import enum
import os
import random
import struct
import sysconfig

import numpy as np
import pytest

from repro import native
from repro.api import all_specs
from repro.graph import shortest_paths as sp
from repro.graph.core import Graph
from repro.graph.csr import csr_graph
from repro.graph.generators import (
    erdos_renyi,
    grid,
    path,
    preferential_attachment,
    random_geometric,
    ring_with_chords,
    with_random_weights,
)
from repro.graph.metric import MetricView
from repro.graph.shortest_paths import all_balls, kernel_mode
from repro.routing.ports import PortAssignment
from repro.routing.shard_codec import (
    decode_node_table,
    decode_node_table_fast,
    decode_value,
    encode_node_table,
    encode_value,
)
from repro.routing.tables import NodeTable
from repro.routing.tree_routing import native_cluster_tree


def _set_mode(monkeypatch, mode: str) -> None:
    monkeypatch.setenv("REPRO_KERNEL", mode)
    sp.reset_kernel_choice()


@pytest.fixture
def fresh_native(monkeypatch):
    """Re-resolve the native load outcome around env-twiddling tests."""
    native.reset_native()
    yield monkeypatch
    native.reset_native()
    sp.reset_kernel_choice()


def _require_native() -> None:
    if native.try_kernels() is None:
        pytest.skip(f"native tier unavailable: {native.fallback_reason()}")


# ----------------------------------------------------------------------
# dispatch resolution
# ----------------------------------------------------------------------
def test_kernel_mode_names(monkeypatch):
    for raw, want in (("pure", "pure"), ("py", "pure"), ("numpy", "numpy"),
                      ("np", "numpy"), ("kernel", "numpy")):
        _set_mode(monkeypatch, raw)
        assert kernel_mode() == want


def test_auto_prefers_native_when_available(monkeypatch):
    _require_native()
    _set_mode(monkeypatch, "auto")
    assert kernel_mode() == "native"
    _set_mode(monkeypatch, "native")
    assert kernel_mode() == "native"


def test_unknown_engine_is_a_typed_config_error(monkeypatch):
    _set_mode(monkeypatch, "fortran")
    with pytest.raises(sp.KernelConfigError):
        kernel_mode()


def test_masked_compiler_auto_falls_back_with_reason(
    fresh_native, tmp_path
):
    fresh_native.setenv("REPRO_NATIVE_CC", "off")
    fresh_native.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "empty"))
    native.reset_native()
    assert native.try_kernels() is None
    reason = native.fallback_reason()
    assert reason is not None and "compiler" in reason
    status = native.native_status()
    assert status["available"] is False
    assert status["compiler"] is None
    _set_mode(fresh_native, "auto")
    assert kernel_mode() == "numpy"


def test_masked_compiler_forced_native_raises_typed(fresh_native, tmp_path):
    fresh_native.setenv("REPRO_NATIVE_CC", "off")
    fresh_native.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "empty"))
    native.reset_native()
    _set_mode(fresh_native, "native")
    g = with_random_weights(erdos_renyi(60, 0.1, seed=3), seed=4)
    with pytest.raises(native.NativeUnavailableError):
        all_balls(g, 4)


def test_cold_cache_builds_content_hashed_library(fresh_native, tmp_path):
    if native.compiler() is None:
        pytest.skip("no C compiler on this host")
    cache = tmp_path / "cache"
    fresh_native.setenv("REPRO_NATIVE_CACHE", str(cache))
    native.reset_native()
    kernels = native.try_kernels()
    assert kernels is not None
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    expected = cache / f"repro_kernels-{native.source_hash()}{suffix}"
    assert kernels.path == str(expected)
    assert expected.exists()
    # no stranded compile tempdirs next to the published library
    assert [p.name for p in cache.iterdir()] == [expected.name]


def test_library_name_carries_the_interpreter_abi(monkeypatch):
    """The codec links against the CPython API: a library built for one
    interpreter ABI must never be picked up by another."""
    monkeypatch.setattr(
        sysconfig, "get_config_var",
        lambda name: ".cpython-99-fake.so" if name == "EXT_SUFFIX" else None,
    )
    name = os.path.basename(native.kernel_library_path())
    assert name == f"repro_kernels-{native.source_hash()}.cpython-99-fake.so"


def test_missing_python_headers_are_a_typed_build_error(
    fresh_native, tmp_path
):
    if native.compiler() is None:
        pytest.skip("no C compiler on this host")
    headerless = tmp_path / "include"
    headerless.mkdir()
    real = sysconfig.get_paths
    fresh_native.setattr(
        sysconfig, "get_paths",
        lambda *a, **k: {**real(*a, **k), "include": str(headerless)},
    )
    fresh_native.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
    native.reset_native()
    _set_mode(fresh_native, "native")
    with pytest.raises(native.NativeBuildError, match="Python.h"):
        kernel_mode()
    native.reset_native()
    _set_mode(fresh_native, "auto")
    assert kernel_mode() == "numpy"
    assert "Python.h" in native.fallback_reason()


# ----------------------------------------------------------------------
# delta-stepping engine: native vs numpy vs pure on seeded graphs
# ----------------------------------------------------------------------
_GRAPHS = {
    "er-weighted": lambda: with_random_weights(
        erdos_renyi(300, 0.02, seed=11), seed=12
    ),
    "grid": lambda: grid(14, 14),
    "geo-weighted": lambda: with_random_weights(
        random_geometric(220, 0.14, seed=21), seed=22
    ),
    "ring-chords": lambda: with_random_weights(
        ring_with_chords(260, 90, seed=31), seed=32, low=0.5, high=3.0
    ),
}


@pytest.mark.parametrize("name", sorted(_GRAPHS))
def test_all_balls_identical_across_engines(monkeypatch, name):
    _require_native()
    g = _GRAPHS[name]()
    results = {}
    for mode in ("pure", "numpy", "native"):
        _set_mode(monkeypatch, mode)
        results[mode] = all_balls(g, 14, with_radii=True)
    assert results["native"] == results["numpy"]
    assert results["native"] == results["pure"]


@pytest.mark.parametrize("name", sorted(_GRAPHS))
def test_bounded_rows_identical_native_vs_numpy(monkeypatch, name):
    _require_native()
    g = _GRAPHS[name]()
    limits = np.linspace(1.0, 22.0, g.n)

    def sweep():
        csr = csr_graph(g)
        return [
            (s, v.copy().tobytes(), d.copy().tobytes())
            for s, v, d in csr.bounded_rows(range(g.n), limits)
        ]

    _set_mode(monkeypatch, "native")
    nat = sweep()
    _set_mode(monkeypatch, "numpy")
    ref = sweep()
    assert nat == ref


def test_lazy_metric_counts_identical(monkeypatch):
    """The zero-stride broadcast regression: lazy MetricView bounded
    counts go through broadcast views of a scalar limit — the native
    kernel walks raw buffers, so these must stay bit-identical."""
    _require_native()
    g = _GRAPHS["er-weighted"]()
    counts = {}
    thresholds = np.linspace(2.0, 11.0, g.n)
    for mode in ("numpy", "native"):
        _set_mode(monkeypatch, mode)
        view = MetricView(g, mode="lazy")
        counts[mode] = view.count_rows_below(thresholds)
    assert np.array_equal(counts["native"], counts["numpy"])


# ----------------------------------------------------------------------
# type-exact comparison
# ----------------------------------------------------------------------
def assert_identical(a, b, path="$"):
    """``a == b`` with exact types, float bits and dict order.

    Plain ``==`` holds for ``True == 1 == 1.0`` and ``-0.0 == 0.0``;
    a decoder that returned the wrong one of those would pass it.
    """
    assert type(a) is type(b), f"{path}: {type(a)} vs {type(b)}"
    if isinstance(a, float):
        assert struct.pack("<d", a) == struct.pack("<d", b), (
            f"{path}: {a!r} vs {b!r}"
        )
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b), f"{path}: length {len(a)} vs {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            assert_identical(x, y, f"{path}[{i}]")
    elif isinstance(a, dict):
        assert len(a) == len(b), f"{path}: size {len(a)} vs {len(b)}"
        for i, ((ka, va), (kb, vb)) in enumerate(zip(a.items(), b.items())):
            assert_identical(ka, kb, f"{path}.keys()[{i}]")
            assert_identical(va, vb, f"{path}[{ka!r}]")
    elif isinstance(a, NodeTable):
        for name in ("owner", "neighbors", "label", "categories"):
            assert_identical(
                getattr(a, name), getattr(b, name), f"{path}.{name}"
            )
    else:
        assert a == b, f"{path}: {a!r} vs {b!r}"


def test_assert_identical_sees_what_equality_hides():
    for a, b in ((True, 1), (1, 1.0), (-0.0, 0.0), ([(0.0,)], [(-0.0,)]),
                 ({1: 0, 2: 0}, {2: 0, 1: 0})):
        assert a == b
        with pytest.raises(AssertionError):
            assert_identical(a, b)
    assert_identical(float("nan"), float("nan"))


# ----------------------------------------------------------------------
# registered schemes: byte-identical builds under the native engine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
def test_registered_schemes_identical_under_native(monkeypatch, spec):
    _require_native()
    pytest.importorskip("scipy")
    n = 140
    gu = erdos_renyi(n, 0.055, seed=71)
    g = with_random_weights(gu, seed=72) if spec.prefers_weighted else gu

    def build():
        scheme = spec.factory(
            g, metric=MetricView(g, mode="lazy"), **spec.defaults()
        )
        blobs = [encode_node_table(r) for r in scheme.compile_tables()]
        labels = [scheme.label_of(v) for v in range(n)]
        return blobs, labels

    _set_mode(monkeypatch, "native")
    nat = build()
    _set_mode(monkeypatch, "numpy")
    ref = build()
    assert nat == ref


@pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
def test_scheme_payload_decode_parity(monkeypatch, spec):
    """Every registered scheme's real encoded tables decode identically
    through the C decoder and the pure decoder."""
    _require_native()
    pytest.importorskip("scipy")
    n = 120
    gu = erdos_renyi(n, 0.06, seed=81)
    g = with_random_weights(gu, seed=82) if spec.prefers_weighted else gu
    _set_mode(monkeypatch, "numpy")
    scheme = spec.factory(
        g, metric=MetricView(g, mode="lazy"), **spec.defaults()
    )
    payloads = [encode_node_table(r) for r in scheme.compile_tables()]
    pure = [decode_node_table(p) for p in payloads]
    _set_mode(monkeypatch, "native")
    fast = [decode_node_table_fast(p) for p in payloads]
    assert_identical(fast, pure)


@pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
def test_scheme_payload_encode_parity(monkeypatch, spec):
    """Every registered scheme's real tables encode to the same bytes
    through the C encoder as through the pure encoder — natively, not
    by falling back."""
    _require_native()
    pytest.importorskip("scipy")
    n = 120
    gu = erdos_renyi(n, 0.06, seed=81)
    g = with_random_weights(gu, seed=82) if spec.prefers_weighted else gu
    _set_mode(monkeypatch, "numpy")
    scheme = spec.factory(
        g, metric=MetricView(g, mode="lazy"), **spec.defaults()
    )
    records = scheme.compile_tables()
    pure = [encode_node_table(r) for r in records]
    _set_mode(monkeypatch, "native")
    assert [encode_node_table(r) for r in records] == pure
    kernels = native.load_kernels()
    assert all(
        kernels.encode_table(r.owner, r.neighbors, r.label, r.categories)
        is not None
        for r in records
    )


# ----------------------------------------------------------------------
# table codec: fuzzed tables, fallback values, error parity
# ----------------------------------------------------------------------
def _rand_key(rng):
    return rng.choice(
        [
            lambda: rng.randrange(-(2 ** 40), 2 ** 40),
            lambda: "k" + str(rng.randrange(1000)),
            lambda: (rng.randrange(100), rng.randrange(100)),
            lambda: rng.choice([True, False, None]),
        ]
    )()


def _rand_value(rng, depth=0):
    kinds = ["int", "float", "str", "none", "bool"]
    if depth < 3:
        kinds += ["tuple", "list", "dict"]
    kind = rng.choice(kinds)
    if kind == "int":
        # includes magnitudes past int64 — the C codec must punt
        # those to the pure decoder, invisibly to the caller
        return rng.choice(
            [
                rng.randrange(-(2 ** 30), 2 ** 30),
                rng.randrange(2 ** 62, 2 ** 70),
                -rng.randrange(2 ** 62, 2 ** 70),
                -(2 ** 63),
                2 ** 63 - 1,
            ]
        )
    if kind == "float":
        return rng.choice(
            [rng.random() * 1e6, -0.0, 0.0, 1.0, 1e-308, 5e-324,
             float("inf"), float("-inf"), float("nan")]
        )
    if kind == "str":
        return rng.choice(
            ["", "plain", "naïve—ünïcode", "x" * 300, "日本語", "🛰️ emoji"]
        )
    if kind == "none":
        return None
    if kind == "bool":
        return rng.choice([True, False])
    if kind == "tuple":
        return tuple(
            _rand_value(rng, depth + 1) for _ in range(rng.randrange(4))
        )
    if kind == "list":
        return [_rand_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {
        _rand_key(rng): _rand_value(rng, depth + 1)
        for _ in range(rng.randrange(4))
    }


def _rand_table(rng, owner):
    deg = rng.randrange(0, 12)
    unit = rng.random() < 0.5
    neighbors = tuple(
        (rng.randrange(10 ** 6), 1.0 if unit else rng.random() * 50 + 0.01)
        for _ in range(deg)
    )
    categories = {
        f"cat{c}": {
            _rand_key(rng): _rand_value(rng) for _ in range(rng.randrange(5))
        }
        for c in range(rng.randrange(4))
    }
    return NodeTable(
        owner=owner,
        neighbors=neighbors,
        label=_rand_value(rng),
        categories=categories,
    )


def _nested(depth):
    """A value nested ``depth`` containers deep around a leaf."""
    value = (1, "leaf", 2.5)
    for i in range(depth):
        value = [value] if i % 3 == 0 else (value,) if i % 3 == 1 else {
            i: value
        }
    return value


#: nesting around the C codec's depth bound (MAX_VALUE_DEPTH = 200):
#: shallower values run natively, deeper ones through the pure codec
_DEPTHS = (198, 199, 200, 201, 202, 260)


def _fuzz_corpus():
    rng = random.Random(20260808)
    tables = [_rand_table(rng, i) for i in range(250)]
    for i, depth in enumerate(_DEPTHS):
        tables.append(
            NodeTable(
                owner=1000 + i,
                neighbors=((1, 1.0), (2, 1.0)),
                label=_nested(depth),
                categories={"deep": {depth: _nested(depth)}},
            )
        )
    tables.append(
        NodeTable(
            owner=2 ** 63 - 1,
            neighbors=((2 ** 63 - 1, float("nan")), (0, -0.0)),
            label=(True, 1, 1.0, False, 0, 0.0, -0.0, None),
            categories={"collide": {1: "int", True: "bool", 1.0: "float"}},
        )
    )
    return tables


def test_fuzzed_payload_decode_parity(monkeypatch):
    _require_native()
    tables = _fuzz_corpus()
    _set_mode(monkeypatch, "numpy")
    payloads = [encode_node_table(t) for t in tables]
    pure = [decode_node_table(p) for p in payloads]
    _set_mode(monkeypatch, "native")
    fast = [decode_node_table_fast(p) for p in payloads]
    assert_identical(fast, pure)
    assert_identical(pure, tables)
    # both halves of the dispatch ran: native decodes and fallbacks
    kernels = native.load_kernels()
    handled = [kernels.decode_table(p) is not None for p in payloads]
    assert 0 < sum(handled) < len(handled)


def test_fuzzed_payload_encode_parity(monkeypatch):
    _require_native()
    tables = _fuzz_corpus()
    _set_mode(monkeypatch, "numpy")
    pure = [encode_node_table(t) for t in tables]
    _set_mode(monkeypatch, "native")
    assert [encode_node_table(t) for t in tables] == pure
    kernels = native.load_kernels()
    handled = [
        kernels.encode_table(t.owner, t.neighbors, t.label, t.categories)
        is not None
        for t in tables
    ]
    assert 0 < sum(handled) < len(handled)
    # the depth bound is where the fast domain ends
    deep = dict(zip(_DEPTHS, handled[250:250 + len(_DEPTHS)]))
    assert deep[198] and not deep[202]


def _outcome(fn, *args):
    """``("ok", result)`` or ``("raise", type, message)``."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the parity under test is the error itself
        return ("raise", type(exc), str(exc))


class _Opaque:
    pass


class _IntSubclass(int):
    pass


@pytest.mark.parametrize(
    "record",
    [
        NodeTable(owner=-1, neighbors=(), label=None, categories={}),
        NodeTable(owner=1, neighbors=((-5, 1.0),), label=None,
                  categories={}),
        NodeTable(owner=1, neighbors=(), label=2 ** 80, categories={}),
        NodeTable(owner=1, neighbors=(), label={1, 2}, categories={}),
        NodeTable(owner=1, neighbors=(), label=None,
                  categories={"c": {"k": _Opaque()}}),
        NodeTable(owner=1, neighbors=(), label="\ud800", categories={}),
        NodeTable(owner=1, neighbors=(), label=None,
                  categories={"c": {"k": frozenset()}}),
        NodeTable(owner=1.5, neighbors=(), label=None, categories={}),
        # outside the fast domain but encodable: the pure bytes win
        NodeTable(owner=1, neighbors=(), label=_IntSubclass(3),
                  categories={7: {"k": 1}}),
        NodeTable(owner=1, neighbors=((2, 3),), label=2 ** 70,
                  categories={}),
    ],
    ids=[
        "negative-owner", "negative-neighbour", "int-past-77-bits", "set",
        "opaque-object", "lone-surrogate", "frozenset", "float-owner",
        "int-subclass-and-int-category", "int-weight-and-big-int",
    ],
)
def test_encode_rejection_parity(monkeypatch, record):
    """Inputs the C encoder leaves alone behave exactly as the pure
    encoder says: same bytes, or same error type and message."""
    _require_native()
    _set_mode(monkeypatch, "numpy")
    pure = _outcome(encode_node_table, record)
    _set_mode(monkeypatch, "native")
    assert _outcome(encode_node_table, record) == pure


def test_decode_error_parity(monkeypatch):
    """Malformed payloads raise the same typed error through the fast
    path as through the pure decoder — the C decoder never guesses."""
    _require_native()
    good = encode_node_table(
        NodeTable(
            owner=7,
            neighbors=((1, 2.5), (4, 0.5)),
            label=("L", 7),
            categories={"ball": {3: (1.0, 2)}},
        )
    )
    # header + owner 7 + degree 0 + label None, then the category count
    head = b"RT\x01\x01\x07\x00\x00"
    corrupt = [
        good[:3],                       # truncated header
        b"XX" + good[2:],               # bad magic
        good[:2] + b"\x63" + good[3:],  # future codec version
        good + b"\x00\x01",             # trailing bytes
        good[: len(good) - 2],          # truncated value stream
        head + b"\x01\x03\x02\x00",     # int category name
        head + b"\x01\x05\x01c\x01\x07\x00\x00",  # unhashable list key
        head + b"\x01\x05\x02\xc3\x28\x00",      # invalid UTF-8
        head + b"\x01\x05\x01c\x01\x03" + b"\xff" * 10 + b"\x01\x00",
        head + b"\x01\x05\x01c\x01\x03" + b"\xff" * 11 + b"\x01\x00",
        head + b"\x01\x09",              # unknown value tag
        head + b"\x01\x05\x01c\x05\x00",  # entry count past the end
    ]
    _set_mode(monkeypatch, "native")
    for blob in corrupt:
        pure = _outcome(decode_node_table, blob)
        fast = _outcome(decode_node_table_fast, blob)
        if pure[0] == "ok":
            assert_identical(fast[1], pure[1])
        else:
            assert fast == pure


def test_fast_decode_outside_native_mode_is_pure(monkeypatch):
    """decode_node_table_fast is mode-gated: under numpy/pure it must
    not touch the C decoder at all (serving code calls it unconditionally)."""
    payload = encode_node_table(
        NodeTable(owner=1, neighbors=((2, 1.0),), label=None, categories={})
    )
    for mode in ("pure", "numpy"):
        _set_mode(monkeypatch, mode)
        assert decode_node_table_fast(payload) == decode_node_table(payload)


# ----------------------------------------------------------------------
# value codec (cluster wire payloads): fuzzed, real RPCs, edge cases
# ----------------------------------------------------------------------
def _value_fuzz_corpus():
    rng = random.Random(20261017)
    values = [_rand_value(rng) for _ in range(400)]
    values += [_rand_key(rng) for _ in range(50)]
    values += [_nested(depth) for depth in _DEPTHS]
    return values


def _value_parity(monkeypatch, values):
    """Encode/decode ``values`` natively and purely; assert identical
    bytes and type-exact decodes.  Returns the encoded payloads."""
    _set_mode(monkeypatch, "numpy")
    pure = [encode_value(v) for v in values]
    pure_back = [decode_value(b) for b in pure]
    _set_mode(monkeypatch, "native")
    assert [encode_value(v) for v in values] == pure
    assert_identical([decode_value(b) for b in pure], pure_back)
    return pure


def test_fuzzed_value_parity(monkeypatch):
    _require_native()
    values = _value_fuzz_corpus()
    payloads = _value_parity(monkeypatch, values)
    # both halves of the dispatch ran: native hits and fallbacks
    kernels = native.load_kernels()
    encoded = [kernels.encode_value(v) is not None for v in values]
    decoded = [kernels.decode_value(b) is not None for b in payloads]
    assert 0 < sum(encoded) < len(values)
    assert 0 < sum(decoded) < len(payloads)
    deep = dict(zip(_DEPTHS, encoded[450:450 + len(_DEPTHS)]))
    assert deep[198] and not deep[202]


def test_real_cluster_rpc_value_parity(monkeypatch, tmp_path):
    """Every FORWARD/LABEL request and reply a real 2-worker fleet
    exchanges encodes to the same bytes natively as purely, entirely
    inside the C fast domain."""
    _require_native()
    from repro.api import build
    from repro.cluster import start_cluster
    from repro.cluster import router as router_module
    from repro.eval.workloads import sample_pairs
    from repro.routing.serving import write_shards

    _set_mode(monkeypatch, "numpy")
    n = 120
    session = build("tz2", erdos_renyi(n, 0.06, seed=81), seed=6)
    shards = str(tmp_path / "shards")
    write_shards(
        session.scheme, shards, spec_name=session.spec_name,
        params=session.params, seed=session.seed, packed=True,
        group_size=16, replicas=2,
    )
    sent, received = [], []

    def capture_encode(value):
        sent.append(value)
        return encode_value(value)

    def capture_decode(data):
        value = decode_value(data)
        received.append(value)
        return value

    monkeypatch.setattr(router_module, "encode_value", capture_encode)
    monkeypatch.setattr(router_module, "decode_value", capture_decode)
    with start_cluster(shards, workers=2) as handle:
        with handle.router() as router:
            router.route_batch(sample_pairs(n, 40, seed=3), batch_size=8)
    monkeypatch.undo()
    segments = [r for r in received if isinstance(r, list) and r
                and isinstance(r[0], dict) and "state" in r[0]]
    assert segments and len(sent) == len(received)
    values = sent + received
    _value_parity(monkeypatch, values)
    kernels = native.load_kernels()
    assert all(kernels.encode_value(v) is not None for v in values)


class _Color(enum.IntEnum):
    RED = 3


_Pair = collections.namedtuple("_Pair", "a b")


@pytest.mark.parametrize(
    "value",
    [True, False, 1, 0, (True, 1, False, 0), {True: 1, 0: False}, None,
     (None,), _Color.RED, _Pair(1, "b"), np.float64(2.5), 2 ** 63,
     -(2 ** 63) - 1, 2 ** 76, 2 ** 77, -(2 ** 77), _nested(260),
     "\ud800", {1, 2}, _Opaque(), b"raw"],
    ids=["true", "false", "one", "zero", "bool-int-tuple",
         "bool-int-dict", "none", "none-tuple", "intenum", "namedtuple",
         "np-float64", "past-int64", "below-int64", "76-bits",
         "77-bits", "neg-77-bits", "depth-260", "lone-surrogate", "set",
         "opaque", "bytes"],
)
def test_value_encode_edge_parity(monkeypatch, value):
    """Edge values: natively encodable ones match the pure bytes;
    subclasses and out-of-range values take the fallback and still give
    the pure bytes, or the pure error type and message."""
    _require_native()
    _set_mode(monkeypatch, "numpy")
    pure = _outcome(encode_value, value)
    _set_mode(monkeypatch, "native")
    assert _outcome(encode_value, value) == pure
    if pure[0] == "ok":
        back = _outcome(decode_value, pure[1])
        _set_mode(monkeypatch, "numpy")
        assert_identical(back, _outcome(decode_value, pure[1]))


def test_value_fallback_types_leave_the_c_encoder(monkeypatch):
    _require_native()
    kernels = native.load_kernels()
    for value in (_Color.RED, _Pair(1, 2), np.float64(2.5), 2 ** 64,
                  "\ud800", _nested(260)):
        assert kernels.encode_value(value) is None
    assert kernels.encode_value(True) == b"\x02"
    assert kernels.encode_value(1) == b"\x03\x02"
    # a decoded None is boxed, never confused with "fall back"
    assert kernels.decode_value(b"\x00") == (None,)


def test_value_decode_error_parity(monkeypatch):
    """Malformed value payloads raise the same typed error with the
    same message through the native dispatch as through the pure
    decoder; well-formed ones decode type-exactly, from a memoryview
    as well as from bytes."""
    _require_native()
    good = encode_value(("L", 7, [1.5, None, {"k": (True, 0)}]))
    malformed = [
        b"",                                # empty
        good + b"\x00",                     # trailing bytes
        good[:-1],                          # truncated value stream
        b"\x04\x00\x00",                    # truncated float
        b"\x05\x05ab",                      # truncated string
        b"\x09",                            # unknown value tag
        b"\x07\x01\x09",                    # unknown tag, nested
        b"\x05\x02\xc3\x28",                # invalid UTF-8
        b"\x08\x01\x07\x00\x00",             # unhashable list key
        b"\x03" + b"\xff" * 10 + b"\x01",     # int past int64 (ok)
        b"\x03" + b"\xff" * 11 + b"\x01",     # varint too long
        b"\x07\x05\x00",                    # count past the end
        b"\x06\x01" * 250 + b"\x00",         # deeper than the C bound
    ]
    for blob in [good, *malformed]:
        _set_mode(monkeypatch, "numpy")
        pure = _outcome(decode_value, blob)
        _set_mode(monkeypatch, "native")
        for data in (blob, memoryview(blob), memoryview(b"?" + blob)[1:]):
            fast = _outcome(decode_value, data)
            if pure[0] == "ok":
                assert_identical(fast[1], pure[1])
            else:
                assert fast == pure


def test_value_codec_outside_native_mode_is_pure(monkeypatch):
    """Under pure/numpy the value codec never calls a native symbol."""

    def forbidden(*args):
        raise AssertionError("native value codec called")

    monkeypatch.setattr(native.NativeKernels, "encode_value", forbidden)
    monkeypatch.setattr(native.NativeKernels, "decode_value", forbidden)
    value = ("h", 1, [2.5, None], {"k": True})
    for mode in ("pure", "numpy"):
        _set_mode(monkeypatch, mode)
        assert decode_value(encode_value(value)) == value


# ----------------------------------------------------------------------
# composition with the parallel tier
# ----------------------------------------------------------------------
def test_native_composes_with_parallel(monkeypatch):
    _require_native()
    from repro.graph import parallel

    g = _GRAPHS["er-weighted"]()
    csr = csr_graph(g)
    monkeypatch.setattr(parallel, "_MIN_PARALLEL_N", 1, raising=False)

    def balls():
        return csr.all_balls(12, tol=0.0, with_radii=True, as_arrays=True)

    _set_mode(monkeypatch, "native")
    monkeypatch.setenv("REPRO_PARALLEL", "2")
    parallel.reset_parallel_choice()
    try:
        par = balls()
    finally:
        monkeypatch.setenv("REPRO_PARALLEL", "off")
        parallel.reset_parallel_choice()
    _set_mode(monkeypatch, "numpy")
    ser = balls()
    for a, b in zip(par, ser):
        assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# cluster trees: induced SPT + heavy-path records/labels in one C call
# ----------------------------------------------------------------------
def _integer_weighted(n, p, seed):
    """Weights from {1, 2, 3}: many exact equal-length paths, so the
    smallest-predecessor parent rule and the (d, v) heap order decide
    most trees."""
    rng = random.Random(seed)
    out = Graph(n)
    for u, v, _ in erdos_renyi(n, p, seed=seed).edges():
        out.add_edge(u, v, float(rng.randint(1, 3)))
    return out


_TREE_GRAPHS = {
    "er-unweighted": lambda: erdos_renyi(130, 0.05, seed=81),
    "grid-unweighted": lambda: grid(10, 12),
    "er-int-weighted": lambda: _integer_weighted(130, 0.05, seed=82),
    "er-weighted": lambda: with_random_weights(
        erdos_renyi(130, 0.05, seed=83), seed=84
    ),
    "grid-weighted": lambda: with_random_weights(grid(10, 12), seed=85),
    "ba-weighted": lambda: with_random_weights(
        preferential_attachment(130, 2, seed=86), seed=87
    ),
}

#: the schemes whose cluster trees the kernel builds: Thorup-Zwick
#: (SampledHierarchy), thm16 (SampledHierarchy), thm11 (BunchStructure)
_TREE_SCHEMES = ("tz2", "tz3", "thm11", "thm16")


def _cluster_trees(monkeypatch, mode, name, g, ports_seed, metric_mode):
    """Every cluster tree ``name`` builds under kernel ``mode``, as
    ``(key, parents, records, labels)`` with each dict's own order."""
    from repro.api import Substrate, build

    _set_mode(monkeypatch, mode)
    substrate = Substrate(
        g,
        metric=MetricView(g, mode=metric_mode),
        ports=PortAssignment(g, seed=ports_seed),
    )
    build(name, g, substrate=substrate)
    out = []
    for key, tree in substrate._trees.items():
        if key[1] is None:  # full-graph landmark trees: not cluster trees
            continue
        # native trees come from the kernel (their RootedTree is never
        # built); the others ran the reference
        assert (tree._tree is None) == (mode == "native"), key
        out.append((key, tree.tree.parent, tree._records, tree._labels))
    assert out, "no cluster trees built"
    return out


@pytest.mark.parametrize("graph", sorted(_TREE_GRAPHS))
@pytest.mark.parametrize("name", _TREE_SCHEMES)
def test_cluster_trees_identical_across_engines(monkeypatch, name, graph):
    _require_native()
    g = _TREE_GRAPHS[graph]()
    trees = {
        mode: _cluster_trees(monkeypatch, mode, name, g, 5, "dense")
        for mode in ("native", "numpy", "pure")
    }
    assert_identical(trees["native"], trees["numpy"])
    assert_identical(trees["native"], trees["pure"])


@pytest.mark.parametrize("ports_seed", [None, 17])
def test_cluster_trees_identical_on_a_lazy_metric(monkeypatch, ports_seed):
    _require_native()
    g = _TREE_GRAPHS["er-int-weighted"]()
    for name in ("tz2", "thm11"):
        nat = _cluster_trees(monkeypatch, "native", name, g, ports_seed, "lazy")
        ref = _cluster_trees(monkeypatch, "pure", name, g, ports_seed, "lazy")
        assert_identical(nat, ref)


def _non_closed(source):
    """The path 0-1-2-3-4 with members {0, 4}: 4's parent 3 missing."""
    m = MetricView(path(5), mode="dense")
    members = [0, 4]
    dists = None
    if source == "sweep":  # what the cluster structures pass
        ((_, verts, row),) = m.iter_bounded_rows(float("inf"), [0])
        dists = row[np.searchsorted(verts, members)]
    return m, members, dists


@pytest.mark.parametrize("source", ["row", "sweep"])
def test_cluster_tree_non_closed_error_parity(monkeypatch, source):
    _require_native()
    m, members, dists = _non_closed(source)
    with pytest.raises(ValueError) as ref:
        m.restricted_spt_parents(0, members, dists)
    _set_mode(monkeypatch, "native")
    m, members, dists = _non_closed(source)
    with pytest.raises(ValueError) as nat:
        native_cluster_tree(m, 0, members, dists, PortAssignment(m.graph))
    assert str(nat.value) == str(ref.value)
    assert str(nat.value) == (
        "member set not shortest-path closed toward 0: induced distance "
        "of 4 is inf, global is 4.0"
    )


def test_cluster_tree_outside_the_fast_domain_falls_back(monkeypatch):
    """Unsorted members, a missing root or a distance count mismatch
    leave the kernel (``None``): the reference raises or answers."""
    _require_native()
    _set_mode(monkeypatch, "native")
    m = MetricView(grid(4, 4), mode="dense")
    ports = PortAssignment(m.graph)
    assert native_cluster_tree(m, 0, [1, 0], None, ports) is None
    assert native_cluster_tree(m, 0, [1, 2], None, ports) is None
    assert native_cluster_tree(m, 0, [0, 1], [0.0], ports) is None
    assert native_cluster_tree(m, 0, [0, 1], [0.0, 1.0], ports) is not None
    _set_mode(monkeypatch, "pure")
    assert native_cluster_tree(m, 0, [0, 1], [0.0, 1.0], ports) is None


def test_cluster_trees_on_a_compiler_less_host(fresh_native, tmp_path):
    """``auto`` without a compiler or a cached library runs the numpy
    engine and the reference trees, identical to the native ones."""
    _require_native()
    g = _TREE_GRAPHS["er-weighted"]()
    nat = _cluster_trees(fresh_native, "native", "tz2", g, 5, "dense")
    fresh_native.setenv("REPRO_NATIVE_CC", "off")
    fresh_native.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "empty"))
    native.reset_native()
    _set_mode(fresh_native, "auto")
    assert kernel_mode() == "numpy"
    ref = _cluster_trees(fresh_native, "auto", "tz2", g, 5, "dense")
    assert_identical(nat, ref)


def _packed_store(monkeypatch, tmp_path, mode, name, metric_mode):
    """Build ``name`` at n=600 under ``mode`` and write it packed: the
    store's files by relative path, and the metric's row counters."""
    from repro.api import build

    g = erdos_renyi(600, 5 / 599, seed=91)
    if name == "thm11":
        g = with_random_weights(g, seed=92)
    _set_mode(monkeypatch, mode)
    metric = MetricView(g, mode=metric_mode)
    session = build(name, g, metric=metric, seed=3)
    root = tmp_path / f"{name}-{mode}-{metric_mode}"
    session.save(str(root), shards=True, packed=True)
    files = {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }
    assert "manifest.json" in files
    assert any(k.startswith("groups") for k in files)
    return files, metric.rows_computed, metric.bounded_rows_computed


@pytest.mark.parametrize("name", ["tz2", "thm11"])
def test_packed_shards_byte_identical_pure_vs_native(
    monkeypatch, tmp_path, name
):
    """The whole-pipeline invariant: a build whose cluster trees came
    from the kernel writes the same packed store, byte for byte, after
    computing as many metric rows as the pure build."""
    _require_native()
    pure = _packed_store(monkeypatch, tmp_path, "pure", name, "auto")
    nat = _packed_store(monkeypatch, tmp_path, "native", name, "auto")
    assert nat == pure


def test_lazy_tz2_row_counts_unchanged_by_the_tree_kernel(
    monkeypatch, tmp_path
):
    """On a lazy metric the cluster trees read only the sweep's
    distances in both engines: the kernel adds no row, bounded or full
    (pure dispatch filters full rows, so numpy is the counter twin)."""
    _require_native()
    ref = _packed_store(monkeypatch, tmp_path, "numpy", "tz2", "lazy")
    nat = _packed_store(monkeypatch, tmp_path, "native", "tz2", "lazy")
    assert nat == ref
    assert nat[2] > 0
