"""The native C kernel tier: compile-on-demand ctypes kernels.

The compiled half of the 10^6-preprocessing goal (the multiprocess half
is :mod:`repro.graph.parallel`): a small hand-rolled C source file
(``_kernels.c``) is compiled on first use with the *system* compiler —
``cc``/``gcc``/``clang``, no new Python dependencies — into a
content-hash-named shared library under a cache directory, and loaded
via ``ctypes`` with zero-copy pointers into the existing CSR numpy
arrays.  Four kernels ride in it:

* the delta-stepping relax/scatter-min inner loop over the flattened
  ``(source, vertex)`` space (:meth:`repro.graph.csr.CSRGraph._delta_batch`
  calls it per open bucket), called through a ``ctypes.CDLL`` handle
  so it releases the GIL,
* the ``NodeTable`` shard codec, written against the CPython API and
  called through a ``ctypes.PyDLL`` handle on the same library:
  ``repro_decode_table`` builds a record's Python objects straight
  from the payload bytes (behind
  :func:`repro.routing.shard_codec.decode_node_table_fast`, the
  ``PackedShardStore`` cold-lookup path) and ``repro_encode_table``
  writes the payload bytes straight from the record (behind
  :func:`repro.routing.shard_codec.encode_node_table`, the save path).
  Either returns ``None`` outside its fast domain and the caller runs
  the pure codec, and
* the tagged value codec on the same ``PyDLL`` handle:
  ``repro_encode_value`` / ``repro_decode_value`` (behind
  :func:`repro.routing.shard_codec.encode_value` / ``decode_value``)
  carry every cluster RPC payload.  Their fast domain is the table
  codec's — exact builtin types, ints within int64, nesting up to 200
  levels, well-formed UTF-8, hashable keys, no trailing bytes — and
  anything else returns ``None`` (decode boxes a hit as ``(value,)``)
  so the pure codec produces the canonical bytes or error, and
* the cluster-tree builder on the same ``PyDLL`` handle:
  ``repro_cluster_tree`` runs one cluster's induced-subgraph Dijkstra,
  its closure check, the subtree sizes, heavy children and heavy-first
  DFS, and returns the parent map and the Lemma 3 ``TreeRecord`` /
  ``TreeLabel`` dicts (behind
  :func:`repro.routing.tree_routing.native_cluster_tree`, which
  ``BunchStructure`` and ``SampledHierarchy.cluster_tree_routing``
  call for every scheme's cluster trees).  Parents, records, labels
  and dict order equal the Python reference's; members outside its
  domain return ``None`` and the reference runs.

Because the codec links against the CPython API, the build needs the
interpreter's headers (``Python.h`` under ``sysconfig``'s include dir)
and the cache key carries the interpreter ABI (``EXT_SUFFIX``) next to
the source hash, so two interpreters never share one library.

Dispatch
--------
The tier hangs off the existing ``REPRO_KERNEL`` switch (resolved once
per process by :func:`repro.graph.shortest_paths.kernel_mode`):

* ``native`` *forces* the tier — a missing compiler with no cached
  library raises the typed :class:`NativeUnavailableError` instead of
  silently running numpy;
* ``auto`` (or unset) *prefers* native when it loads, and otherwise
  falls back to the numpy kernel recording why
  (:func:`fallback_reason` / :func:`native_status`);
* ``numpy`` pins the numpy kernel, ``pure`` the pure-Python one — both
  stay differential references with bit-identical outputs.

``REPRO_NATIVE_CC`` overrides the compiler (a path/name), and the
values ``off``/``none``/``0`` mask it entirely — with an empty
``REPRO_NATIVE_CACHE`` that is exactly the "compiler-less host" the
fallback tests simulate.  Builds are process-safe: each builder
compiles into a private temporary directory and publishes the library
with an atomic ``os.replace``, so concurrent spawn workers (the
``REPRO_PARALLEL`` tier resolves native independently per worker) race
benignly toward the same content-addressed file.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from typing import Any, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "NativeError",
    "NativeUnavailableError",
    "NativeBuildError",
    "NativeExecutionError",
    "NativeKernels",
    "compiler",
    "cache_dir",
    "source_path",
    "source_hash",
    "kernel_library_path",
    "load_kernels",
    "try_kernels",
    "fallback_reason",
    "native_status",
    "reset_native",
]

#: compilers probed (in order) when REPRO_NATIVE_CC does not pick one
_CC_CANDIDATES = ("cc", "gcc", "clang")
#: REPRO_NATIVE_CC values that mask the compiler entirely
_CC_OFF = ("off", "none", "0")
#: flags are part of the build, not of the cache key — the key is the
#: source content, so a host without a compiler still finds a library
#: another process (or an earlier run) built from identical source
_CC_FLAGS = ("-O3", "-std=c99", "-shared", "-fPIC")
#: macOS resolves the CPython symbols from the host interpreter at load
_CC_FLAGS_DARWIN = ("-undefined", "dynamic_lookup")


class NativeError(RuntimeError):
    """Base of the native tier's typed error hierarchy."""


class NativeUnavailableError(NativeError):
    """No compiler on the host and no cached kernel library."""


class NativeBuildError(NativeError):
    """The compiler was found but failed to build the kernels."""


class NativeExecutionError(NativeError):
    """A loaded kernel reported a runtime failure (allocation)."""


def compiler() -> Optional[str]:
    """The C compiler to use, or ``None`` when masked/absent.

    ``REPRO_NATIVE_CC`` picks an explicit compiler (resolved on PATH);
    ``off``/``none``/``0`` mask compilation entirely (the forced-
    fallback tests use this to simulate a compiler-less host).
    """
    override = os.environ.get("REPRO_NATIVE_CC", "").strip()
    if override:
        if override.lower() in _CC_OFF:
            return None
        return shutil.which(override)
    for name in _CC_CANDIDATES:
        found = shutil.which(name)
        if found is not None:
            return found
    return None


def cache_dir() -> str:
    """Directory holding built kernel libraries.

    ``REPRO_NATIVE_CACHE`` overrides; the default is
    ``$XDG_CACHE_HOME/repro-native`` (``~/.cache/repro-native``).
    """
    override = os.environ.get("REPRO_NATIVE_CACHE", "").strip()
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME", "").strip() or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro-native")


def source_path() -> str:
    """The bundled ``_kernels.c`` source file."""
    return os.path.join(os.path.dirname(__file__), "_kernels.c")


def source_hash() -> str:
    """Content hash naming the built library (source bytes only)."""
    with open(source_path(), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def kernel_library_path() -> str:
    """Where the built library for this source and interpreter ABI lives.

    The name carries the interpreter's ``EXT_SUFFIX`` (e.g.
    ``.cpython-311-x86_64-linux-gnu.so``) next to the source hash: the
    codec kernels link against the CPython API, so a library built for
    one interpreter must never load into another.
    """
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return os.path.join(
        cache_dir(), f"repro_kernels-{source_hash()}{suffix}"
    )


def _python_include() -> str:
    """The interpreter's C header directory (must hold ``Python.h``)."""
    include = sysconfig.get_paths()["include"]
    if not os.path.isfile(os.path.join(include, "Python.h")):
        raise NativeBuildError(
            f"Python.h not found in {include!r}: the native codec needs "
            f"the interpreter's C headers — install the Python "
            f"development package (e.g. python3-dev), or set "
            f"REPRO_KERNEL=numpy to run without the native tier"
        )
    return include


def _build_library(cc: str, target: str) -> None:
    """Compile ``_kernels.c`` and publish it at ``target`` atomically.

    The compile runs inside a private temporary directory under the
    cache dir and the finished library moves into place with
    ``os.replace`` — concurrent builders (parallel-tier spawn workers
    resolving native at the same moment) each publish a byte-equivalent
    file and the last rename wins without ever exposing a torn write.
    """
    include = _python_include()
    directory = os.path.dirname(target)
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise NativeUnavailableError(
            f"native kernel cache dir {directory!r} is not writable: {exc}"
        ) from exc
    with tempfile.TemporaryDirectory(dir=directory) as tmp:
        tmp_so = os.path.join(tmp, "repro_kernels.so")
        cmd = [cc, *_CC_FLAGS, "-I", include, "-o", tmp_so, source_path()]
        if sys.platform == "darwin":
            cmd[1:1] = _CC_FLAGS_DARWIN
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=120
            )
        except (OSError, subprocess.SubprocessError) as exc:
            raise NativeBuildError(
                f"failed to run the C compiler {cc!r}: {exc}"
            ) from exc
        if proc.returncode != 0:
            raise NativeBuildError(
                f"C compiler {cc!r} failed (exit {proc.returncode}):\n"
                f"{proc.stderr.strip() or proc.stdout.strip()}"
            )
        os.replace(tmp_so, target)


def _ptr(arr: np.ndarray) -> int:
    return arr.ctypes.data


_I64 = ctypes.c_longlong
_I32_P = ctypes.POINTER(ctypes.c_int32)
_I64_P = ctypes.POINTER(ctypes.c_longlong)
_F64_P = ctypes.POINTER(ctypes.c_double)


class NativeKernels:
    """Owner of the loaded kernel library and its call surface.

    Holds two handles on the one library for its whole lifetime
    (``close()`` drops both; the OS unmaps the library when the last
    reference dies): a ``ctypes.CDLL`` for the delta-stepping batch,
    which releases the GIL, and a ``ctypes.PyDLL`` for the codec entry
    points, which build Python objects and so keep the GIL held.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        try:
            lib = ctypes.CDLL(path)
        except OSError as exc:
            raise NativeUnavailableError(
                f"cached kernel library {path!r} failed to load: {exc}"
            ) from exc
        c_i64 = _I64
        c_ptr = ctypes.c_void_p
        lib.repro_delta_batch.restype = ctypes.c_int
        lib.repro_delta_batch.argtypes = [
            c_ptr, c_ptr, c_ptr,                 # indptr, indices, weights
            c_i64, c_i64,                        # n, nb
            c_ptr,                               # start
            c_ptr, c_ptr, c_ptr,                 # vtx, cap, lim (or NULL)
            ctypes.c_double,                     # delta
            c_i64, c_i64, ctypes.c_double,       # ring, ell, tol
            c_i64,                               # gen
            ctypes.POINTER(_I32_P), ctypes.POINTER(_F64_P),
            ctypes.POINTER(c_i64),
        ]
        lib.repro_release.restype = None
        lib.repro_release.argtypes = [c_ptr]
        self._lib: Optional[ctypes.CDLL] = lib
        codec = ctypes.PyDLL(path)
        obj = ctypes.py_object
        codec.repro_decode_table.restype = obj
        codec.repro_decode_table.argtypes = [obj]
        codec.repro_encode_table.restype = obj
        codec.repro_encode_table.argtypes = [obj, obj, obj, obj]
        codec.repro_decode_value.restype = obj
        codec.repro_decode_value.argtypes = [obj]
        codec.repro_encode_value.restype = obj
        codec.repro_encode_value.argtypes = [obj]
        codec.repro_cluster_tree.restype = obj
        codec.repro_cluster_tree.argtypes = [
            obj, obj, obj, c_i64, ctypes.c_double,
        ]
        self._codec: Optional[ctypes.PyDLL] = codec

    def close(self) -> None:
        """Drop the library handles (test hook; idempotent)."""
        self._lib = None
        self._codec = None

    # -- kernel 1: delta-stepping batch engine --------------------------
    def delta_batch(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        n: int,
        nb: int,
        start: np.ndarray,
        vtx: np.ndarray,
        cap: np.ndarray,
        lim: Optional[np.ndarray],
        delta: float,
        ring: int,
        ell: Optional[int],
        tol: float,
        gen: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Run one whole delta-stepping batch in C.

        Returns ``(settled, settled_d)``: settled flattened ids in
        bucket order (ball mode: each bucket chunk sorted by
        ``(distance, id)``; bounded mode: settle order) with their final
        distances.  ``cap`` is mutated in place, exactly like the numpy
        engine; ``vtx`` is the caller-owned generation-stamped scratch.
        """
        lib = self._lib
        if lib is None:
            raise NativeExecutionError("kernel library handle is closed")
        settled_p = _I32_P()
        settled_d_p = _F64_P()
        settled_n = _I64()
        rc = lib.repro_delta_batch(
            _ptr(indptr), _ptr(indices), _ptr(weights),
            int(n), int(nb),
            _ptr(start),
            _ptr(vtx), _ptr(cap),
            _ptr(lim) if lim is not None else None,
            float(delta),
            int(ring), -1 if ell is None else int(ell), float(tol),
            int(gen),
            ctypes.byref(settled_p), ctypes.byref(settled_d_p),
            ctypes.byref(settled_n),
        )
        if rc != 0:
            # Allocation failure (or an impossible ring overflow): cap
            # is partially mutated, so a silent numpy retry would be
            # wrong — surface the typed error.
            raise NativeExecutionError(
                f"delta_batch: native kernel failed (rc={rc})"
            )
        settled = self._take(settled_p, settled_n.value, np.int32)
        settled_d = self._take(settled_d_p, settled_n.value, np.float64)
        return settled, settled_d

    def _take(self, ptr: Any, count: int, dtype: Any) -> np.ndarray:
        """Copy a C-allocated result array out and free it."""
        lib = self._lib
        assert lib is not None
        if not ptr or count <= 0:
            if ptr:
                lib.repro_release(ptr)
            return np.empty(0, dtype=dtype)
        out = np.empty(count, dtype=dtype)
        ctypes.memmove(out.ctypes.data, ptr, count * out.itemsize)
        lib.repro_release(ptr)
        return out

    # -- kernel 2: the NodeTable shard codec ---------------------------
    def decode_table(self, data: Any) -> Optional[Tuple[Any, ...]]:
        """One shard payload as ``(owner, ids, weights, label, categories)``.

        ``data`` is any simple buffer (``bytes``, an mmap ``memoryview``
        slice); ``weights`` is ``None`` for a unit-weight record.  The
        result is ``None`` outside the fast domain: use the pure decoder.
        """
        codec = self._codec
        if codec is None:
            raise NativeExecutionError("kernel library handle is closed")
        result: Optional[Tuple[Any, ...]] = codec.repro_decode_table(data)
        return result

    def encode_table(
        self, owner: Any, neighbors: Any, label: Any, categories: Any
    ) -> Optional[bytes]:
        """One record's shard payload, or ``None``: use the pure encoder."""
        codec = self._codec
        if codec is None:
            raise NativeExecutionError("kernel library handle is closed")
        result: Optional[bytes] = codec.repro_encode_table(
            owner, neighbors, label, categories
        )
        return result

    # -- kernel 3: the tagged value codec (cluster wire payloads) ------
    def decode_value(self, data: Any) -> Optional[Tuple[Any]]:
        """One tagged value boxed as ``(value,)``, or ``None``: use the
        pure decoder.  The box keeps a decoded ``None`` distinct from
        the fallback signal."""
        codec = self._codec
        if codec is None:
            raise NativeExecutionError("kernel library handle is closed")
        result: Optional[Tuple[Any]] = codec.repro_decode_value(data)
        return result

    def encode_value(self, value: Any) -> Optional[bytes]:
        """One value's tagged bytes, or ``None``: use the pure encoder."""
        codec = self._codec
        if codec is None:
            raise NativeExecutionError("kernel library handle is closed")
        result: Optional[bytes] = codec.repro_encode_value(value)
        return result

    # -- kernel 4: cluster trees (induced SPT + heavy-path routing) ----
    def cluster_tree(
        self,
        graph: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        members: Any,
        member_dists: np.ndarray,
        root: int,
        tol: float,
    ) -> Optional[Tuple[Any, ...]]:
        """One cluster tree's ``(parents, records, labels)`` dicts.

        ``graph`` is the contiguous ``(indptr, indices, weights, ports)``
        CSR quadruple (int64, int64, float64, int32; ``ports[e]`` is the
        port at ``u`` of edge ``e``), ``members`` the sorted member ids
        (a list of ints) and ``member_dists`` their float64 global
        distances from ``root``.  A closure failure returns ``(v,
        induced, global)`` instead; ``None`` means input outside the
        fast domain: run the reference.
        """
        codec = self._codec
        if codec is None:
            raise NativeExecutionError("kernel library handle is closed")
        result: Optional[Tuple[Any, ...]] = codec.repro_cluster_tree(
            graph, members, member_dists, int(root), float(tol)
        )
        return result


#: once-per-process load outcome: (tried, handle, error)
_TRIED = False
_HANDLE: Optional[NativeKernels] = None
_ERROR: Optional[NativeError] = None


def _load() -> NativeKernels:
    target = kernel_library_path()
    if os.path.exists(target):
        return NativeKernels(target)
    cc = compiler()
    if cc is None:
        raise NativeUnavailableError(
            f"no C compiler on PATH (tried REPRO_NATIVE_CC, "
            f"{', '.join(_CC_CANDIDATES)}) and no cached kernel library "
            f"at {target!r} — set REPRO_KERNEL=numpy (or auto) to run "
            f"without the native tier"
        )
    _build_library(cc, target)
    return NativeKernels(target)


def try_kernels() -> Optional[NativeKernels]:
    """The loaded kernels, or ``None`` with the reason recorded.

    Resolved once per process (spawn workers resolve their own copy);
    :func:`reset_native` drops the cached outcome for tests.
    """
    global _TRIED, _HANDLE, _ERROR
    if not _TRIED:
        _TRIED = True
        try:
            _HANDLE = _load()
        except NativeError as exc:
            _ERROR = exc
            _HANDLE = None
    return _HANDLE


def load_kernels() -> NativeKernels:
    """The loaded kernels; raises the typed load error when unavailable.

    ``REPRO_KERNEL=native`` resolves through this — a compiler-less
    host with a cold cache gets :class:`NativeUnavailableError`, a
    broken toolchain :class:`NativeBuildError`, never a silent numpy
    fallback.
    """
    handle = try_kernels()
    if handle is None:
        assert _ERROR is not None
        raise _ERROR
    return handle


def fallback_reason() -> Optional[str]:
    """Why native is off (after a resolve), or ``None`` when loaded."""
    return str(_ERROR) if _ERROR is not None else None


def native_status() -> Dict[str, Any]:
    """One-look status: availability, library path, fallback reason."""
    handle = try_kernels()
    return {
        "available": handle is not None,
        "library": handle.path if handle is not None else None,
        "compiler": compiler(),
        "reason": fallback_reason(),
    }


def reset_native() -> None:
    """Drop the cached load outcome (test hook).

    The next :func:`try_kernels` re-reads ``REPRO_NATIVE_CC`` /
    ``REPRO_NATIVE_CACHE`` and re-resolves; a previously loaded handle
    is closed.
    """
    global _TRIED, _HANDLE, _ERROR
    if _HANDLE is not None:
        _HANDLE.close()
    _TRIED = False
    _HANDLE = None
    _ERROR = None
