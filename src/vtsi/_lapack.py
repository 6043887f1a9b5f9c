"""scipy's compiled LAPACK and BLAS, without the ``scipy.linalg`` package.

vtsi calls five routines of scipy's bundled OpenBLAS: getrf, getrs, gesv,
gemv and gesdd. They live in ``scipy.linalg._flapack`` and ``_fblas``, the
f2py extension modules that ``scipy.linalg`` itself wraps. Importing that
package runs its ``__init__``, whose array-API shim imports numpy.f2py,
numpy.testing and numpy.random: about a fifth of a default run's wall
time and 21 MB of its peak memory. So this module loads the two extension
modules from scipy's directory without running ``scipy/__init__`` or
``scipy/linalg/__init__``, and registers them in ``sys.modules`` under
their own names, so that a later ``import scipy.linalg`` shares them.

``lu_factor`` and ``null_space`` call their routines with the arguments
that ``scipy.linalg.lu_factor`` and ``scipy.linalg.null_space`` pass, so
their results are scipy's bit for bit. ``dgetrs``, ``dgesv`` and ``dgemv``
are the objects that ``get_lapack_funcs`` and ``get_blas_funcs`` return
for float64 arrays.

numpy and scipy each bundle their own OpenBLAS, each with its own thread
pool, sized by ``OPENBLAS_NUM_THREADS`` (at most the core count) when it
loads. This module owns both pools. At import it looks up, once, the
routines of each library that act on its pool: the thread-count getter
and setter (``scipy_openblas_get_num_threads`` and ``_set_``, with the
suffix ``64_`` in numpy's ``numpy.libs`` library, none in scipy's
``scipy.libs``) and ``blas_thread_shutdown_``, which each library runs
before a fork. It opens the libraries with ``RTLD_NOLOAD``: both are
already loaded, and a library that is not is left alone. Where either
library or any of the routines is missing, as under another build of
numpy or scipy, the table is empty and ``park`` and ``blas_threads`` do
nothing.

A pool's idle workers spin for about 0.1 s of CPU each before they sleep:
after every threaded call, when the library loads, and when the setter
raises the count, which starts new workers. One pool's spinning workers
slowed the other's threaded calls on the same cores: on 2 cores a set-up
``null_space`` took 0.16-0.18 s where it needs 4 ms, and a step block's
factor 0.11 s where it needs 0.04 s. ``park`` stops both pools' workers
through ``blas_thread_shutdown_``; a pool restarts at its thread count on
its next threaded call, so no result changes. Before it imports numpy,
this module loads numpy's library itself and stops the workers that the
load starts, which would spin through numpy's import; ``vtsi`` imports
this module first. It parks the pools at the end of its import, around
``null_space``'s dgesdd, before ``lu_factor``'s dgetrf, after
``blas_threads`` sets the counts, and at the end of its block: the points
where a run hands its threaded work from one pool to the other, and where
its threaded work ends. A block at the
pools' own counts sets nothing and parks only at its end: a setter call
and the park after it cost about 4 ms, a park after a threaded call about
0.1 ms.
"""
from __future__ import annotations

import ctypes
import glob
import importlib.machinery
import importlib.util
import os
import sys
from contextlib import contextmanager
from typing import NamedTuple

__all__ = ["blas_threads", "dgemv", "dgesv", "dgetrs", "lu_factor",
           "null_space", "park"]

# Each bundled OpenBLAS: its package, its library's directory beside the
# package and file name, and its symbols' suffix.
_OPENBLAS = (("scipy", "scipy.libs", "libscipy_openblas-*.so", ""),
             ("numpy", "numpy.libs", "libscipy_openblas64_-*.so", "64_"))


def _library(package: str, libs: str, pattern: str) -> str | None:
    """The path of a package's bundled OpenBLAS, found without importing
    the package; None unless there is exactly one."""
    spec = importlib.util.find_spec(package)
    found = [path for root in (spec.submodule_search_locations
                               if spec else ())
             for path in glob.glob(os.path.join(os.path.dirname(root), libs,
                                                pattern))]
    return found[0] if len(found) == 1 else None


def _load_numpy_openblas() -> None:
    """Load numpy's OpenBLAS before numpy does, and stop the workers that
    it starts when it loads: they would spin through the rest of numpy's
    import, about 0.1 s of CPU. numpy's import then finds the library
    loaded. Does nothing where the library or the routine is missing."""
    package, libs, pattern, _ = _OPENBLAS[1]
    path = _library(package, libs, pattern)
    if path is None:
        return
    try:
        shutdown = ctypes.CDLL(path).blas_thread_shutdown_
    except (AttributeError, OSError):
        return
    shutdown.argtypes, shutdown.restype = [], ctypes.c_int
    shutdown()


_load_numpy_openblas()

import numpy as np  # noqa: E402  (after its OpenBLAS is parked)


def _load(name: str):
    """The extension module scipy.linalg.<name>: the one already imported,
    or loaded from scipy's directory and registered under that name."""
    full = "scipy.linalg." + name
    if full in sys.modules:
        return sys.modules[full]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("vtsi needs scipy, which is not installed")
    linalg = [os.path.join(p, "linalg")
              for p in scipy.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec(full, linalg)
    if spec is None:
        raise ImportError("scipy has no compiled module %s" % full)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[full] = module
    return module


_flapack = _load("_flapack")
_fblas = _load("_fblas")

dgetrs = _flapack.dgetrs
dgesv = _flapack.dgesv
dgemv = _fblas.dgemv


def lu_factor(a: np.ndarray):
    """(lu, piv) of a finite float64 matrix by dgetrf, as
    ``scipy.linalg.lu_factor(a, overwrite_a=True)`` returns them: a
    Fortran-ordered ``a`` is factored in place, and an empty one gives
    empty factors. A zero pivot raises RuntimeError, where scipy only
    warns."""
    a = np.asarray_chkfinite(a)
    if a.size == 0:
        return np.empty_like(a), np.arange(0, dtype=np.int32)
    park()
    lu, piv, info = _flapack.dgetrf(a, overwrite_a=1)
    if info < 0:
        raise ValueError("illegal value in %dth argument of internal getrf "
                         "(lu_factor)" % -info)
    if info > 0:
        raise RuntimeError("singular matrix: pivot %d of its LU factor is "
                           "exactly zero" % info)
    return lu, piv


def null_space(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of a finite float64 matrix, as
    ``scipy.linalg.null_space(A)`` forms it: dgesdd with full matrices, and
    the singular values at most eps * max(m, n) of the largest dropped."""
    a = np.asarray_chkfinite(A)
    m, n = a.shape
    work, info = _flapack.dgesdd_lwork(m, n, compute_uv=1, full_matrices=1)
    if info:
        raise ValueError("dgesdd work size query failed: %d" % info)
    park()
    _, s, vh, info = _flapack.dgesdd(a, compute_uv=1, lwork=int(work),
                                     full_matrices=1)
    park()
    if info > 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    tol = np.amax(s, initial=0.0) * (np.finfo(s.dtype).eps * max(m, n))
    return vh[np.sum(s > tol, dtype=int):, :].T


class _Pool(NamedTuple):
    """The routines of one bundled OpenBLAS that act on its thread pool."""

    get: object         # scipy_openblas_get_num_threads: the count
    set: object         # scipy_openblas_set_num_threads
    shutdown: object    # blas_thread_shutdown_: stop the workers


def _lookup() -> tuple:
    """The ``_Pool`` of scipy's and of numpy's OpenBLAS; none if either
    library is missing or not loaded, or lacks one of the routines."""
    pools = []
    for package, libs, pattern, suffix in _OPENBLAS:
        path = _library(package, libs, pattern)
        if path is None:
            return ()
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            pool = _Pool(getattr(lib, "scipy_openblas_get_num_threads"
                                 + suffix),
                         getattr(lib, "scipy_openblas_set_num_threads"
                                 + suffix),
                         lib.blas_thread_shutdown_)
        except (AttributeError, OSError):
            return ()
        pool.get.argtypes, pool.get.restype = [], ctypes.c_int
        pool.set.argtypes, pool.set.restype = [ctypes.c_int], None
        pool.shutdown.argtypes, pool.shutdown.restype = [], ctypes.c_int
        pools.append(pool)
    return tuple(pools)


_POOLS = _lookup()


def park() -> None:
    """Stop the idle workers of both OpenBLAS pools, which would spin on the
    cores for about 0.1 s before they sleep. Does nothing where the pools
    cannot be reached (``_lookup``). Call it only while no other thread is
    in a BLAS call: the pools are the process's."""
    for pool in _POOLS:
        pool.shutdown()


@contextmanager
def blas_threads(n: int | None):
    """Run the ``with`` block with both OpenBLAS pools at n threads, or at
    their own counts if n is None, and park both pools when it ends, also
    on an exception. A pool whose count is not n is set to n for the block
    and set back after it; since the setter starts workers, both pools are
    then parked before the block too. A pool already at n is not set.
    Does nothing where the pools cannot be reached (``_lookup``). The
    counts are the process's: they apply to every thread's BLAS calls
    meanwhile."""
    counts = [] if n is None else [(pool, pool.get()) for pool in _POOLS]
    changed = [(pool, count) for pool, count in counts if count != n]
    try:
        for pool, _ in changed:
            pool.set(n)
        if changed:
            park()
        yield
    finally:
        for pool, count in changed:
            pool.set(count)
        park()


# The workers that each library started when it loaded.
park()
