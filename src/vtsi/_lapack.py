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
loads. ``blas_threads`` resizes both pools for the span of a ``with`` block
and then restores them, through the setters each library exports:
``scipy_openblas_set_num_threads`` in scipy's ``scipy.libs`` and
``scipy_openblas_set_num_threads64_`` in numpy's ``numpy.libs``. It opens
the libraries with ``RTLD_NOLOAD``: both are already loaded, and a library
that is not is left alone. Where either library or setter is missing, as
under another build of numpy or scipy, it does nothing.

A pool's idle workers spin for about 0.1 s of CPU each before they sleep:
after every threaded call, when the library loads, and when the setter
raises the count, which starts new workers. One pool's spinning workers
slowed the other's threaded calls on the same cores: on 2 cores a set-up
``null_space`` took 0.16-0.18 s where it needs 4 ms, and a step block's
factor 0.11 s where it needs 0.04 s. ``park`` stops both pools' workers
through ``blas_thread_shutdown_``, which each library exports and runs
before a fork; a pool restarts at its thread count on its next threaded
call, so no result changes. This module parks the pools at the end of its
import, around ``null_space``'s dgesdd, before ``lu_factor``'s dgetrf,
and after each count change of ``blas_threads``: the points where a run
hands its threaded work from one pool to the other. Where the routine is
missing, ``park`` does nothing.
"""
from __future__ import annotations

import ctypes
import glob
import importlib.machinery
import importlib.util
import os
import sys
from contextlib import contextmanager

import numpy as np

__all__ = ["blas_threads", "dgemv", "dgesv", "dgetrs", "lu_factor",
           "null_space", "park"]


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


# Each bundled OpenBLAS: its package, its library's directory beside the
# package and file name, and its symbols' suffix.
_OPENBLAS = (("scipy", "scipy.libs", "libscipy_openblas-*.so", ""),
             ("numpy", "numpy.libs", "libscipy_openblas64_-*.so", "64_"))


def _openblas_library(package: str, libs: str, pattern: str):
    """The path of a package's bundled OpenBLAS, or None."""
    spec = importlib.util.find_spec(package)
    for root in spec.submodule_search_locations if spec else ():
        found = glob.glob(os.path.join(os.path.dirname(root), libs, pattern))
        if len(found) == 1:
            return found[0]
    return None


def _routines(*names: str) -> list:
    """The named routines of scipy's and of numpy's OpenBLAS, each name
    with its library's suffix, a list per library; none if either library
    is missing or not loaded, or lacks one of them."""
    routines = []
    for package, libs, pattern, suffix in _OPENBLAS:
        path = _openblas_library(package, libs, pattern)
        if path is None:
            return []
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            routines.append([getattr(lib, name.format(suffix))
                             for name in names])
        except (AttributeError, OSError):
            return []
    return routines


def _pools() -> list:
    """(get, set) of the thread count of scipy's and of numpy's OpenBLAS
    pool; none if either library is missing or not loaded, or lacks them."""
    pools = []
    for get, put in _routines("scipy_openblas_get_num_threads{}",
                              "scipy_openblas_set_num_threads{}"):
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        pools.append((get, put))
    return pools


def _shutdowns() -> list:
    """blas_thread_shutdown_ of scipy's and of numpy's OpenBLAS, the routine
    each runs before a fork: it stops the pool's workers, and the pool
    restarts at its thread count on its next threaded call; none if either
    library or routine is missing."""
    shutdowns = []
    for shutdown, in _routines("blas_thread_shutdown_"):
        shutdown.argtypes, shutdown.restype = [], ctypes.c_int
        shutdowns.append(shutdown)
    return shutdowns


_SHUTDOWNS = _shutdowns()


def park() -> None:
    """Stop the idle workers of both OpenBLAS pools, which would spin on the
    cores for about 0.1 s before they sleep. Does nothing where the routine
    cannot be reached (``_shutdowns``). Call it only while no other thread
    is in a BLAS call: the pools are the process's."""
    for shutdown in _SHUTDOWNS:
        shutdown()


@contextmanager
def blas_threads(n: int):
    """Run the ``with`` block with both OpenBLAS pools at n threads, and
    restore each pool's count after it, also on an exception. Does nothing
    where the pools cannot be reached (``_pools``). The counts are the
    process's: they apply to every thread's BLAS calls meanwhile. The setter
    starts workers, so each count change is followed by ``park``."""
    pools = _pools()
    counts = [get() for get, _ in pools]
    try:
        for _, put in pools:
            put(n)
        park()
        yield
    finally:
        for (_, put), count in zip(pools, counts):
            put(count)
        park()


# The workers that each library started when it loaded.
park()
