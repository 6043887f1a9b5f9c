"""numpy's bundled OpenBLAS, bound with ``ctypes``, without any scipy module.

vtsi calls four LAPACK routines: dgesdd in set-up, and dgetrf, dgetrs and
dgesv for the steps. This module binds them with ``ctypes`` from the
OpenBLAS that numpy bundles and loads,
``numpy.libs/libscipy_openblas64_-*.so``, as its entry points
``scipy_dgesdd_64_``, ``scipy_dgetrf_64_`` and so on, with 64-bit
integers. So a run loads one OpenBLAS and imports no scipy module:
the ``scipy.linalg`` package's ``__init__`` imports numpy.f2py,
numpy.testing and numpy.random (21 MB of a run's peak memory), and its f2py
modules load scipy's own OpenBLAS, with a thread pool of its own. Where
numpy's library or one of the four symbols is missing, as under another
build of numpy, the routines are bound from the public
``scipy.linalg.lapack`` instead, at the address that each f2py wrapper
calls (its ``_cpointer``), with 32-bit integers.

A routine takes each of its Fortran arguments by address, as a
``c_void_p``: an array by its data, a scalar by a pointer to a ctypes value.
``svd`` calls dgesdd with the arguments of ``np.linalg.svd`` and
``lu_factor`` calls dgetrf as ``scipy.linalg.lu_factor`` does. ``getrs``
and ``gesv`` bind dgetrs and dgesv to arrays that the caller keeps and
rewrites between calls (``integrators.Stepper``), and return the bound
call, a ``functools.partial`` of the routine over its arguments: a call
costs what an f2py call costs. Building the arguments costs about as much
again: a default run that built them for every Schur solve took 3-13 %
more CPU time. Each checks its arrays' dtype, shape and layout, since a
wrong one would have the library read or write past it. Each pointer holds
what it points to (numpy's ``data_as`` holds the array, ``ctypes.cast`` the
value), so a bound call keeps its arrays alive.

numpy's OpenBLAS has one thread pool, sized by ``OPENBLAS_NUM_THREADS`` (at
most the core count) when it loads, and this module owns it. Before it
imports numpy it loads the library and looks up the routines that act on
the pool: the thread-count getter and setter,
``scipy_openblas_get_num_threads64_`` and ``_set_``, and
``blas_thread_shutdown_``, which the library runs before a fork. numpy's
import then finds its library loaded. Where the library or any of the
routines is missing, there is no pool to reach, and ``park`` and
``blas_threads`` do nothing.

The pool's idle workers spin for about 0.1 s of CPU each before they sleep:
after every threaded call, when the library loads, and when the setter
raises the count, which starts new workers. ``park`` stops them through
``blas_thread_shutdown_``; the pool restarts at its thread count on its
next threaded call, so no result changes. The workers that the library
starts when it loads are stopped at once, before numpy's import, through
which they would spin; ``vtsi`` imports this module first. After that the
pool is parked after ``blas_threads`` sets the count, and at the end of its
block, where a run's threaded work ends. A block at the pool's own count
sets nothing and parks only at its end: a setter call and the park after it
cost about 4 ms, a park after a threaded call about 0.1 ms.
"""
from __future__ import annotations

import ctypes
import glob
import importlib.util
import os
from contextlib import contextmanager
from functools import partial
from typing import NamedTuple

__all__ = ["blas_threads", "gesv", "getrs", "lu_factor", "park", "svd"]

# numpy's bundled OpenBLAS: its directory beside the package, its file
# name, and its symbols' suffix.
_LIBS, _PATTERN, _SUFFIX = "numpy.libs", "libscipy_openblas64_-*.so", "64_"


def _open():
    """numpy's bundled OpenBLAS, found without importing numpy, and loaded;
    None if it is missing, not alone in its directory, or fails to load."""
    spec = importlib.util.find_spec("numpy")
    found = [path for root in (spec.submodule_search_locations if spec
                               else ())
             for path in glob.glob(os.path.join(os.path.dirname(root),
                                                _LIBS, _PATTERN))]
    try:
        return ctypes.CDLL(found[0]) if len(found) == 1 else None
    except OSError:
        return None


class _Pool(NamedTuple):
    """The routines of the bundled OpenBLAS that act on its thread pool."""

    get: object         # scipy_openblas_get_num_threads64_: the count
    set: object         # scipy_openblas_set_num_threads64_
    shutdown: object    # blas_thread_shutdown_: stop the workers


def _lookup(lib):
    """The ``_Pool`` of ``_open``'s library; None if it is missing or lacks
    one of the routines."""
    name = "scipy_openblas_%s_num_threads" + _SUFFIX
    try:
        pool = _Pool(getattr(lib, name % "get"), getattr(lib, name % "set"),
                     lib.blas_thread_shutdown_)
    except AttributeError:
        return None
    pool.get.argtypes, pool.get.restype = [], ctypes.c_int
    pool.set.argtypes, pool.set.restype = [ctypes.c_int], None
    pool.shutdown.argtypes, pool.shutdown.restype = [], ctypes.c_int
    return pool


_LIBRARY = _open()
_POOL = _lookup(_LIBRARY)
if _POOL is not None:
    _POOL.shutdown()    # the workers that the library started when it loaded

import numpy as np  # noqa: E402  (after its OpenBLAS is parked)


# The four routines: each one's number of arguments.
_ROUTINES = {"dgetrf": 6, "dgetrs": 9, "dgesv": 8, "dgesdd": 14}


def _bind(lib) -> tuple:
    """The four routines, each taking its arguments' addresses, and the
    ctypes integer that they take: ``scipy_<name>_64_`` of numpy's bundled
    library and 64-bit integers, or where it or a symbol is missing, the
    routines that the f2py wrappers of the public ``scipy.linalg.lapack``
    call, at the address that f2py keeps in each wrapper's ``_cpointer``
    capsule, and 32-bit integers."""
    try:
        routines = [getattr(lib, "scipy_%s_%s" % (name, _SUFFIX))
                    for name in _ROUTINES]
        integer = ctypes.c_int64
    except AttributeError:
        from scipy.linalg import lapack
        address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                    ctypes.c_char_p)(
            ("PyCapsule_GetPointer", ctypes.pythonapi))
        routines = [ctypes.CFUNCTYPE(None)(address(
            getattr(lapack, name)._cpointer, None)) for name in _ROUTINES]
        integer = ctypes.c_int32
    for routine, arguments in zip(routines, _ROUTINES.values()):
        routine.argtypes = [ctypes.c_void_p] * arguments
        routine.restype = None
    return (*routines, integer)


dgetrf, dgetrs, dgesv, dgesdd, _INT = _bind(_LIBRARY)
# The routines' integer, as the dtype of the pivots.
_PIVOT = np.dtype(_INT)


def _address(value) -> ctypes.c_void_p:
    """The address of a ctypes value, holding the value."""
    return ctypes.cast(ctypes.pointer(value), ctypes.c_void_p)


def _int(n: int) -> ctypes.c_void_p:
    return _address(_INT(n))


def _data(a: np.ndarray, dtype=np.float64) -> ctypes.c_void_p:
    """The address of an aligned, Fortran-contiguous array's data, holding
    the array; ValueError for another dtype or layout."""
    if (a.dtype != dtype or not a.flags.f_contiguous
            or not a.flags.aligned):
        raise ValueError("LAPACK needs an aligned, Fortran-contiguous %s "
                         "array" % np.dtype(dtype))
    return a.ctypes.data_as(ctypes.c_void_p)


_NO_TRANS = _address(ctypes.c_char(b"N"))
_ALL = _address(ctypes.c_char(b"A"))


def svd(a: np.ndarray) -> tuple:
    """(s, vt) of a finite, nonempty float64 matrix by dgesdd, with the
    bits of ``np.linalg.svd(a)``: the singular values, and v^T in the
    Fortran-ordered array that LAPACK writes, where numpy returns a
    C-ordered copy. The call is numpy's: jobz 'A', a Fortran-ordered copy
    of ``a``, the workspace that a query returns (at least 1), and an
    iwork of 8 min(m, n). A matrix that is not finite raises RuntimeError,
    and so does an SVD that does not converge."""
    a = np.array(a, np.float64, order="F")
    if not np.isfinite(a).all():
        raise RuntimeError("matrix to decompose is not finite")
    m, n = a.shape
    k = min(m, n)
    if not k:
        raise ValueError("dgesdd needs a nonempty matrix")
    s = np.empty(k)
    u = np.empty((m, m), order="F")
    vt = np.empty((n, n), order="F")
    info = _INT()
    arguments = (_ALL, _int(m), _int(n), _data(a), _int(m), _data(s),
                 _data(u), _int(m), _data(vt), _int(n))
    iwork = _data(np.empty(8 * k, _PIVOT), _PIVOT)
    query = np.empty(1)
    dgesdd(*arguments, _data(query), _int(-1), iwork, _address(info))
    work = np.empty(max(1, int(query[0])))
    dgesdd(*arguments, _data(work), _int(len(work)), iwork, _address(info))
    if info.value < 0:
        raise ValueError("illegal value in %dth argument of internal gesdd"
                         % -info.value)
    if info.value > 0:
        raise RuntimeError("SVD did not converge")
    return s, vt


def lu_factor(a: np.ndarray):
    """(lu, piv) of a finite float64 matrix by dgetrf, as
    ``scipy.linalg.lu_factor(a, overwrite_a=True)`` returns them, but with
    pivots of the routines' integer type: a writable Fortran-ordered ``a``
    is factored in place, the pivots are 0-based, and an empty ``a`` gives
    empty factors. A matrix that is not finite raises RuntimeError, where
    scipy raises ValueError, and so does a zero pivot, where scipy only
    warns."""
    a = np.asarray(a)
    if not np.isfinite(a).all():
        raise RuntimeError("matrix to factor is not finite")
    if a.size == 0:
        return np.empty_like(a), np.arange(0, dtype=_PIVOT)
    lu = np.require(a, np.float64, ["F", "A", "W"])
    m, n = lu.shape
    piv = np.empty(min(m, n), _PIVOT)
    info = _INT()
    dgetrf(_int(m), _int(n), _data(lu), _int(m), _data(piv, _PIVOT),
           _address(info))
    if info.value < 0:
        raise ValueError("illegal value in %dth argument of internal getrf "
                         "(lu_factor)" % -info.value)
    if info.value > 0:
        raise RuntimeError("singular matrix: pivot %d of its LU factor is "
                           "exactly zero" % info.value)
    piv -= 1
    return lu, piv


def getrs(lu: np.ndarray, piv: np.ndarray, b: np.ndarray) -> partial:
    """dgetrs bound to overwrite b, Fortran-contiguous with n rows and one
    column or more, with lu^-1 b, for a factor ``(lu, piv)`` of
    ``lu_factor``; LAPACK's 1-based pivots are bound with it."""
    n = len(piv)
    if lu.shape != (n, n):
        raise ValueError("an LU factor is square, with a pivot per row")
    if b.shape[:1] != (n,):
        raise ValueError("right-hand sides need %d rows" % n)
    pivots = np.add(piv, 1, dtype=_PIVOT)     # LAPACK's, 1-based
    ld = _int(max(1, n))
    return partial(dgetrs, _NO_TRANS, _int(n), _int(b.size // max(1, n)),
                   _data(lu), ld, _data(pivots, _PIVOT), _data(b), ld,
                   _int(0))


def gesv(a: np.ndarray, b: np.ndarray) -> tuple:
    """dgesv bound to overwrite b with a^-1 b and a with its LU factor, for
    a Fortran-contiguous square a and b of its rows and one column or more;
    and the ctypes integer that receives each call's info, positive when a
    is singular."""
    n = len(a)
    if a.shape != (n, n) or b.shape[:1] != (n,):
        raise ValueError("dgesv needs a square matrix and its rows of b")
    info = _INT()
    ld = _int(max(1, n))
    return partial(dgesv, _int(n), _int(b.size // max(1, n)), _data(a), ld,
                   _data(np.empty(n, _PIVOT), _PIVOT), _data(b), ld,
                   _address(info)), info


def park() -> None:
    """Stop the idle workers of numpy's OpenBLAS pool, which would spin on
    the cores for about 0.1 s before they sleep. Does nothing where the
    pool cannot be reached (``_lookup``). Call it only while no other
    thread is in a BLAS call: the pool is the process's."""
    if _POOL is not None:
        _POOL.shutdown()


@contextmanager
def blas_threads(n: int | None):
    """Run the ``with`` block with numpy's OpenBLAS pool at n threads, or
    at its own count if n is None, and park the pool when the block ends,
    also on an exception. If its count is not n, it is set to n for the
    block and set back after it; since the setter starts workers, the pool
    is then parked before the block too. Does nothing where the pool cannot
    be reached (``_lookup``). The count is the process's: it applies to
    every thread's BLAS calls meanwhile."""
    count = n if n is None or _POOL is None else _POOL.get()
    try:
        if count != n:
            _POOL.set(n)
            park()
        yield
    finally:
        if count != n:
            _POOL.set(count)
        park()
