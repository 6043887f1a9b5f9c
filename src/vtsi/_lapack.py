"""scipy's bundled OpenBLAS, bound with ``ctypes``, without ``scipy.linalg``.

A run's set-up is numpy's, and its factor and steps are scipy's. vtsi calls
four routines of scipy's LAPACK and BLAS: dgetrf, dgetrs, dgesv and dgemv.
This module binds them with ``ctypes`` from scipy's bundled library,
``scipy.libs/libscipy_openblas-*.so``, as its entry points
``scipy_dgetrf_``, ``scipy_dgetrs_``, ``scipy_dgesv_`` and
``scipy_dgemv_``, with 32-bit integers: the routines that scipy's f2py
modules ``scipy.linalg._flapack`` and ``_fblas`` call. So no scipy module
is imported. The ``scipy.linalg`` package's ``__init__`` imports
numpy.f2py, numpy.testing and numpy.random (21 MB of a run's peak memory),
and the two f2py modules alone take 2.45 MB. Where the bundled library or
one of the four symbols is missing, as under another build of scipy, the
routines are bound from the public ``scipy.linalg.lapack`` and
``scipy.linalg.blas`` instead, at the address that each f2py wrapper calls
(its ``_cpointer``). Either way scipy's library runs with the arguments
that scipy passes it, so every result is scipy's bit for bit.

A routine takes each of its Fortran arguments by address, as a
``c_void_p``: an array by its data, a scalar by a pointer to a ctypes value.
``lu_factor`` calls dgetrf as ``scipy.linalg.lu_factor`` does. ``getrs``,
``gesv`` and ``gemv`` bind dgetrs, dgesv and dgemv to arrays that the
caller keeps and rewrites between calls (``integrators.Stepper``), and
return the bound call, a ``functools.partial`` of the routine over its
arguments: a call costs what an f2py call costs. Building the arguments
costs about as much again: a default run that built them for every Schur
solve took 3-13 % more CPU time. Each checks its arrays' dtype, shape and
layout, since a wrong one would have the library read or write past it.
Each pointer holds what it points to (numpy's ``data_as`` holds the array,
``ctypes.cast`` the value), so a bound call keeps its arrays alive.

numpy and scipy each bundle their own OpenBLAS, each with its own thread
pool, sized by ``OPENBLAS_NUM_THREADS`` (at most the core count) when it
loads. This module owns both pools. Before it imports numpy it loads both
libraries, once each, and looks up the routines of each that act on its
pool: the thread-count getter and setter
(``scipy_openblas_get_num_threads`` and ``_set_``, with the suffix ``64_``
in numpy's ``numpy.libs`` library, none in scipy's ``scipy.libs``) and
``blas_thread_shutdown_``, which each library runs before a fork. numpy's
import then finds its library loaded. Where either library or any of the
routines is missing, as under another build of numpy or scipy, the table is
empty and ``park`` and ``blas_threads`` do nothing.

A pool's idle workers spin for about 0.1 s of CPU each before they sleep:
after every threaded call, when the library loads, and when the setter
raises the count, which starts new workers. One pool's spinning workers
slowed the other's threaded calls on the same cores: a step block's factor
took 0.11 s where it needs 0.04 s. ``park`` stops both pools' workers
through ``blas_thread_shutdown_``; a pool restarts at its thread count on
its next threaded call, so no result changes. The workers that each
library starts when it loads are stopped at once, before numpy's import,
through which they would spin; ``vtsi`` imports this module first. After
that the pools are parked before ``lu_factor``'s dgetrf, where a run hands
its threaded work from numpy's pool to scipy's, after ``blas_threads`` sets
the counts, and at the end of its block, where a run's threaded work ends.
A block at the pools' own counts sets nothing and parks only at its end: a
setter call and the park after it cost about 4 ms, a park after a threaded
call about 0.1 ms.
"""
from __future__ import annotations

import ctypes
import glob
import importlib.util
import os
from contextlib import contextmanager
from functools import partial
from typing import NamedTuple

__all__ = ["blas_threads", "gemv", "gesv", "getrs", "lu_factor", "park"]

# Each bundled OpenBLAS: its package, its library's directory beside the
# package and file name, and its symbols' suffix.
_OPENBLAS = (("scipy", "scipy.libs", "libscipy_openblas-*.so", ""),
             ("numpy", "numpy.libs", "libscipy_openblas64_-*.so", "64_"))


def _open() -> tuple:
    """scipy's and numpy's bundled OpenBLAS, each found without importing
    its package, and loaded; None for one that is missing, not alone in
    its directory, or fails to load."""
    libraries = []
    for package, libs, pattern, _ in _OPENBLAS:
        spec = importlib.util.find_spec(package)
        found = [path for root in (spec.submodule_search_locations
                                   if spec else ())
                 for path in glob.glob(os.path.join(os.path.dirname(root),
                                                    libs, pattern))]
        try:
            libraries.append(ctypes.CDLL(found[0]) if len(found) == 1
                             else None)
        except OSError:
            libraries.append(None)
    return tuple(libraries)


class _Pool(NamedTuple):
    """The routines of one bundled OpenBLAS that act on its thread pool."""

    get: object         # scipy_openblas_get_num_threads: the count
    set: object         # scipy_openblas_set_num_threads
    shutdown: object    # blas_thread_shutdown_: stop the workers


def _lookup(libraries: tuple) -> tuple:
    """The ``_Pool`` of each of ``_open``'s libraries; None for one that is
    missing or lacks one of the routines."""
    pools = []
    for lib, (*_, suffix) in zip(libraries, _OPENBLAS):
        try:
            pool = _Pool(getattr(lib, "scipy_openblas_get_num_threads"
                                 + suffix),
                         getattr(lib, "scipy_openblas_set_num_threads"
                                 + suffix),
                         lib.blas_thread_shutdown_)
        except AttributeError:
            pools.append(None)
            continue
        pool.get.argtypes, pool.get.restype = [], ctypes.c_int
        pool.set.argtypes, pool.set.restype = [ctypes.c_int], None
        pool.shutdown.argtypes, pool.shutdown.restype = [], ctypes.c_int
        pools.append(pool)
    return tuple(pools)


_LIBRARIES = _open()
_pools = _lookup(_LIBRARIES)
# The workers that each library started when it loaded.
for _pool in filter(None, _pools):
    _pool.shutdown()
# vtsi sets and parks the pools only where it reaches both.
_POOLS = () if None in _pools else _pools

import numpy as np  # noqa: E402  (after its OpenBLAS is parked)


# The four routines: each one's number of arguments.
_ROUTINES = {"dgetrf": 6, "dgetrs": 9, "dgesv": 8, "dgemv": 11}


def _bind(lib) -> dict:
    """The four routines by name, each taking its arguments' addresses:
    ``scipy_<name>_`` of scipy's bundled library, or where it or a symbol
    is missing, the routines that the f2py wrappers of the public
    ``scipy.linalg.lapack`` and ``scipy.linalg.blas`` call, at the address
    that f2py keeps in each wrapper's ``_cpointer`` capsule."""
    try:
        routines = {name: getattr(lib, "scipy_%s_" % name)
                    for name in _ROUTINES}
    except AttributeError:
        from scipy.linalg import blas, lapack
        address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                    ctypes.c_char_p)(
            ("PyCapsule_GetPointer", ctypes.pythonapi))
        routines = {name: ctypes.CFUNCTYPE(None)(address(getattr(
            blas if name == "dgemv" else lapack, name)._cpointer, None))
            for name in _ROUTINES}
    for name, routine in routines.items():
        routine.argtypes = [ctypes.c_void_p] * _ROUTINES[name]
        routine.restype = None
    return routines


dgetrf, dgetrs, dgesv, dgemv = _bind(_LIBRARIES[0]).values()


def _address(value) -> ctypes.c_void_p:
    """The address of a ctypes value, holding the value."""
    return ctypes.cast(ctypes.pointer(value), ctypes.c_void_p)


def _int(n: int) -> ctypes.c_void_p:
    return _address(ctypes.c_int(n))


def _data(a: np.ndarray, dtype=np.float64) -> ctypes.c_void_p:
    """The address of an aligned, Fortran-contiguous array's data, holding
    the array; ValueError for another dtype or layout."""
    if (a.dtype != dtype or not a.flags.f_contiguous
            or not a.flags.aligned):
        raise ValueError("LAPACK and BLAS need an aligned, Fortran-"
                         "contiguous %s array" % np.dtype(dtype))
    return a.ctypes.data_as(ctypes.c_void_p)


_NO_TRANS, _TRANS = (_address(ctypes.c_char(c)) for c in (b"N", b"T"))
_ONE, _ZERO = (_address(ctypes.c_double(x)) for x in (1.0, 0.0))


def lu_factor(a: np.ndarray):
    """(lu, piv) of a finite float64 matrix by dgetrf, as
    ``scipy.linalg.lu_factor(a, overwrite_a=True)`` returns them: a
    writable Fortran-ordered ``a`` is factored in place, the pivots are
    0-based, and an empty ``a`` gives empty factors. A matrix that is not
    finite raises RuntimeError, where scipy raises ValueError, and so does
    a zero pivot, where scipy only warns."""
    a = np.asarray(a)
    if not np.isfinite(a).all():
        raise RuntimeError("matrix to factor is not finite")
    if a.size == 0:
        return np.empty_like(a), np.arange(0, dtype=np.int32)
    lu = np.require(a, np.float64, ["F", "A", "W"])
    m, n = lu.shape
    piv = np.empty(min(m, n), np.int32)
    info = ctypes.c_int()
    park()
    dgetrf(_int(m), _int(n), _data(lu), _int(m), _data(piv, np.int32),
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
    pivots = np.add(piv, 1, dtype=np.int32)     # LAPACK's, 1-based
    ld = _int(max(1, n))
    return partial(dgetrs, _NO_TRANS, _int(n), _int(b.size // max(1, n)),
                   _data(lu), ld, _data(pivots, np.int32), _data(b), ld,
                   _int(0))


def gesv(a: np.ndarray, b: np.ndarray) -> tuple:
    """dgesv bound to overwrite b with a^-1 b and a with its LU factor, for
    a Fortran-contiguous square a and b of its rows and one column or more;
    and the ``ctypes.c_int`` that receives each call's info, positive when
    a is singular."""
    n = len(a)
    if a.shape != (n, n) or b.shape[:1] != (n,):
        raise ValueError("dgesv needs a square matrix and its rows of b")
    info = ctypes.c_int()
    ld = _int(max(1, n))
    return partial(dgesv, _int(n), _int(b.size // max(1, n)), _data(a), ld,
                   _data(np.empty(n, np.int32), np.int32), _data(b), ld,
                   _address(info)), info


def gemv(a: np.ndarray, x: np.ndarray, y: np.ndarray) -> partial:
    """dgemv bound to set y = a @ x for a C-contiguous a and contiguous x
    and y: the transposed kernel on a's Fortran-ordered transpose, which
    numpy's ``a @ x`` calls, so the bits are numpy's. y's old values are
    not read (beta is 0)."""
    m, n = a.shape
    if x.shape != (n,) or y.shape != (m,):
        raise ValueError("dgemv needs x of a's columns and y of its rows")
    return partial(dgemv, _TRANS, _int(n), _int(m), _ONE, _data(a.T),
                   _int(max(1, n)), _data(x), _int(1), _ZERO, _data(y),
                   _int(1))


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

