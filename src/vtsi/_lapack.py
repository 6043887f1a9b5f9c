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
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

__all__ = ["dgemv", "dgesv", "dgetrs", "lu_factor", "null_space"]


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
    _, s, vh, info = _flapack.dgesdd(a, compute_uv=1, lwork=int(work),
                                     full_matrices=1)
    if info > 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    tol = np.amax(s, initial=0.0) * (np.finfo(s.dtype).eps * max(m, n))
    return vh[np.sum(s > tol, dtype=int):, :].T
