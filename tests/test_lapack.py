"""vtsi's bindings of numpy's bundled LAPACK against ``scipy.linalg``.

``vtsi._lapack`` binds four routines of numpy's bundled OpenBLAS with
``ctypes``, without any scipy module, or from the public
``scipy.linalg.lapack`` where that library is missing. Each binding is
checked against ``np.linalg.solve`` or ``np.linalg.svd``, which call the
same library, bit for bit, and against ``scipy.linalg``, whose OpenBLAS is
another build, within a stated tolerance and with equal pivots. The
support null space that ``vtsi.beams`` forms with the bound dgesdd must
give scipy's bits, strides included.

``blas_threads`` runs a small bridge's steps on one BLAS thread. Below
``SERIAL_BRIDGE_DOFS`` the step's kernels must give the bits of the pinned
thread count, a measured property of the bundled OpenBLAS build; the tests
of ``TestSerialSteps`` check it at whatever count the pool has.

``park`` stops the idle workers of numpy's pool, which restart at the same
count on the next threaded call; ``TestPark`` counts them as the threads
of this process that Python did not start, after it has parked the pool of
scipy's OpenBLAS, which this test session loads through ``scipy.linalg``
and vtsi does not own. Both act through the routines of the pool,
``_lapack._POOL``, looked up at import from the library that ``_lapack``
loads, once, before numpy's import.
"""
import ctypes
import functools
import glob
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.linalg
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import vtsi
import vtsi.beams
import vtsi.integrators as integrators
from vtsi import _lapack, parse_scenario
from vtsi.cli import cli
from vtsi.integrators import SCHUR_COLUMNS, SERIAL_BRIDGE_DOFS, _step_block
from vtsi.simulate import (build_scenario_bridge, build_scenario_model,
                           run_simulation, scenario_scheme)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=4,
                    suppress_health_check=[HealthCheck.too_slow])

# numpy's and scipy's OpenBLAS builds round dgetrf differently. On random
# matrices of the sizes below, at 1 and 2 threads, the factors differed by
# at most 5.9e-13 of max|LU|, with equal pivots, and the step blocks'
# factors of test_factors_equal_scipy by at most 1.1e-19; a solve on vtsi's
# factor, by dgetrs, had the bits of scipy's ``lu_solve`` on the same
# factor. Each is checked to 1e-11 of the largest entry, a margin of 17
# over the largest deviation.
TOL = 1e-11

# The libraries mapped into this process whose file name starts so.
MAPPED = """
def mapped(prefix):
    with open("/proc/self/maps") as maps:
        return {line.split()[-1] for line in maps
                if line.split()[-1].rpartition("/")[2].startswith(prefix)}
"""

# Counts the libraries that ctypes loads, by path, from here on.
OPENED = """
import ctypes

CDLL, opened = ctypes.CDLL, []


class Counted(CDLL):
    def __init__(self, name, *args, **kwargs):
        opened.append(name)
        super().__init__(name, *args, **kwargs)


ctypes.CDLL = Counted


def openblas():
    return sorted(path.rpartition("/")[2].partition("-")[0]
                  for path in opened if "openblas" in path)
"""

FRESH_RUN = MAPPED + OPENED + """
import os, sys

from vtsi.cli import cli

before = set(sys.modules)
assert cli(["run", sys.argv[1], "-o", sys.argv[2]]) == 0
new = sorted(m for m in set(sys.modules) - before
             if m.partition(".")[0] == "numpy")
assert not new, new
assert "numpy.ma" not in sys.modules
imported = [m for m in sys.modules if m.partition(".")[0] == "scipy"]
assert not imported, imported
# numpy's bundled OpenBLAS is loaded once, and no other OpenBLAS is mapped.
assert openblas() == ["libscipy_openblas64_"], opened
if os.path.isfile("/proc/self/maps"):
    libraries = mapped("libscipy_openblas")
    assert [path.rpartition("/")[2].partition("-")[0]
            for path in libraries] == ["libscipy_openblas64_"], libraries
"""

# As FRESH_RUN, with numpy's bundled OpenBLAS hidden from vtsi._lapack's
# lookup: the routines come from the public scipy.linalg.lapack, with
# 32-bit integers, and the pools, which vtsi cannot reach, are left alone.
# The threads left are the workers that numpy's library and scipy's, which
# the public modules load, each start when they load.
FALLBACK_RUN = OPENED + """
import glob, importlib.util, os, sys, threading

find = glob.glob
glob.glob = lambda pattern, **kwargs: (
    [] if "libscipy_openblas64_-" in pattern else find(pattern, **kwargs))

from vtsi import _lapack
from vtsi.cli import cli

glob.glob = find
assert _lapack._POOL is None and _lapack._INT is ctypes.c_int32
assert openblas() == [], opened
if os.path.isdir("/proc/self/task"):
    workers = len(os.listdir("/proc/self/task")) - threading.active_count()
    counts = []
    for package, pattern, suffix in (
            ("numpy", "libscipy_openblas64_-*.so", "64_"),
            ("scipy", "libscipy_openblas-*.so", "")):
        root = os.path.dirname(importlib.util.find_spec(package).origin)
        path, = find(os.path.join(os.path.dirname(root), package + ".libs",
                                  pattern))
        pool = CDLL(path, mode=os.RTLD_NOLOAD)
        counts.append(getattr(pool, "scipy_openblas_get_num_threads"
                              + suffix)())
    assert workers == sum(count - 1 for count in counts), (workers, counts)
from scipy.linalg import lapack
address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                            ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))
for name in ("dgetrf", "dgetrs", "dgesv", "dgesdd"):
    routine = ctypes.cast(getattr(_lapack, name), ctypes.c_void_p)
    assert routine.value == address(getattr(lapack, name)._cpointer,
                                    None), name
assert cli(["run", sys.argv[1], "-o", sys.argv[2]]) == 0
"""


def _fresh(code: str, *args) -> subprocess.CompletedProcess:
    """``code`` run in a fresh interpreter that imports this vtsi."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(vtsi.__file__).parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, text=True,
                          timeout=120)


def test_fresh_run_imports_no_scipy_linalg(tmp_path):
    # A fresh interpreter: the test session has imported scipy.linalg.
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"run": {"horizon": 0.02}}))
    proc = _fresh(FRESH_RUN, scenario, tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "timehistory.csv").is_file()


@pytest.mark.parametrize("case", [
    {"run": {"horizon": 0.05}},
    {"bridge": {"kind": "fem"}, "run": {"strategy": "B", "horizon": 0.05}},
], ids=["default", "fem-B"])
def test_public_fallback_keeps_the_bytes(case, tmp_path):
    # Without the bundled library the steps also keep the pinned thread
    # count, whose bits below SERIAL_BRIDGE_DOFS are those of one thread.
    # scipy's build factors the NURBS step block with other bits in its
    # smallest entries (1e-26 of the largest), which leave these outputs'
    # bytes as they are.
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(case))
    for code, out in ((FRESH_RUN, "bundled"), (FALLBACK_RUN, "public")):
        proc = _fresh(code, scenario, tmp_path / out)
        assert proc.returncode == 0, proc.stderr
    assert ((tmp_path / "public" / "timehistory.csv").read_bytes()
            == (tmp_path / "bundled" / "timehistory.csv").read_bytes())


# The bound calls, as a step makes them.

def _solve(lu, piv, b):
    """lu^-1 b through dgetrs, on a Fortran-ordered copy of b."""
    x = np.array(b, order="F")
    _lapack.getrs(lu, piv, x)()
    return x


def _gesv(a, b):
    """a^-1 b through dgesv, on Fortran-ordered copies, and its info."""
    a, x = np.array(a, order="F"), np.array(b, order="F")
    solve, info = _lapack.gesv(a, x)
    solve()
    return x, info.value


@functools.cache
def _random_factor(n: int) -> tuple:
    """The LU factor of a random n x n matrix, by lu_factor."""
    a = np.random.default_rng(n).standard_normal((n, n))
    return _lapack.lu_factor(np.asfortranarray(a))


def bits(a: np.ndarray) -> np.ndarray:
    """The bits of a float64 array, so that -0.0 differs from +0.0."""
    return np.ascontiguousarray(a).view(np.int64)


def close(got: np.ndarray, want: np.ndarray) -> bool:
    """got and want agree to TOL of want's largest entry."""
    return (got.shape == want.shape
            and np.abs(got - want).max(initial=0.0)
            <= TOL * np.abs(want).max(initial=0.0))


class TestBindings:
    """Each binding against ``np.linalg.solve`` or ``scipy.linalg``, and
    ``beams``' null space against ``scipy.linalg``, at the sizes of the
    step's systems (7) and of reduced bridges at 8, 16 and 32 elements per
    span (234, 474 and 954), at the pinned BLAS thread count."""

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 234, 474, 954])
    @SETTINGS
    @given(k=st.integers(1, 9), order=st.sampled_from("CF"),
           seed=st.integers(0, 2 ** 32 - 1))
    # The widest solve at every size: at n_red 954 a threaded 9-column
    # dgetrs reads the pivots that the bound call holds, after any
    # temporary of the call's set-up is gone.
    @example(k=9, order="C", seed=0)
    def test_square_systems_equal_scipy(self, n, k, order, seed):
        rng = np.random.default_rng(seed)
        A = np.array(rng.standard_normal((n, n)), order=order)
        b = np.array(rng.standard_normal((n, k)), order=order)

        a = A.copy(order="K")
        lu, piv = _lapack.lu_factor(a)
        # A Fortran-ordered matrix is factored in place.
        assert np.shares_memory(lu, a) == (a.flags.f_contiguous and n > 0)
        want_lu, want_piv = scipy.linalg.lu_factor(A)
        assert np.array_equal(piv, want_piv) and piv.dtype == _lapack._PIVOT
        assert close(lu, want_lu)
        for rhs in (b, b[:, 0]):
            got = _solve(lu, piv, rhs)
            # scipy's f2py wrappers reject empty arrays.
            assert close(got, scipy.linalg.lu_solve((lu, piv), rhs)
                         if n else np.empty(rhs.shape))

        # dgesv is the routine that np.linalg.solve calls, in the same
        # library.
        got, info = _gesv(A, b)
        assert info == 0
        assert np.array_equal(bits(got), bits(np.linalg.solve(A, b)))

    # A one-column solve is not padded: dgetrs solves it by another kernel
    # (trsv, not trsm), which rounds differently.
    @pytest.mark.parametrize("k", range(2, SCHUR_COLUMNS + 1))
    @pytest.mark.parametrize("n", [7, 234, 474, 954])
    @SETTINGS
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_padded_solve_keeps_the_bits(self, n, k, seed):
        # A step solves each block of Schur columns as the SCHUR_COLUMNS
        # columns of one buffer, zero past those in use: the columns in use
        # keep the bits of a solve of those alone.
        lu, piv = _random_factor(n)
        b = np.random.default_rng(seed).standard_normal((n, k))
        padded = np.zeros((n, SCHUR_COLUMNS), order="F")
        padded[:, :k] = b
        _lapack.getrs(lu, piv, padded)()
        assert np.array_equal(bits(padded[:, :k]), bits(_solve(lu, piv, b)))

    @pytest.mark.parametrize("n", [1, 2, 7, 234, 474, 954])
    @SETTINGS
    @given(rows=st.integers(1, 12), rank=st.integers(0, 12),
           order=st.sampled_from("CF"), seed=st.integers(0, 2 ** 32 - 1))
    @example(rows=12, rank=5, order="C", seed=0)
    def test_null_spaces_equal_scipy(self, n, rows, rank, order, seed):
        # Wide rows of a rank below their count, as support rows can be.
        rng = np.random.default_rng(seed)
        m = min(rows, n)
        r = min(rank, m)
        G = np.array(rng.standard_normal((m, r)) @ rng.standard_normal((r, n)),
                     order=order)
        got = vtsi.beams._null_space(G)
        want = scipy.linalg.null_space(G)
        assert np.array_equal(bits(got), bits(want))
        assert got.strides == want.strides

    def test_svd_equals_numpy(self):
        # The bits of np.linalg.svd, which calls the same routine of the
        # same library with the same arguments; v^T as LAPACK writes it.
        G = np.random.default_rng(0).standard_normal((24, 978))
        s, vt = _lapack.svd(G)
        _, want_s, want_vt = np.linalg.svd(G)
        assert np.array_equal(bits(s), bits(want_s))
        assert np.array_equal(bits(vt), bits(want_vt))
        assert vt.flags.f_contiguous
        with pytest.raises(RuntimeError, match="not finite"):
            _lapack.svd(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError, match="nonempty"):
            _lapack.svd(np.empty((0, 3)))

    def test_singular_saddle_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert _gesv(a, np.ones(2))[1] == 2

    def test_arguments_check_their_arrays(self):
        # A wrong layout, dtype or shape would have the library read or
        # write past an array.
        factor = _lapack.lu_factor(np.eye(3))
        with pytest.raises(ValueError, match="Fortran-contiguous"):
            _lapack.gesv(np.eye(3), np.ones((3, 2)))
        with pytest.raises(ValueError, match="float64"):
            _lapack.getrs(*factor, np.ones(3, np.float32))
        with pytest.raises(ValueError, match="Fortran-contiguous"):
            _lapack.getrs(*factor, np.ones(6)[::2])
        with pytest.raises(ValueError, match="rows"):
            _lapack.getrs(*factor, np.ones(4))


@pytest.mark.parametrize("elements", [1, 8, 32])
@pytest.mark.parametrize("kind", ["nurbs", "fem"])
def test_factors_equal_scipy(kind, elements, default_path, monkeypatch):
    supports, bases = [], []

    def recording(rows):
        supports.append(rows.copy())
        bases.append(null_space(rows))
        return bases[-1]

    null_space = vtsi.beams._null_space
    monkeypatch.setattr(vtsi.beams, "_null_space", recording)
    scenario = parse_scenario({"bridge": {
        "kind": kind, "elements_per_span": elements}})
    br = build_scenario_bridge(scenario, default_path)
    (rows,), (basis,) = supports, bases
    # Set-up reduces by the dense basis, and the bridge keeps its rows.
    want = scipy.linalg.null_space(rows)
    assert np.array_equal(basis, want) and basis.strides == want.strides
    assert np.array_equal(br.Z[np.arange(br.n_full)].view(np.int64),
                          basis.view(np.int64))

    newmark = parse_scenario({"run": {"strategy": "C"}})
    for params in (scenario_scheme(scenario), scenario_scheme(newmark)):
        block = _step_block(br, params, False)
        want_lu, want_piv = scipy.linalg.lu_factor(block)
        lu, piv = _lapack.lu_factor(block)
        assert np.array_equal(piv, want_piv) and close(lu, want_lu)


def test_singular_factor_raises():
    with pytest.raises(RuntimeError, match="^singular matrix: pivot 2 of "
                       "its LU factor is exactly zero$"):
        _lapack.lu_factor(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_empty_factor_equals_scipy():
    # A bridge whose supports fix every DOF has no reduced DOF to factor.
    # Its pivots have the routines' integer type, as every factor's.
    a = np.empty((0, 0), order="F")
    lu, piv = _lapack.lu_factor(a)
    want_lu, want_piv = scipy.linalg.lu_factor(a)
    assert lu.shape == want_lu.shape and lu.dtype == want_lu.dtype
    assert np.array_equal(piv, want_piv) and piv.dtype == _lapack._PIVOT


def _thread_count():
    """The thread count of numpy's OpenBLAS pool; None where it cannot be
    reached."""
    return _lapack._POOL.get() if _lapack._POOL is not None else None


def _histories_equal(a, b) -> bool:
    columns = ("t", "ut", "vt", "at", "lam", "res_disp", "res_vel",
               "res_acc")
    return (all(np.array_equal(getattr(a, c), getattr(b, c))
                for c in columns)
            and a.probes.keys() == b.probes.keys()
            and all(np.array_equal(a.probes[k], b.probes[k])
                    for k in a.probes))


@pytest.fixture(scope="module")
def pinned():
    count = _thread_count()
    if count is None:
        pytest.skip("the OpenBLAS pool cannot be reached")
    if count == 1:
        pytest.skip("the BLAS pool is pinned to one thread")
    return count


class TestSerialSteps:
    """The kernels and runs below SERIAL_BRIDGE_DOFS keep their bits on
    one BLAS thread."""

    @pytest.mark.parametrize("n", [*range(96, SERIAL_BRIDGE_DOFS, 30),
                                   SERIAL_BRIDGE_DOFS - 1])
    def test_step_kernels_keep_their_bits(self, n, pinned):
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n))
        x = rng.standard_normal(n)
        lu, piv = _lapack.lu_factor(np.asfortranarray(A + n * np.eye(n)))
        rhs = [np.asfortranarray(rng.standard_normal((n, k)))
               for k in (1, 3, 9)]

        def kernels():
            # A @ x as the step forms it, and its bridge solves.
            return [A @ x] + [_solve(lu, piv, b) for b in rhs]

        want = kernels()
        with _lapack.blas_threads(1):
            assert _thread_count() == 1
            got = kernels()
        assert _thread_count() == pinned
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("elements", [16, 20])
    def test_serial_run_equals_pinned_run(self, elements, default_path,
                                          pinned, monkeypatch):
        scenario = parse_scenario({
            "bridge": {"elements_per_span": elements},
            "run": {"horizon": 0.03}})
        model = build_scenario_model(scenario, default_path)
        assert model.n_b < SERIAL_BRIDGE_DOFS
        serial = run_simulation(scenario, model)
        monkeypatch.setattr(integrators, "SERIAL_BRIDGE_DOFS", 0)
        assert _histories_equal(serial, run_simulation(scenario, model))


def test_blas_threads_without_the_libraries(default_path, monkeypatch):
    # Under another numpy build the lookup finds nothing, and the pool
    # stays as it is, which keeps the bits of every run.
    scenario = parse_scenario({"run": {"horizon": 0.03}})
    model = build_scenario_model(scenario, default_path)
    want = run_simulation(scenario, model)
    pool, count = _lapack._POOL, _thread_count()
    with monkeypatch.context() as patched:
        patched.setattr(_lapack, "_PATTERN", "no-such-" + _lapack._PATTERN)
        assert _lapack._open() is None
    assert _lapack._lookup(None) is None
    monkeypatch.setattr(_lapack, "_POOL", None)
    with _lapack.blas_threads(1):
        assert pool is None or pool.get() == count
    assert _histories_equal(run_simulation(scenario, model), want)


def test_own_count_calls_no_setter(pinned, monkeypatch):
    # A setter call starts workers, and the park after it costs about 4 ms:
    # a block at the pool's own count sets nothing.
    calls, pool = [], _lapack._POOL

    def put(n):
        calls.append(n)
        pool.set(n)

    monkeypatch.setattr(_lapack, "_POOL", pool._replace(set=put))
    for n in (None, pinned):
        with _lapack.blas_threads(n):
            assert _thread_count() == pinned
    assert calls == []
    with _lapack.blas_threads(1):
        assert _thread_count() == 1
    assert calls == [1, pinned]


@functools.cache
def _scipy_shutdown():
    """``blas_thread_shutdown_`` of scipy's bundled OpenBLAS, which this
    test session loads through ``scipy.linalg``; a no-op where it is not
    loaded or lacks the routine."""
    found = glob.glob(os.path.join(
        os.path.dirname(os.path.dirname(scipy.__file__)), "scipy.libs",
        "libscipy_openblas-*.so"))
    try:
        return ctypes.CDLL(found[0],
                           mode=os.RTLD_NOLOAD).blas_thread_shutdown_
    except (IndexError, OSError, AttributeError):
        return lambda: 0


def _workers() -> int:
    """Threads of this process that Python did not start, with scipy's
    OpenBLAS pool parked first: the workers of numpy's pool."""
    _scipy_shutdown()()
    return len(os.listdir("/proc/self/task")) - threading.active_count()


@pytest.fixture
def parkable(pinned):
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("threads are counted through Linux's /proc")
    return pinned


def _wake_pool() -> None:
    """A threaded call in numpy's pool."""
    a = np.random.default_rng(0).standard_normal((300, 300))
    np.matmul(a, a)


class TestPark:
    """``park`` leaves no OpenBLAS worker behind, and no run's bits move."""

    def test_import_leaves_no_workers(self, parkable):
        proc = _fresh("import os, threading, vtsi\n"
                      "print(len(os.listdir('/proc/self/task'))"
                      " - threading.active_count())")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0"]

    def test_import_spins_no_workers(self, parkable):
        # numpy's bundled OpenBLAS starts its workers when it loads;
        # vtsi._lapack loads it before numpy's import and parks them, so
        # they do not spin through numpy's import. The workers' CPU is the
        # process's (which keeps that of exited threads) less the main
        # thread's. When numpy loaded the library it read 0.06-0.07 s with
        # one worker on a 2-core machine, whose process CPU time still did
        # not exceed wall time.
        proc = _fresh(
            "import os, time\n"
            "def ticks(path):\n"
            "    stat = open(path).read().rsplit(')', 1)[1].split()\n"
            "    return int(stat[11]) + int(stat[12])\n"
            "wall, cpu = time.perf_counter(), time.process_time()\n"
            "import vtsi.cli\n"
            "wall, cpu = time.perf_counter() - wall, time.process_time() - cpu\n"
            "workers = (ticks('/proc/self/stat')\n"
            "           - ticks('/proc/self/task/%d/stat' % os.getpid()))\n"
            "print(cpu - wall, workers / os.sysconf('SC_CLK_TCK'))")
        assert proc.returncode == 0, proc.stderr
        excess, workers = map(float, proc.stdout.split())
        assert excess <= 0.03
        assert workers <= 0.03

    def test_threaded_calls_restart_parked_pools(self, parkable):
        _lapack.park()
        assert _workers() == 0
        _wake_pool()
        assert _workers() == parkable - 1
        _lapack.park()
        assert _workers() == 0
        # The factor's threaded dgetrf runs in the same pool.
        _lapack.lu_factor(np.asfortranarray(np.eye(300) + 1.0))
        assert _workers() == parkable - 1
        _lapack.park()
        assert _workers() == 0

    def test_blas_threads_leaves_no_workers(self, parkable):
        _wake_pool()
        with _lapack.blas_threads(1):
            assert _workers() == 0
        assert _workers() == 0
        assert _thread_count() == parkable
        # At the pool's own count the block parks when it ends.
        with _lapack.blas_threads(None):
            _wake_pool()
            assert _workers() > 0
        assert _workers() == 0
        assert _thread_count() == parkable

    @pytest.mark.parametrize("elements", [8, 32])
    def test_runs_leave_no_workers(self, elements, parkable, default_path):
        # Below SERIAL_BRIDGE_DOFS the steps run on one thread, from there
        # on at the pinned count; both end with the pool parked.
        scenario = parse_scenario({
            "bridge": {"elements_per_span": elements},
            "run": {"horizon": 0.03}})
        model = build_scenario_model(scenario, default_path)
        assert (model.n_b < SERIAL_BRIDGE_DOFS) == (elements == 8)
        _wake_pool()
        run_simulation(scenario, model)
        assert _workers() == 0
        assert _thread_count() == parkable

    @pytest.mark.parametrize("elements", [8, 32])
    def test_run_equals_unparked_run(self, elements, parkable, tmp_path,
                                     monkeypatch):
        # At 32 elements per span the steps run at the pinned count, on
        # workers that set-up's threaded calls restarted, and a one-thread
        # pool would round differently there.
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "bridge": {"elements_per_span": elements},
            "run": {"horizon": 0.03}}))

        def history(out: str) -> bytes:
            assert cli(["run", str(scenario), "-o",
                        str(tmp_path / out)]) == 0
            return (tmp_path / out / "timehistory.csv").read_bytes()

        with monkeypatch.context() as patched:
            patched.setattr(_lapack, "park", lambda: None)
            unparked = history("unparked")
        assert history("parked") == unparked
        assert _thread_count() == parkable

    def test_park_without_the_routine(self, parkable, default_path,
                                      monkeypatch):
        # Under an OpenBLAS that lacks one of the routines the lookup finds
        # nothing, the workers stay, and a run keeps its bits.
        with monkeypatch.context() as patched:
            patched.setattr(_lapack, "_SUFFIX", "_no_such_routine")
            assert _lapack._lookup(_lapack._LIBRARY) is None
        scenario = parse_scenario({"run": {"horizon": 0.03}})
        model = build_scenario_model(scenario, default_path)
        want = run_simulation(scenario, model)
        monkeypatch.setattr(_lapack, "_POOL", None)
        _wake_pool()
        workers = _workers()
        assert workers > 0
        _lapack.park()
        assert _workers() == workers
        assert _histories_equal(run_simulation(scenario, model), want)
