"""vtsi's loader of scipy's compiled LAPACK and BLAS against ``scipy.linalg``.

``vtsi._lapack`` loads ``scipy.linalg._flapack`` and ``_fblas`` without the
``scipy.linalg`` package. Its ``null_space`` and ``lu_factor`` must give
scipy's bits on the matrices a run factors, since a last-bit change moves
the time history far beyond round-off.

``blas_threads`` runs a small bridge's steps on one BLAS thread. Below
``SERIAL_BRIDGE_DOFS`` the step's kernels must give the bits of the pinned
thread count, a measured property of the bundled OpenBLAS builds; the
tests of ``TestSerialSteps`` check it at whatever count the pools have.

``park`` stops the idle workers of both pools, which restart at the same
count on the next threaded call; ``TestPark`` counts them as the threads
of this process that Python did not start. Both act through one table of
each pool's routines, ``_lapack._POOLS``, looked up at import.
"""
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import vtsi
import vtsi.beams
import vtsi.integrators as integrators
from vtsi import _lapack, parse_scenario
from vtsi.cli import cli
from vtsi.integrators import SERIAL_BRIDGE_DOFS, _step_block
from vtsi.simulate import (build_scenario_bridge, build_scenario_model,
                           run_simulation, scenario_scheme)

FRESH_RUN = """
import sys

from vtsi.cli import cli

assert "scipy.linalg" not in sys.modules
before = set(sys.modules)
assert cli(["run", sys.argv[1], "-o", sys.argv[2]]) == 0
new = sorted(m for m in set(sys.modules) - before
             if m.partition(".")[0] == "numpy")
assert not new, new
assert "numpy.ma" not in sys.modules

import scipy.linalg
from vtsi import _lapack
assert scipy.linalg.lapack._flapack is _lapack._flapack
assert scipy.linalg.blas._fblas is _lapack._fblas
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


@pytest.mark.parametrize("elements", [1, 8, 32])
@pytest.mark.parametrize("kind", ["nurbs", "fem"])
def test_factors_equal_scipy(kind, elements, default_path, monkeypatch):
    supports, bases = [], []

    def recording(rows):
        supports.append(rows.copy())
        bases.append(_lapack.null_space(rows))
        return bases[-1]

    monkeypatch.setattr(vtsi.beams, "null_space", recording)
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
        assert np.array_equal(lu, want_lu) and np.array_equal(piv, want_piv)


def test_singular_factor_raises():
    with pytest.raises(RuntimeError, match="singular"):
        _lapack.lu_factor(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_empty_factor_equals_scipy():
    # A bridge whose supports fix every DOF has no reduced DOF to factor.
    a = np.empty((0, 0), order="F")
    lu, piv = _lapack.lu_factor(a)
    want_lu, want_piv = scipy.linalg.lu_factor(a)
    assert lu.shape == want_lu.shape and lu.dtype == want_lu.dtype
    assert np.array_equal(piv, want_piv) and piv.dtype == want_piv.dtype


def _thread_counts() -> list:
    """The thread count of scipy's and of numpy's OpenBLAS pool."""
    return [pool.get() for pool in _lapack._POOLS]


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
    counts = _thread_counts()
    if not counts:
        pytest.skip("the OpenBLAS pools cannot be reached")
    if max(counts) == 1:
        pytest.skip("the BLAS pools are pinned to one thread")
    return counts


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
            return ([_lapack.dgemv(1.0, A.T, x, trans=1)]
                    + [_lapack.dgetrs(lu, piv, b)[0] for b in rhs])

        want = kernels()
        with _lapack.blas_threads(1):
            assert _thread_counts() == [1, 1]
            got = kernels()
        assert _thread_counts() == pinned
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
    # Under another numpy or scipy build the lookup finds nothing, and the
    # pools stay as they are, which keeps the bits of every run.
    scenario = parse_scenario({"run": {"horizon": 0.03}})
    model = build_scenario_model(scenario, default_path)
    want = run_simulation(scenario, model)
    pools = _lapack._POOLS
    counts = [pool.get() for pool in pools]
    with monkeypatch.context() as patched:
        patched.setattr(_lapack, "_OPENBLAS", tuple(
            (package, libs, "no-such-" + pattern, suffix)
            for package, libs, pattern, suffix in _lapack._OPENBLAS))
        assert _lapack._lookup() == ()
    monkeypatch.setattr(_lapack, "_POOLS", ())
    with _lapack.blas_threads(1):
        assert [pool.get() for pool in pools] == counts
    assert _histories_equal(run_simulation(scenario, model), want)


def test_own_count_calls_no_setter(pinned, monkeypatch):
    # A setter call starts workers, and the park after it costs about 4 ms:
    # a block at the pools' own counts sets nothing.
    calls = []

    def recording(pool):
        def put(n):
            calls.append(n)
            pool.set(n)
        return pool._replace(set=put)

    monkeypatch.setattr(_lapack, "_POOLS",
                        tuple(map(recording, _lapack._POOLS)))
    with _lapack.blas_threads(None):
        assert _thread_counts() == pinned
    scipy_count, numpy_count = pinned
    if scipy_count == numpy_count:
        with _lapack.blas_threads(scipy_count):
            assert _thread_counts() == pinned
    assert calls == []
    with _lapack.blas_threads(1):
        assert _thread_counts() == [1, 1]
    assert calls == [1, 1, *pinned]


def _workers() -> int:
    """Threads of this process that Python did not start: the OpenBLAS
    pools' workers."""
    return len(os.listdir("/proc/self/task")) - threading.active_count()


@pytest.fixture
def parkable(pinned):
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("threads are counted through Linux's /proc")
    return pinned


def _wake_both_pools() -> None:
    """A threaded call in numpy's pool and then one in scipy's."""
    a = np.random.default_rng(0).standard_normal((300, 300))
    np.matmul(a, a)
    scipy.linalg.lu_factor(a)


class TestPark:
    """``park`` leaves no OpenBLAS worker behind, and no run's bits move."""

    def test_import_leaves_no_workers(self, parkable):
        proc = _fresh("import os, threading, vtsi\n"
                      "print(len(os.listdir('/proc/self/task'))"
                      " - threading.active_count())")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0"]

    def test_import_spins_no_workers(self, parkable):
        # numpy's OpenBLAS starts its workers when it loads; vtsi._lapack
        # loads it before numpy does and parks it, so they do not spin
        # through numpy's import. The workers' CPU is the process's (which
        # keeps that of exited threads) less the main thread's. When numpy
        # loaded the library it read 0.06-0.07 s with one worker on a 2-core
        # machine, whose process CPU time still did not exceed wall time.
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
        scipy_count, numpy_count = parkable
        _lapack.park()
        assert _workers() == 0
        _wake_both_pools()
        assert _workers() == scipy_count - 1 + numpy_count - 1
        _lapack.park()
        assert _workers() == 0
        # The factor parks numpy's pool before its threaded dgetrf.
        _wake_both_pools()
        _lapack.lu_factor(np.asfortranarray(np.eye(300) + 1.0))
        assert _workers() == scipy_count - 1
        _lapack.park()
        assert _workers() == 0

    def test_blas_threads_leaves_no_workers(self, parkable):
        _wake_both_pools()
        with _lapack.blas_threads(1):
            assert _workers() == 0
        assert _workers() == 0
        assert _thread_counts() == parkable
        # At the pools' own counts the block parks when it ends.
        with _lapack.blas_threads(None):
            _wake_both_pools()
            assert _workers() > 0
        assert _workers() == 0
        assert _thread_counts() == parkable

    @pytest.mark.parametrize("elements", [8, 32])
    def test_runs_leave_no_workers(self, elements, parkable, default_path):
        # Below SERIAL_BRIDGE_DOFS the steps run on one thread, from there
        # on at the pinned count; both end with the pools parked.
        scenario = parse_scenario({
            "bridge": {"elements_per_span": elements},
            "run": {"horizon": 0.03}})
        model = build_scenario_model(scenario, default_path)
        assert (model.n_b < SERIAL_BRIDGE_DOFS) == (elements == 8)
        _wake_both_pools()
        run_simulation(scenario, model)
        assert _workers() == 0
        assert _thread_counts() == parkable

    @pytest.mark.parametrize("elements", [8, 32])
    def test_run_equals_unparked_run(self, elements, parkable, tmp_path,
                                     monkeypatch):
        # At 32 elements per span the steps run on scipy's pool restarted
        # after the factor's park, and a one-thread pool would round
        # differently there.
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
        assert _thread_counts() == parkable

    def test_park_without_the_routine(self, parkable, default_path,
                                      monkeypatch):
        # Under an OpenBLAS that lacks one of the routines the lookup finds
        # nothing, the workers stay, and a run keeps its bits.
        with monkeypatch.context() as patched:
            patched.setattr(_lapack, "_OPENBLAS", tuple(
                (package, libs, pattern, "_no_such_routine")
                for package, libs, pattern, _ in _lapack._OPENBLAS))
            assert _lapack._lookup() == ()
        scenario = parse_scenario({"run": {"horizon": 0.03}})
        model = build_scenario_model(scenario, default_path)
        want = run_simulation(scenario, model)
        monkeypatch.setattr(_lapack, "_POOLS", ())
        _wake_both_pools()
        workers = _workers()
        assert workers > 0
        _lapack.park()
        assert _workers() == workers
        assert _histories_equal(run_simulation(scenario, model), want)
