"""The producer process that tabulates a run's steps ahead of them
(``integrators.run_model``): a run writes the bytes it writes without one,
an exception in the producer reaches the caller at its block, and no
process of a run outlives it.

A run forks the producer when it steps on one BLAS thread, has more than
one block of steps, and the process may use a second CPU and runs one
Python thread. So a process that runs a second, idle, Python thread steps
the same scenarios in-process, and is the reference for the bytes. (One
pinned to a CPU before numpy's OpenBLAS loads, with ``taskset`` or a
``preexec_fn``, is no reference at two BLAS threads: the library caps its
pool at the CPUs that it may use when it loads, so such a process writes
the one-thread bytes. CI compares pinned runs.)
"""
import errno
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import vtsi.integrators as integ
from vtsi import parse_scenario
from vtsi.cli import cli
from vtsi.integrators import run_model, scheme_params
from vtsi.simulate import build_scenario_model

SRC = str(Path(integ.__file__).resolve().parents[1])

two_cpus = pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
    or len(os.sched_getaffinity(0)) < 2,
    reason="a run forks its producer only where it can use a second CPU")

# The scenarios that the bytes are compared on: {} and the benchmark's
# projected_fine_dt, FEM with strategy B, a damped bridge and the axle
# load, each shortened to one or two chunks of coefficient evaluations (CI
# runs the first two in full).
SCENARIOS = {
    "default": {"run": {"horizon": 0.3}},
    "projected_fine_dt": {"run": {"strategy": "C", "dt": 1e-4,
                                  "horizon": 0.06}},
    "fem-B": {"bridge": {"kind": "fem"},
              "run": {"strategy": "B", "horizon": 0.15}},
    "damped": {"bridge": {"rayleigh": [0.5, 1e-4]},
               "run": {"horizon": 0.15}},
    "axle-load": {"flags": {"add_static_axle_load": True},
                  "run": {"horizon": 0.15}},
}

# Runs each scenario through `vtsi run`'s entry point, then the rigid
# cosine profile of demos/rigid_cosine_profile.py, in one process, with a
# second Python thread if asked, and prints the CPU seconds of the
# processes that it forked and waited for.
RUNS = """
import json, resource, sys, threading
import numpy as np
from vtsi.cli import cli
from vtsi.integrators import run_rigid_profile, scheme_params
from vtsi.pathgeom import CosineProfile
from vtsi.vehicle import VehicleParams

out, names, mode = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3]
if mode == "threaded":
    threading.Thread(target=threading.Event().wait, daemon=True).start()
for name in names:
    assert cli(["run", "%s/%s.json" % (out, name), "-o",
                "%s/%s" % (out, name)]) == 0
hist = run_rigid_profile(VehicleParams(v=100.0),
                         CosineProfile(0.01, 30.0, 200.0),
                         scheme_params(rho_inf=0.9), 0.3)
np.save("%s/rigid.npy" % out, np.concatenate(
    (hist.ut, hist.vt, hist.at, hist.lam, hist.res_acc[:, None]), axis=1))
children = resource.getrusage(resource.RUSAGE_CHILDREN)
print(json.dumps(children.ru_utime + children.ru_stime))
"""


def _run_all(out: Path, threads: int, mode: str) -> float:
    """Run SCENARIOS and the rigid profile in a fresh process, ``threaded``
    or ``free``, writing into ``out``; the CPU seconds of its producers."""
    out.mkdir()
    for name, data in SCENARIOS.items():
        (out / ("%s.json" % name)).write_text(json.dumps(data))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", RUNS, str(out), json.dumps(list(SCENARIOS)),
         mode], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@two_cpus
@pytest.mark.parametrize("threads", [1, 2])
def test_producer_keeps_the_bytes(threads, tmp_path):
    free, alone = (_run_all(tmp_path / mode, threads, mode)
                   for mode in ("free", "threaded"))
    # Only the process with one Python thread forked producers.
    assert free > 0.0 and alone == 0.0
    for name in SCENARIOS:
        for output in ("timehistory.csv", "report.json"):
            assert ((tmp_path / "free" / name / output).read_bytes()
                    == (tmp_path / "threaded" / name / output)
                    .read_bytes()), (name, output)
    assert ((tmp_path / "free" / "rigid.npy").read_bytes()
            == (tmp_path / "threaded" / "rigid.npy").read_bytes())


@two_cpus
def test_one_cpu_steps_in_process(call_log):
    # A process that may use one CPU forms its tables itself, with the
    # bits of a run that forks its producer.
    model, params = _model(0.3)
    healthy = model.reduced_at

    def reduced_at(t):
        call_log.add(len(t))
        return healthy(t)

    model.reduced_at = reduced_at
    free = run_model(model, params, "A", 300)
    assert any(pid != os.getpid() for pid, _ in call_log.records())
    call_log.clear()
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        pinned = run_model(model, params, "A", 300)
    finally:
        os.sched_setaffinity(0, cpus)
    assert [pid for pid, _ in call_log.records()] == [os.getpid()] * 3
    for name in ("ut", "vt", "at", "lam", "res_disp", "res_vel", "res_acc"):
        assert np.array_equal(getattr(pinned, name), getattr(free, name))


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _model(horizon: float):
    scenario = parse_scenario({"run": {"horizon": horizon}})
    return build_scenario_model(scenario), scheme_params(rho_inf=0.9)


class Boom(Exception):
    """An exception that pickle cannot rebuild: its constructor takes two
    arguments, and its ``args`` hold one."""

    def __init__(self, what, where):
        super().__init__("%s at %s" % (what, where))


@two_cpus
class TestLifecycle:
    @pytest.mark.parametrize("error,want", [
        (ValueError("no vehicle in the second chunk"), ValueError),
        (Boom("no vehicle", "the second chunk"), RuntimeError),
    ], ids=["picklable", "unpicklable"])
    def test_producer_exception_reaches_its_block(self, error, want,
                                                  monkeypatch, call_log):
        # vehicle_at raises on its second call, the second chunk's: the
        # run steps the first chunk's blocks and raises the exception, as
        # the in-process run does. One that pickle cannot rebuild arrives
        # as a RuntimeError that names its type and message.
        model, params = _model(0.6)
        healthy = model.vehicle_at

        def vehicle_at(t):
            call_log.add(len(t))
            if len(call_log.read()) == 2:
                raise error
            return healthy(t)

        model.vehicle_at = vehicle_at
        stepped = []

        class Counting(integ.Stepper):
            def step(self, *args, **kwargs):
                stepped.append(1)
                return super().step(*args, **kwargs)

        monkeypatch.setattr(integ, "Stepper", Counting)
        n = 600
        with pytest.raises(want, match="no vehicle.*the second chunk") as e:
            run_model(model, params, "A", n)
        assert want is ValueError or "Boom" in str(e.value)
        forked = len(stepped)
        (pid, first), _ = call_log.records()
        assert pid != os.getpid()
        _no_child_left()

        call_log.clear()
        stepped.clear()
        monkeypatch.setattr(integ, "_may_fork", lambda: False)
        with pytest.raises(type(error), match="no vehicle.*second chunk"):
            run_model(model, params, "A", n)
        assert [pid for pid, _ in call_log.records()] == [os.getpid()] * 2
        assert len(stepped) == forked == first

    def test_steps_that_raise_stop_the_producer(self, monkeypatch, call_log):
        model, params = _model(0.6)
        healthy = model.reduced_at

        def reduced_at(t):
            call_log.add(len(t))
            return healthy(t)

        model.reduced_at = reduced_at

        class Failing(integ.Stepper):
            def step(self, state, *args, **kwargs):
                if state.t > 0.1:
                    raise RuntimeError("the steps failed")
                return super().step(state, *args, **kwargs)

        monkeypatch.setattr(integ, "Stepper", Failing)
        with pytest.raises(RuntimeError, match="the steps failed"):
            run_model(model, params, "A", 600)
        assert any(pid != os.getpid() for pid, _ in call_log.records())
        _no_child_left()

    def test_failed_fork_steps_in_process(self, monkeypatch, call_log):
        # Where no process can be forked, the run forms its tables itself,
        # with the same bits.
        model, params = _model(0.3)
        want = run_model(model, params, "A", 300)
        healthy = model.reduced_at

        def reduced_at(t):
            call_log.add(len(t))
            return healthy(t)

        def fork():
            raise OSError(errno.EAGAIN, "no process to spare")

        model.reduced_at = reduced_at
        monkeypatch.setattr(integ.os, "fork", fork)
        got = run_model(model, params, "A", 300)
        assert [pid for pid, _ in call_log.records()] == [os.getpid()] * 3
        for name in ("ut", "vt", "at", "lam", "res_disp", "res_vel",
                     "res_acc"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        _no_child_left()

    @pytest.mark.parametrize("code", [0, 2])
    def test_run_leaves_no_process(self, code, tmp_path, monkeypatch,
                                   call_log):
        # Exit 2: the coupling rows of step 50 on are not finite.
        healthy = integ.constraint_rates

        def rates(bridge, s, v):
            snap = healthy(bridge, s, v)
            call_log.add(len(snap.r))
            if code == 2 and len(snap.r) > 1:
                snap.rows.vals[49:] = np.nan
            return snap

        monkeypatch.setattr(integ, "constraint_rates", rates)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"run": {"horizon": 0.2}}))
        assert cli(["run", str(scenario), "-o", str(tmp_path / "out")]) \
            == code
        assert any(pid != os.getpid() for pid, _ in call_log.records())
        _no_child_left()


def _group(pgid: int) -> list:
    """The processes of a process group that are not zombies."""
    alive = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        state, _, group = stat[stat.rindex(")") + 2:].split()[:3]
        if int(group) == pgid and state != "Z":
            alive.append(int(entry.name))
    return alive


@two_cpus
@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="process groups are read from Linux's /proc")
def test_killed_run_leaves_no_process(tmp_path):
    # A long run in a session of its own; once its producer has started,
    # the run is killed, and its producer exits at the end of its pipe.
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"run": {"strategy": "C", "dt": 1e-4,
                                            "horizon": 1.0}}))
    run = subprocess.Popen(
        [sys.executable, "-m", "vtsi.cli", "run", str(scenario), "-o",
         str(tmp_path / "out")], env=dict(os.environ, PYTHONPATH=SRC),
        start_new_session=True)
    try:
        deadline = time.monotonic() + 60.0
        while len(_group(run.pid)) < 2:
            assert run.poll() is None, "the run ended before its producer"
            assert time.monotonic() < deadline
            time.sleep(0.005)
    finally:
        run.send_signal(signal.SIGKILL)
        run.wait(timeout=10)
    deadline = time.monotonic() + 2.0
    while _group(run.pid) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _group(run.pid) == []
