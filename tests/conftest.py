"""Shared fixtures: expensive scenario runs are built once per session."""
import os
import pickle

import numpy as np
import pytest

from vtsi import parse_scenario, run_simulation
from vtsi.simulate import build_scenario_bridge, build_scenario_path


@pytest.fixture(scope="session")
def default_scenario():
    return parse_scenario({})


@pytest.fixture(scope="session")
def default_path(default_scenario):
    return build_scenario_path(default_scenario)


@pytest.fixture(scope="session")
def default_bridge(default_scenario, default_path):
    return build_scenario_bridge(default_scenario, default_path)


@pytest.fixture(scope="session")
def default_history(default_scenario):
    """Full default crossing: NURBS p=3, Strategy A, rho_inf=0.9, dt=1e-3."""
    return run_simulation(default_scenario)


@pytest.fixture(scope="session")
def fem_history():
    return run_simulation(parse_scenario({"bridge": {"kind": "fem"}}))


@pytest.fixture(scope="session")
def strategy_b_history():
    return run_simulation(parse_scenario(
        {"run": {"strategy": "B", "horizon": 0.9}}))


@pytest.fixture(scope="session")
def newmark_a_history():
    """Strategy A forced to plain Newmark (the spurious-oscillation baseline)."""
    return run_simulation(parse_scenario(
        {"run": {"newmark": True, "horizon": 0.9}}))


@pytest.fixture(scope="session")
def straight_span_scenario():
    def make(**run_overrides):
        return parse_scenario({
            "plan": {"spans": [{"kind": "straight", "length": 30.0}]},
            "bridge": {"kind": "fem"},
            "run": {"horizon": 0.3, **run_overrides},
        })
    return make


class CallLog:
    """Values that calls record, in this process or in a process that it
    forks, such as the producer that tabulates a run's steps ahead of them
    (``integrators.run_model``): each record is one write of a pickle, with
    the recording process's id, appended to a file."""

    def __init__(self, path):
        self.path = path

    def add(self, value) -> None:
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, pickle.dumps((os.getpid(), value)))
        finally:
            os.close(fd)

    def records(self) -> list:
        """(process id, value) of every record, in the order written."""
        out = []
        if os.path.exists(self.path):
            with open(self.path, "rb") as f:
                while True:
                    try:
                        out.append(pickle.load(f))
                    except EOFError:
                        return out
        return out

    def read(self) -> list:
        return [value for _, value in self.records()]

    def clear(self) -> None:
        if os.path.exists(self.path):
            os.unlink(self.path)


@pytest.fixture
def call_log(tmp_path):
    return CallLog(tmp_path / "calls.pickle")
