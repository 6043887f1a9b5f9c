"""vtsi's loader of scipy's compiled LAPACK and BLAS against ``scipy.linalg``.

``vtsi._lapack`` loads ``scipy.linalg._flapack`` and ``_fblas`` without the
``scipy.linalg`` package. Its ``null_space`` and ``lu_factor`` must give
scipy's bits on the matrices a run factors, since a last-bit change moves
the time history far beyond round-off.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import vtsi
import vtsi.beams
from vtsi import _lapack, parse_scenario
from vtsi.integrators import _step_block
from vtsi.simulate import build_scenario_bridge, scenario_scheme

FRESH_RUN = """
import sys

from vtsi.cli import cli

assert "scipy.linalg" not in sys.modules
before = set(sys.modules)
assert cli(["run", sys.argv[1], "-o", sys.argv[2]]) == 0
new = sorted(m for m in set(sys.modules) - before
             if m.partition(".")[0] == "numpy")
assert not new, new

import scipy.linalg
from vtsi import _lapack
assert scipy.linalg.lapack._flapack is _lapack._flapack
assert scipy.linalg.blas._fblas is _lapack._fblas
"""


def test_fresh_run_imports_no_scipy_linalg(tmp_path):
    # A fresh interpreter: the test session has imported scipy.linalg.
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"run": {"horizon": 0.02}}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(vtsi.__file__).parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", FRESH_RUN, str(scenario),
                           str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "timehistory.csv").is_file()


@pytest.mark.parametrize("elements", [1, 8, 32])
@pytest.mark.parametrize("kind", ["nurbs", "fem"])
def test_factors_equal_scipy(kind, elements, default_path, monkeypatch):
    supports = []

    def recording(rows):
        supports.append(rows.copy())
        return _lapack.null_space(rows)

    monkeypatch.setattr(vtsi.beams, "null_space", recording)
    scenario = parse_scenario({"bridge": {
        "kind": kind, "elements_per_span": elements}})
    br = build_scenario_bridge(scenario, default_path)
    rows, = supports
    want = scipy.linalg.null_space(rows)
    assert np.array_equal(br.Z, want) and br.Z.strides == want.strides

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
