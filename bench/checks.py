"""Output checks applied to every benchmark repetition.

At seed 0 a workload's ``timehistory.csv`` must match the committed
reference ``reference/<workload>.csv.gz``: identical sha256, or else a max
relative deviation of at most ``REL_TOL`` (a different BLAS build or thread
count may change the last bits). Every seed must give a ``report.json``
whose numbers are all finite, with constraint residuals of at most
``RESIDUAL_TOL`` under strategy C (acceptance criterion 6).
"""
from __future__ import annotations

import gzip
import hashlib
import io
import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9
RESIDUAL_TOL = 1e-9


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parse_csv(data: bytes) -> np.ndarray:
    return np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1, ndmin=2)


def max_rel_deviation(values: np.ndarray, ref: np.ndarray) -> float:
    """Largest |values - ref| relative to each column's largest |ref|;
    columns that are zero in ``ref`` compare absolutely."""
    if values.shape != ref.shape:
        return math.inf
    scale = np.max(np.abs(ref), axis=0)
    scale[scale == 0.0] = 1.0
    return float(np.max(np.abs(values - ref) / scale))


def reference_csv(workload: str) -> bytes:
    return gzip.decompress((REFERENCE_DIR / ("%s.csv.gz" % workload)).read_bytes())


def csv_check(data: bytes, reference: bytes):
    """``(note, problems)``: the note says whether ``data`` has the
    reference's sha256 and, if not, its max relative deviation; ``problems``
    is empty when it matches within ``REL_TOL``."""
    if sha256(data) == sha256(reference):
        return "sha256 matches the reference", []
    dev = max_rel_deviation(parse_csv(data), parse_csv(reference))
    note = "sha256 differs from the reference, max relative deviation %.3g" % dev
    return note, ([] if dev <= REL_TOL else [note + " (limit %g)" % REL_TOL])


def _numbers(obj, key=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _numbers(v, "%s.%s" % (key, k) if key else k)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield key, obj


def report_problems(report: dict, strategy: str) -> list:
    """Broken report.json invariants; empty when all hold."""
    problems = ["report.json: %s is not finite" % k
                for k, v in _numbers(report) if not math.isfinite(v)]
    if strategy == "C":
        for key in ("max_residual_disp", "max_residual_vel", "max_residual_acc"):
            if not report[key] <= RESIDUAL_TOL:
                problems.append("report.json: %s = %.3g exceeds %g"
                                % (key, report[key], RESIDUAL_TOL))
    return problems
