"""CSV time-history and JSON report emission."""
from __future__ import annotations

import json

import numpy as np

from .integrators import TimeHistory
from .metrics import DiagnosticReport

__all__ = ["write_timehistory", "write_report", "timehistory_header"]

_FMT = "%.17e"


def timehistory_header(history: TimeHistory) -> list[str]:
    cols = (["t"]
            + ["ut%d" % i for i in range(1, 5)]
            + ["vt%d" % i for i in range(1, 5)]
            + ["at%d" % i for i in range(1, 5)]
            + ["lam_y", "lam_z", "lam_thx"])
    for _ in history.probes:
        cols += ["ub_n", "ub_b", "ab_n", "ab_b"]
    return cols


def write_timehistory(history: TimeHistory, out) -> None:
    """Write the run as CSV: header then one full-precision row per step,
    each row formatted by one ``%`` from a stacked table."""
    table = np.column_stack([history.t, history.ut, history.vt, history.at,
                             history.lam, *history.probes.values()])
    row = ",".join([_FMT] * table.shape[1]) + "\n"
    with open(out, "w", newline="\n") as f:
        f.write(",".join(timehistory_header(history)) + "\n")
        for values in table:
            f.write(row % tuple(values.tolist()))


def write_report(report: DiagnosticReport, out) -> None:
    """Write the diagnostic report as JSON at full double precision."""
    with open(out, "w") as f:
        json.dump(report.to_dict(), f, indent=2)
        f.write("\n")
