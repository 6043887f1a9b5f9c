"""vtsi benchmark: what a vehicle-crossing run costs its user.

    python3 bench/run.py --workload crossing --seed 0 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 45 --trace 0

Run from anywhere; the repository root is found from this file. Each
invocation runs one repetition at a time, each in a fresh process. The first
is the command-line tool itself, ``python -m vtsi.cli run``, on the
workload's scenario. The others run ``bench/child.py``, which makes the same
public calls with timers between them. A further repetition starts only if,
at the median wall time of those before it, it ends within ``--seconds`` of
the first start; there are at least two child repetitions whatever
``--seconds`` says, and three with ``--trace 1``, so that two traced ones
can be compared. The child repetitions' ``timehistory.csv`` must equal the
tool's byte for byte, and every repetition's outputs are checked (see
``checks.py``). A repetition fails on a non-zero exit or a failed check.

``--trace 0`` reports the end-to-end metrics as medians over repetitions:
``wall_s``, ``cpu_s`` and ``peak_rss_mb`` over all of them, ``setup_s`` and
``steps_per_s`` over the child repetitions. ``--trace 1`` traces every other
child repetition, starting with the first, and reports the per-layer metrics
(medians over the traced ones) and the tracing overhead (median wall time of
the traced child repetitions minus that of the untraced child repetitions).
Human-readable rows come first, one per repetition too; the last stdout line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}`` (with
``--workload all``, one such object per workload).

BLAS threads are pinned to min(2, nproc) in every repetition, so that two
commits are compared under the same setting.

The seed-0 references in ``reference/`` are committed data, the gzipped
``timehistory.csv`` of ``vtsi run`` on each workload's scenario. Tests of the
benchmark's own arithmetic: ``python3 -m pytest bench``.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
RUNS = ROOT / ".bench_runs"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)
MIN_CHILD_REPS = {False: 2, True: 3}     # by --trace
BUDGET_S = 170.0        # one invocation must end within 180 s

# Seed-0 scenarios. The `why` strings are repeated in BENCHMARK.json.
WORKLOADS = {
    # The default crossing, exactly `{}`: NURBS p = 3, 8 elements per span,
    # strategy A, 1500 steps. Per-step coefficient evaluation dominates.
    "crossing": {},
    # 32 elements per span (n_red 954): dense bridge algebra dominates
    # set-up and stepping; spline evaluation is a small share.
    "fine_mesh": {"bridge": {"elements_per_span": 32},
                  "run": {"horizon": 0.1}},
    # Criterion-6 case: Newmark plus two projections per step on a 10x finer
    # grid, with many repeated coefficient lookups and a large CSV. The
    # horizon reaches the transition span (30 m) at every seeded speed.
    "projected_fine_dt": {"run": {"strategy": "C", "dt": 1e-4,
                                  "horizon": 0.33}},
}

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s",
             "cpu_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}


def scenario_for(workload: str, seed: int) -> dict:
    """The workload's scenario; non-zero seeds lower the speed (the default
    horizon already equals path length / 100 m/s) and move the arc radius."""
    data = json.loads(json.dumps(WORKLOADS[workload]))
    if seed == 0:
        return data
    rng = random.Random(seed)
    radius = round(rng.uniform(5000.0, 7000.0), 1)
    data["vehicle"] = {"v": round(rng.uniform(95.0, 100.0), 3)}
    data["plan"] = {"spans": [
        {"kind": "straight", "length": 30.0},
        {"kind": "transition", "length": 30.0, "radius_end": radius},
        {"kind": "arc", "length": 30.0, "radius_start": radius,
         "radius_end": radius},
        {"kind": "transition", "length": 30.0, "radius_start": radius},
        {"kind": "straight", "length": 30.0},
    ]}
    return data


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(BLAS_THREADS)
    return env


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas_name, "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
            "nproc": NPROC}


def run_process(argv, log: Path, timeout: float) -> dict:
    """Run ``argv`` from the repository root; wall time, CPU time and peak
    RSS of that process alone. Killed after ``timeout`` seconds."""
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def run_rep(argv, out: Path, timeout: float) -> dict:
    """One repetition writing into ``out``; ``problems`` lists why it
    failed."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    log = out / "stderr.txt"
    rep = run_process(argv, log, timeout)
    rep["problems"] = []
    if rep["exit"] != 0:
        lines = log.read_text(errors="replace").strip().splitlines()
        rep["problems"].append("exit code %d: %s"
                               % (rep["exit"], lines[-1] if lines else ""))
    return rep


def check_rep(rep: dict, out: Path, strategy: str, expected, reference) -> None:
    """Append to ``rep["problems"]`` every output check that fails."""
    if rep["problems"]:
        return
    data = (out / "timehistory.csv").read_bytes()
    if expected is not None and data != expected:
        rep["problems"].append("timehistory.csv differs from the vtsi.cli output")
    if reference is not None:
        rep["reference"], problems = checks.csv_check(data, reference)
        rep["problems"] += problems
    report = json.loads((out / "report.json").read_text())
    rep["problems"] += checks.report_problems(report, strategy)
    if "result" in rep and data.count(b"\n") != rep["result"]["n_steps"] + 2:
        rep["problems"].append("timehistory.csv has the wrong row count")


def median(values):
    return statistics.median(values) if values else math.nan


def end_to_end(cli: dict, children: list) -> dict:
    reps = [cli] + children
    ok = [r for r in reps if not r["problems"]]
    timed = [r["result"] for r in children if not r["problems"]]
    return {
        "wall_s": median([r["wall_s"] for r in ok]),
        "setup_s": median([r["setup_s"] for r in timed]),
        "steps_per_s": median([r["n_steps"] / r["run_s"] for r in timed]),
        "cpu_s": median([r["cpu_s"] for r in ok]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in ok]),
        "ok_frac": len(ok) / len(reps),
    }


def per_layer(children: list, problems: list) -> dict:
    """Medians over the traced repetitions; NaN where none succeeded."""
    ok = [r for r in children if not r["problems"]]
    traced = [r for r in ok if r["traced"]]
    if not traced:
        problems.append("no traced repetition succeeded")
    layers = [r["result"]["layers"] for r in traced]
    out = {}
    for name in spans.LAYER_UNITS:
        if name == "trace.overhead_s":
            continue
        values = [lay[name] for lay in layers]
        if name in spans.COUNT_METRICS and len(set(values)) > 1:
            problems.append("%s differs across repetitions: %s" % (name, values))
        out[name] = (values[0] if values and name in spans.COUNT_METRICS
                     else median(values))
    out["trace.overhead_s"] = (
        median([r["wall_s"] for r in traced])
        - median([r["wall_s"] for r in ok if not r["traced"]]))
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    deadline = start + BUDGET_S
    work = RUNS / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scenario = work / "scenario.json"
    data = scenario_for(name, seed)
    scenario.write_text(json.dumps(data))
    strategy = data.get("run", {}).get("strategy", "A")

    cli_out = work / "cli"
    cli = run_rep([sys.executable, "-m", "vtsi.cli", "run", str(scenario),
                   "-o", str(cli_out)], cli_out, BUDGET_S)
    cli["traced"] = False
    reference = checks.reference_csv(name) if seed == 0 else None
    check_rep(cli, cli_out, strategy, None, reference)
    expected = None
    if not cli["problems"]:
        expected = (cli_out / "timehistory.csv").read_bytes()

    out = work / "rep"
    kinds = itertools.cycle([True, False]) if trace else itertools.repeat(False)
    children = []
    while True:
        now = time.perf_counter()
        estimate = median([r["wall_s"] for r in [cli] + children])
        if now + estimate > deadline:
            break
        if (len(children) >= MIN_CHILD_REPS[trace]
                and now - start + estimate > seconds):
            break
        traced = next(kinds)
        rep = run_rep([sys.executable, str(CHILD), str(scenario), str(out),
                       "--trace", str(int(traced))], out, deadline - now)
        rep["traced"] = traced
        if not rep["problems"]:
            rep["result"] = json.loads((out / "result.json").read_text())
        check_rep(rep, out, strategy, expected, reference)
        children.append(rep)

    problems = ["vtsi.cli run: %s" % p for p in cli["problems"]]
    for i, rep in enumerate(children):
        problems += ["repetition %d: %s" % (i + 1, p) for p in rep["problems"]]
    if trace:
        metrics, units = per_layer(children, problems), spans.LAYER_UNITS
    else:
        metrics, units = end_to_end(cli, children), E2E_UNITS
    return {"correct": not problems,
            "attempted": 1 + len(children),
            "failed": sum(1 for r in [cli] + children if r["problems"]),
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()},
            "problems": problems,
            "reps": [cli] + children}


def print_rows(name: str, seed: int, res: dict) -> None:
    print("%s  seed=%d  attempted=%d  failed=%d  fail_frac=%.3g"
          % (name, seed, res["attempted"], res["failed"],
             res["failed"] / res["attempted"]))
    notes = [r["reference"] for r in res["reps"] if "reference" in r]
    if notes:
        print("  reference: %d of %d repetitions match its sha256"
              % (notes.count("sha256 matches the reference"), res["attempted"]))
    for i, r in enumerate(res["reps"]):
        what = ("vtsi.cli" if i == 0 else
                "child, traced" if r["traced"] else "child")
        timed = ("  setup %.3f s  run %.3f s" % (r["result"]["setup_s"],
                                                 r["result"]["run_s"])
                 if "result" in r else "")
        print("  rep %d (%s): wall %.3f s  cpu %.3f s  rss %.1f MB%s%s%s"
              % (i, what, r["wall_s"], r["cpu_s"], r["peak_rss_mb"], timed,
                 "  FAILED" if r["problems"] else "",
                 "  [%s]" % r["reference"] if "reference" in r else ""))
    ok = [r for r in res["reps"][1:] if not r["problems"]]
    traced = sum(r["traced"] for r in ok)
    print("  medians over %d successful repetitions, %d of them children "
          "(setup_s, steps_per_s)%s" % (
              res["attempted"] - res["failed"], len(ok),
              ", %d traced (per-layer metrics)" % traced if traced else ""))
    for key, m in res["metrics"].items():
        note = " (computed)" if m["unit"] == "B" else ""
        value = m["value"]
        text = str(value) if isinstance(value, int) else "%.6g" % value
        print("  %-36s %14s %s%s" % (key, text, m["unit"], note))
    for p in res["problems"]:
        print("  FAILED: " + p)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit so that a running repetition is killed
    # and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "vtsi" / "__init__.py").is_file():
        print("error: no vtsi sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    print("environment: " + json.dumps(environment()))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_rows(name, args.seed, res)
        if any(math.isnan(m["value"]) for m in res["metrics"].values()):
            print("error: %s: too few repetitions succeeded to report every "
                  "metric" % name, file=sys.stderr)
            return 1
        results[name] = {k: res[k] for k in
                         ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
