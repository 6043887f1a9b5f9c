"""Command-line interface: run, check, and sweep scenarios."""
from __future__ import annotations

import argparse
import copy
import sys
from pathlib import Path

from .metrics import build_report
from .output import write_report, write_timehistory
from .scenario import (ScenarioError, load_scenario, parse_scenario,
                       read_scenario_file)
from .simulate import (build_scenario_bridge, build_scenario_model,
                       build_scenario_path, run_simulation)

__all__ = ["cli", "main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vtsi",
        description="Vehicle-track-structure interaction simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write outputs")
    p_run.add_argument("scenario", help="scenario JSON file")
    p_run.add_argument("-o", "--out", required=True,
                       help="output directory for timehistory.csv, report.json")

    p_check = sub.add_parser("check", help="validate a scenario file")
    p_check.add_argument("scenario", help="scenario JSON file")

    p_sweep = sub.add_parser("sweep", help="run a scenario over a value sweep")
    p_sweep.add_argument("scenario", help="scenario JSON file")
    p_sweep.add_argument("--param", required=True,
                         help="dotted scenario key, e.g. run.dt")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values to substitute")
    p_sweep.add_argument("-o", "--out", required=True,
                         help="parent directory; one subdirectory per value")
    return parser


def _run_one(scenario, out_dir: Path, model) -> None:
    history = run_simulation(scenario, model)
    report = build_report(history, scenario)
    write_timehistory(history, out_dir / "timehistory.csv")
    write_report(report, out_dir / "report.json")


def _run_all(runs) -> None:
    """Run each scenario and write its outputs to its directory. Runs in a
    row whose plan, ``plan.ctrl_per_span`` and bridge are equal, as a
    sweep's over another key, share one path and one bridge: set-up
    assembles the bridge once, and no run changes it."""
    built = path = bridge = None
    for scenario, out_dir in runs:
        key = (scenario.plan, scenario.ctrl_per_span, scenario.bridge)
        if key != built:
            path = build_scenario_path(scenario)
            bridge = build_scenario_bridge(scenario, path)
            built = key
        _run_one(scenario, out_dir,
                 build_scenario_model(scenario, path, bridge))


def _set_dotted(data, dotted: str, value) -> None:
    *parents, last = dotted.split(".")
    node = data
    for key in parents:
        node = node.setdefault(key, {}) if isinstance(node, dict) else None
    if not isinstance(node, dict):
        raise ScenarioError("cannot set %r: its parent is not an object"
                            % dotted)
    node[last] = value


def _coerce(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def cli(argv=None) -> int:
    """Entry point; returns 0 on success, 1 on validation error, 2 on
    solver failure."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sweep":  # every value is parsed before any run
            raw = read_scenario_file(args.scenario)
            values = [v for v in args.values.split(",") if v]
            if not values:
                raise ScenarioError("sweep needs at least one value")
            runs = []
            for text in values:
                data = copy.deepcopy(raw)
                _set_dotted(data, args.param, _coerce(text))
                runs.append((parse_scenario(data), Path(args.out)
                             / ("%s=%s" % (args.param, text))))
        else:
            scenario = load_scenario(args.scenario)
            if args.command == "check":
                print("scenario OK: %s" % args.scenario)
                return 0
            runs = [(scenario, Path(args.out))]
        # An unusable output path fails here, before any step runs.
        for _, out_dir in runs:
            out_dir.mkdir(parents=True, exist_ok=True)
    except (ScenarioError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    try:
        _run_all(runs)
        return 0
    except RuntimeError as exc:
        print("solver failure: %s" % exc, file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
