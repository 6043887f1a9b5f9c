"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

Makes the public calls ``vtsi run`` makes (``cli._run_one``), in the same
order: parse_scenario, build_scenario_model, run_simulation,
write_timehistory, build_report, write_report. It times set-up and stepping
and writes ``result.json`` next to the outputs. With ``--trace 1`` it also
records spans around the calls into each layer, writes them to ``spans.csv``
when the run is over, and adds the per-layer numbers to ``result.json``.

    python3 bench/child.py SCENARIO.json OUT_DIR --trace 0

``src`` must be on PYTHONPATH.
"""
from __future__ import annotations

import argparse
import json
import time
from pathlib import Path


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("scenario")
    ap.add_argument("out")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    out = Path(args.out)

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    from vtsi.metrics import build_report
    from vtsi.output import write_report, write_timehistory
    from vtsi.scenario import parse_scenario
    from vtsi.simulate import build_scenario_model, run_simulation

    if tracer:
        parse_scenario = tracer.wrap("scenario.parse_scenario", parse_scenario)
        build_scenario_model = tracer.wrap("simulate.build_scenario_model",
                                           build_scenario_model)
        run_simulation = tracer.wrap("simulate.run_simulation", run_simulation)
        write_timehistory = tracer.wrap("output.write_timehistory",
                                        write_timehistory)
        build_report = tracer.wrap("metrics.build_report", build_report)
        write_report = tracer.wrap("output.write_report", write_report)

    with open(args.scenario) as f:
        data = json.load(f)
    t0 = time.perf_counter()
    scenario = parse_scenario(data)
    model = build_scenario_model(scenario)
    t1 = time.perf_counter()
    if tracer:
        spans.wrap_model(tracer, model)
    t2 = time.perf_counter()
    history = run_simulation(scenario, model)
    t3 = time.perf_counter()
    csv_path = out / "timehistory.csv"
    write_timehistory(history, csv_path)
    write_report(build_report(history, scenario), out / "report.json")
    t4 = time.perf_counter()

    result = {"setup_s": t1 - t0, "run_s": t3 - t2, "output_s": t4 - t3,
              "n_steps": history.n_steps}
    if tracer:
        result["layers"] = spans.layer_metrics(
            tracer, model.bridge, csv_path.stat().st_size)
        tracer.write(out / "spans.csv")
    with open(out / "result.json", "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
