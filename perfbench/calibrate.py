"""Fit the probe powers: how query times and set-up spawns follow the speed probe.

    python3 perfbench/calibrate.py [--minutes 12] [--out perfbench/results/calibration.json]

Goes round the workloads until the time is up, running one pass of each
workload's seed-0 mix exactly as a benchmark run does (harness.run_pass:
each query timed, with the probes around it) and one set-up spawn between
two probes.  A workload's power is the least-squares slope of log latency
on log probe time, each query against its own mean over the passes: the
exponent that leaves the scaled latencies least spread.  It means
something only if the machine's speed moved during the run, so the output
gives with each power the probe's range, r^2, each pass's time and probe,
and the spread of the pass times before and after scaling.  Copy the
powers into workloads.PROBE_POWER.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

from run import ROOT, SRC, _import_cli
from fpbench import harness, workloads


def fit(series) -> tuple[float, float]:
    """(power, r^2) of log seconds on log probe, pooled over the series.

    Each series is the (probe, seconds) pairs of one item, a query or the
    spawn; it is centred on its own means, so items of any size count only
    by how they move with the probe.
    """
    sxx = syy = sxy = 0.0
    for pairs in series:
        xs = [math.log(p) for p, _ in pairs]
        ys = [math.log(t) for _, t in pairs]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        sxx += sum((x - mx) ** 2 for x in xs)
        syy += sum((y - my) ** 2 for y in ys)
        sxy += sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx, sxy * sxy / (sxx * syy)


def _spread(values) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def _summary(power, r2, probes, measured, scaled) -> dict:
    return {"power": round(power, 3), "r2": round(r2, 3), "samples": len(measured),
            "probe_ms": [round(1000 * f(probes), 4) for f in (min, statistics.median, max)],
            "spread_unscaled": round(_spread(measured), 4),
            "spread_scaled": round(_spread(scaled), 4)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--minutes", type=float, default=12)
    p.add_argument("--out", type=Path, default=ROOT / "perfbench" / "results" / "calibration.json")
    args = p.parse_args(argv)
    cli = _import_cli()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # as run.py does
    mixes = {w: workloads.draw_mix(workloads.load_pool(w), 0) for w in workloads.WORKLOADS}
    gc.freeze()
    for mix in mixes.values():
        harness._warm_up(cli, mix)
    spawn = harness.SetupTimer(SRC, power=0).spawn
    passes = {w: [] for w in mixes}
    spawns = []
    end = perf_counter() + 60 * args.minutes
    while perf_counter() < end:
        for w, mix in mixes.items():
            passes[w].append(harness.run_pass(cli, mix, workloads.CHECKS[w]))
            before = harness.probe()
            elapsed = spawn()
            spawns.append(((before + harness.probe()) / 2, elapsed))

    report = {"context": harness.context(ROOT, "all", 0, []), "minutes": args.minutes,
              "probe_ref_ms": harness.PROBE_REF_S * 1000, "fits": {}}
    for w, runs in passes.items():
        power, r2 = fit([list(zip(q_probes, q_lat)) for q_probes, q_lat
                         in zip(zip(*(r.probes for r in runs)), zip(*(r.latencies for r in runs)))])
        probes = [statistics.median(r.probes) for r in runs]
        report["fits"][w] = dict(
            _summary(power, r2, probes, [r.seconds for r in runs],
                     [sum(r.scaled(power)) for r in runs]),
            passes_ms=[[round(1000 * probe_s, 4), round(1000 * r.seconds, 2)]
                       for probe_s, r in zip(probes, runs)])
    power, r2 = fit([spawns])
    report["fits"]["setup"] = dict(
        _summary(power, r2, [probe_s for probe_s, _ in spawns], [t for _, t in spawns],
                 [harness.scale(t, probe_s, power) for probe_s, t in spawns]),
        pairs_ms=[[round(1000 * probe_s, 4), round(1000 * t, 2)] for probe_s, t in spawns])
    for name, result in report["fits"].items():
        print(name, json.dumps({k: v for k, v in result.items() if k not in ("passes_ms", "pairs_ms")}))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
