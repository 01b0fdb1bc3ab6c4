"""Benchmark of the fatpoints command line: one workload, one seed, one run.

    python3 perfbench/run.py --workload bounds-uniform --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/`.  With `--trace 0` the run times untraced passes of the seeded mix
and reports the end-to-end metrics; with `--trace 1` it alternates
untraced and traced passes and reports the per-layer metrics.  Either way
every output is checked, and the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Queries of a case listed
in reference/known-defects.json that fails its cross-check as listed are
printed as KNOWN DEFECT and not counted in "failed".  `--out FILE` also
writes the full report (context, tail percentile, unscaled figures, pass
times and probes, failures, known defects) as JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from fpbench import harness, workloads  # noqa: E402


def _import_cli():
    """fatpoints.cli from this checkout's src/, or exit 2."""
    if not (SRC / "fatpoints" / "__init__.py").is_file():
        sys.exit(f"error: no fatpoints sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fatpoints
    import fatpoints.cli
    if not Path(fatpoints.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: fatpoints imported from {fatpoints.__file__}, not {SRC}")
    return fatpoints.cli


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, help="also write the full report here")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    # The THREADS pool in cli is off unless this is set; the benchmark
    # measures the default single-threaded configuration.
    os.environ.pop("THREADS", None)
    cli = _import_cli()
    # One CPU for the client, the probe and the setup spawns, so that the
    # probe measures the CPU the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    pool = workloads.load_pool(args.workload)
    mix = workloads.draw_mix(pool, args.seed)
    check = workloads.CHECKS[args.workload]
    report = {"context": harness.context(ROOT, args.workload, args.seed, mix)}
    gc.freeze()  # the pool and the harness stay out of every later collection

    if args.trace:
        traced = []
        plain = harness.timed_passes(
            cli, mix, check, args.seconds, min_passes=1,
            between=lambda: traced.append(harness.traced_pass(cli, mix, check)))
        passes = plain + [r for r, _ in traced]
        metrics, inclusive = harness.per_layer(plain, traced)
        traced_s = statistics.median(r.seconds for r, _ in traced)
        report["layers"] = {
            name: {"calls": metrics[f"{name}.calls"][0],
                   "self_share": metrics[f"{name}.self_s"][0] / traced_s,
                   "inclusive_share": inclusive[name] / traced_s}
            for name in inclusive}
    else:
        setup = harness.SetupTimer(SRC, workloads.PROBE_POWER["setup"])
        setup.sample()
        passes = harness.timed_passes(cli, mix, check, args.seconds, between=setup.sample)
        metrics, facts = harness.end_to_end(passes, setup.median(),
                                            workloads.PROBE_POWER[args.workload])
        facts["unscaled"]["setup_s"] = statistics.median(setup.measured)
        report["timing"] = facts

    attempted = sum(len(p.ok) for p in passes)
    known = [k for p in passes for k in p.known]
    failed = attempted - sum(p.correct for p in passes) - len(known)
    failures = [f for p in passes for f in p.failures]
    report["failed_share"] = failed / attempted
    report["failures"] = [{"argv": a, "reason": r} for a, r in failures[:50]]
    report["known_defect_share"] = len(known) / attempted
    report["known_defects"] = [{"argv": a, "reason": r} for a, r in dict.fromkeys(
        (tuple(a), r) for a, r in known)]

    print("context " + json.dumps(report["context"], sort_keys=True))
    if not args.trace:
        tail = report["timing"]
        print(f"tail percentile p{tail['tail_percentile']} over {tail['tail_samples']} "
              f"per-query latencies ({tail['tail_samples_beyond']} beyond), "
              f"{tail['passes']} passes; query times probe-scaled with power "
              f"{tail['probe_power']}")
    for name, (value, unit) in metrics.items():
        unscaled = report.get("timing", {}).get("unscaled", {}).get(name)
        note = "" if unscaled is None else f"  ({unscaled:.6g} unscaled)"
        print(f"{name:48s} {value:14.6g} {unit}{note}")
    print(f"{'failed_share':48s} {report['failed_share']:14.6g} ({failed} of {attempted})")
    for argv_, reason in list(dict.fromkeys((" ".join(a), r) for a, r in failures))[:20]:
        print(f"FAILED {argv_}: {reason}")
    if known:
        print(f"{'known_defect_share':48s} {len(known) / attempted:14.6g} "
              f"({len(known)} of {attempted}, not counted as failed)")
    for entry in report["known_defects"]:
        print(f"KNOWN DEFECT {' '.join(entry['argv'])}: {entry['reason']} "
              f"(listed in perfbench/reference/known-defects.json)")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    if args.out is not None:
        report["result"] = result
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
