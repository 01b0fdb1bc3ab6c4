"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 201-210 --out perfbench/results/spread-1.jsonl
    python3 perfbench/spread.py --summarize perfbench/results/spread-1.jsonl perfbench/results/spread-2.jsonl

The first form runs `run.py --trace 0` once per workload and seed, with
the run length from BENCHMARK.json, and appends one JSON line per run
(workload, seed, result line, unscaled figures, pass times and probes) to --out.  The
second prints, for each file and each workload, every end-to-end metric's
median and its spread: the inter-quartile range of its values over their
median, as statistics.quantiles(values, n=4) gives the quartiles, beside
the metric's bound.  With two files it also prints how far the second
median moved from the first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BOUNDS = {m["name"]: (m["bound"], m["better"]) for m in SPEC["end_to_end"]}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int) -> dict:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = Path(tmp) / "report.json"
        subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(SPEC["run_seconds"]), "--trace", "0",
                        "--out", str(out)],
                       cwd=ROOT, check=True, timeout=180, stdout=subprocess.DEVNULL)
        report = json.loads(out.read_text(encoding="utf-8"))
    timing = report["timing"]
    return {"workload": workload, "seed": seed, "result": report["result"],
            "unscaled": timing.pop("unscaled"), "timing": timing}


def medians_and_spreads(path: Path) -> dict:
    values: dict = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        for name, metric in row["result"]["metrics"].items():
            values.setdefault(row["workload"], {}).setdefault(name, []).append(metric["value"])
    table = {}
    for workload, metrics in values.items():
        for name, vals in metrics.items():
            q = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            table[workload, name] = (median, (q[2] - q[0]) / median, len(vals))
    return table


def summarize(paths: list[Path]) -> None:
    tables = [medians_and_spreads(path) for path in paths]
    for path, table in zip(paths, tables):
        print(path.name)
        for (workload, name), (median, spread, n) in table.items():
            bound, _ = BOUNDS[name]
            print(f"  {workload:16s} {name:14s} median {median:12.6g}  spread {spread:.4f}"
                  f"  bound {bound}  ({spread / bound:.2f} of it, {n} runs)")
    if len(tables) == 2:
        print("second median against the first")
        for key, (first, _, _) in tables[0].items():
            second = tables[1][key][0]
            bound, better = BOUNDS[key[1]]
            worse = (first - second) / first if better == "higher" else (second - first) / first
            print(f"  {key[0]:16s} {key[1]:14s} worse by {worse:+.4f}  bound {bound}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=_seeds, help="first-last")
    p.add_argument("--workload", action="append", help="default: every workload")
    p.add_argument("--out", type=Path)
    p.add_argument("--summarize", type=Path, nargs="+")
    args = p.parse_args(argv)
    if args.summarize:
        summarize(args.summarize)
        return 0
    if not (args.seeds and args.out):
        p.error("--seeds and --out are needed to run")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    for workload in args.workload or [w["name"] for w in SPEC["workloads"]]:
        for seed in args.seeds:
            row = run(workload, seed)
            with args.out.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(row) + "\n")
            metrics = {k: round(v["value"], 4) for k, v in row["result"]["metrics"].items()}
            print(workload, seed, row["result"]["failed"], metrics, flush=True)
    summarize([args.out])
    return 0


if __name__ == "__main__":
    sys.exit(main())
