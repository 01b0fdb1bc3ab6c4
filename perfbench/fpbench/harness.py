"""Closed-loop runs of a query mix through `fatpoints.cli.main`, and their metrics.

One client in one process sends the next query when the previous one has
returned.  Each query's stdout and stderr are captured; its latency is the
wall time of the `main` call alone.  Every output is checked against its
reference digest and the workload's cross-check on every pass.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from .tracer import COUNTER_NAMES, Tracer

# Percentiles the tail is read at; the highest one with at least TAIL_BEYOND
# samples above it is reported.
TAIL_LADDER = ("50", "75", "90", "95", "99", "99.9", "99.99")
TAIL_BEYOND = 10

MIN_PASSES = 3
SETUP_BATCH = 2

# Speed probe.  On a shared machine the same work takes from 1x to 1.8x its
# time as neighbours come and go, in stretches of seconds to minutes.  A
# fixed pure-Python task, timed between queries, measures that state, and
# each query time is scaled by (PROBE_REF_S / probe time around it) ** power,
# so reported times read as at the probe's reference speed.  PROBE_REF_S is
# the probe's time on an unloaded 2-vCPU x86_64 Linux VM with Python
# 3.11.7.  The library slows less than the probe does, by a different
# power for each workload and for the set-up spawns; calibrate.py fits the
# powers (workloads.PROBE_POWER) and results/calibration.json holds the
# samples they were fitted on.
PROBE_REF_S = 0.0004
PROBE_EVERY_S = 0.02


def scale(seconds: float, probe_s: float, power: float) -> float:
    """A time taken while the probe took probe_s, at the reference speed."""
    return seconds * (PROBE_REF_S / probe_s) ** power


END_TO_END = (("queries_per_s", "1/s"), ("query_p50_ms", "ms"), ("query_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mib", "MiB"))


def tail_percentile(samples) -> tuple[str, float, int]:
    """(percentile, value, samples beyond) at the highest ladder rung with
    at least TAIL_BEYOND samples beyond it; nearest-rank percentiles."""
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for p in TAIL_LADDER:
        rank = math.ceil(Fraction(p) * n / 100)
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            best = (p, ordered[rank - 1], n - rank)
    if best is None:
        raise ValueError(f"{n} samples leave no percentile with "
                         f"{TAIL_BEYOND} samples beyond it")
    return best


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _probe_task():
    # Interpreter work of the kinds the library does: re-sorting a clamped
    # list, prefix sums as Fractions, canonical JSON.
    v = [(i * 7919) % 13 + 1 for i in range(120)]
    for _ in range(6):
        v = sorted((x - 1 if i < 40 else x for i, x in enumerate(v)), reverse=True)
        v = [x if x > 0 else 0 for x in v]
    total = sum(Fraction(sum(v[:k]), k + 1) for k in range(1, 40))
    return total, json.dumps({"rows": [[i, x] for i, x in enumerate(v)]}, indent=2)


def probe() -> float:
    """Best of three timings of the probe task: the machine's speed now.

    The heap is collected first, untimed, so that garbage left by the
    queries cannot slow the probe and so change the scale of their times.
    """
    gc.collect()
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        _probe_task()
        best = min(best, perf_counter() - start)
    return best


def call_cli(cli, argv: list[str]) -> tuple[float, int | None, str, str]:
    """(seconds, exit code or None on a crash, stdout, stderr) of one query.

    The heap is collected first, untimed, so that a query pays for its own
    garbage only, as a one-shot CLI process would, whatever ran before it.
    """
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed query; the run goes on
            code = None
            err.write(traceback.format_exc())
        elapsed = perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


@dataclass
class PassResult:
    latencies: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)  # probe time around each query
    ok: list[bool] = field(default_factory=list)
    failures: list[tuple[list[str], str]] = field(default_factory=list)
    known: list[tuple[list[str], str]] = field(default_factory=list)  # one per query

    @property
    def seconds(self) -> float:
        return sum(self.latencies)

    def scaled(self, power: float) -> list[float]:
        """Latencies at the probe's reference speed."""
        return [scale(lat, p, power) for lat, p in zip(self.latencies, self.probes)]

    @property
    def correct(self) -> int:
        return sum(self.ok)


def run_pass(cli, mix, check, tracer: Tracer | None = None) -> PassResult:
    """Run every case of the mix once, in order, and check each output.

    A case whose cross-check gives exactly the reasons its first query
    lists as "known_defect" is not correct, but its queries go to `known`
    rather than `failures`: a defect of the library at the recorded
    commit, reported on every run apart from new failures.

    The probe runs at the start, then after any case that ends
    PROBE_EVERY_S of query time after the last probe, and at the end; each
    query gets the mean of the probes on either side of it.
    """
    result = PassResult()
    before, since = probe(), 0.0

    def close_segment():
        after = probe()
        result.probes += [(before + after) / 2] * (len(result.latencies) - len(result.probes))
        return after, 0.0

    for case in mix:
        argvs = [q["argv"] for q in case]
        outputs, case_ok = [], []
        for query in case:
            if tracer is not None:
                tracer.query = len(result.latencies)
            elapsed, code, out, err = call_cli(cli, query["argv"])
            result.latencies.append(elapsed)
            since += elapsed
            reason = None
            if code != 0:
                reason = f"exit code {code}: {err.strip()[-300:]}"
            elif digest(out) != query["sha256"]:
                reason = "output differs from the reference digest"
            if reason is not None:
                result.failures.append((query["argv"], reason))
            outputs.append(out)
            case_ok.append(reason is None)
        if check is not None and all(case_ok):
            reasons = check(argvs, [json.loads(out) for out in outputs])
            if reasons:
                if reasons == case[0].get("known_defect"):
                    result.known += [(argv, "; ".join(reasons)) for argv in argvs]
                else:
                    result.failures.append((argvs[0], "; ".join(reasons)))
                case_ok = [False] * len(case_ok)
        result.ok += case_ok
        if since >= PROBE_EVERY_S:
            before, since = close_segment()
    if len(result.probes) < len(result.latencies):
        close_segment()
    return result


def _warm_up(cli, mix) -> None:
    # The shortest query of each subcommand, once: fills the import, regex
    # and allocator caches that every later call finds warm.
    shortest = {}
    for case in mix:
        for query in case:
            argv = query["argv"]
            if len(" ".join(argv)) < len(" ".join(shortest.get(argv[0], argv + ["-"]))):
                shortest[argv[0]] = argv
    for argv in shortest.values():
        call_cli(cli, argv)


def timed_passes(cli, mix, check, seconds: float, between, min_passes: int = MIN_PASSES) -> list[PassResult]:
    """Untraced passes until the next one would overrun `seconds` (at least
    min_passes); `between()` runs after each pass, inside the time budget."""
    _warm_up(cli, mix)
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(cli, mix, check))
        between()
        elapsed = perf_counter() - start
        if len(passes) >= min_passes and elapsed * (1 + 1 / len(passes)) > seconds:
            return passes


def traced_pass(cli, mix, check) -> tuple[PassResult, Tracer]:
    tracer = Tracer()
    with tracer.installed():
        return run_pass(cli, mix, check, tracer), tracer


class SetupTimer:
    """Time for a fresh interpreter to import fatpoints.cli, numpy included.

    Samples are probe-scaled with `power` and taken in small batches spread
    over the run, so that one slow stretch of a shared machine does not set
    the median.
    """

    def __init__(self, src: Path, power: float):
        self.power = power
        self._env = {k: v for k, v in os.environ.items() if k != "THREADS"}
        self._env["PYTHONPATH"] = str(src)
        self._cwd = src.parent
        self.samples: list[float] = []
        self.measured: list[float] = []
        self.spawn()  # writes the bytecode cache; not a sample

    def spawn(self) -> float:
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import fatpoints.cli"], env=self._env,
                       cwd=self._cwd, check=True, timeout=60,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        return perf_counter() - start

    def sample(self) -> None:
        for _ in range(SETUP_BATCH):
            before = probe()
            elapsed = self.spawn()
            self.measured.append(elapsed)
            self.samples.append(scale(elapsed, (before + probe()) / 2, self.power))

    def median(self) -> float:
        return statistics.median(self.samples)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _latency_metrics(passes: list[PassResult], latencies) -> tuple[tuple, tuple]:
    """(queries_per_s, query_p50_ms, query_tail_ms) from the per-pass
    latency lists that `latencies(pass)` gives, and the tail's facts."""
    per_query = [statistics.median(lat) for lat in zip(*(latencies(p) for p in passes))]
    pct, tail, beyond = tail_percentile(per_query)
    qps = statistics.median(p.correct / sum(latencies(p)) for p in passes)
    return (qps, statistics.median(per_query) * 1000, tail * 1000), (pct, len(per_query), beyond)


def end_to_end(passes: list[PassResult], setup_s: float, power: float) -> tuple[dict, dict]:
    """The end-to-end metrics, and the facts behind them for the report.

    Latencies are probe-scaled with `power`; the same figures unscaled are
    among the facts.  queries_per_s is the median over passes of correct
    queries per second of query time; a query's latency is its median over
    passes.
    """
    scaled, (pct, samples, beyond) = _latency_metrics(passes, lambda p: p.scaled(power))
    unscaled, _ = _latency_metrics(passes, lambda p: p.latencies)
    values = scaled + (setup_s, peak_rss_mib())
    metrics = {name: (value, unit) for (name, unit), value in zip(END_TO_END, values)}
    facts = {"tail_percentile": pct, "tail_samples": samples,
             "tail_samples_beyond": beyond, "passes": len(passes), "probe_power": power,
             "pass_seconds": [p.seconds for p in passes],
             "pass_probe_ms": [statistics.median(p.probes) * 1000 for p in passes],
             "unscaled": {name: value for (name, _), value in zip(END_TO_END, unscaled)}}
    return metrics, facts


def per_layer(plain: list[PassResult], traced: list[tuple[PassResult, Tracer]]) -> tuple[dict, dict]:
    """Calls and self time per span function, the counters and the trace
    overhead; and, for the report, each function's inclusive time.

    Each traced pass runs right after an untraced one, so the overhead is
    the median over those pairs of their ratio of measured pass times.
    """
    totals = [tracer.layer_totals() for _, tracer in traced]
    metrics, inclusive = {}, {}
    for name in totals[0]:
        metrics[f"{name}.calls"] = (totals[-1][name][0], "count")
        metrics[f"{name}.self_s"] = (statistics.median(t[name][1] for t in totals), "s")
        inclusive[name] = statistics.median(t[name][2] for t in totals)
    for name in COUNTER_NAMES:
        metrics[name] = (traced[-1][1].counts[name], "count")
    metrics["trace.overhead_share"] = (
        statistics.median(t.seconds / p.seconds for p, (t, _) in zip(plain, traced)), "ratio")
    return metrics, inclusive


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def context(root: Path, workload: str, seed: int, mix) -> dict:
    import numpy
    uname = platform.uname()
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "machine": f"{uname.system} {uname.release} {uname.machine}",
        "workload": workload,
        "seed": seed,
        "cases": len(mix),
        "queries": sum(len(case) for case in mix),
        "client": "closed loop, 1 client, 1 process",
    }
