"""Self-tests of the benchmark harness: digests, self time, tail rule, tracer."""

import copy
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from fpbench import harness, workloads  # noqa: E402
from fpbench.tracer import Span, Tracer, self_times  # noqa: E402

import fatpoints.cli as cli  # noqa: E402


def _small_mix(workload, cases):
    return workloads.draw_mix(workloads.load_pool(workload), seed=7)[:cases]


def test_corrupted_digest_counts_as_failed():
    mix = _small_mix("catalogue-small", 6)
    clean = harness.run_pass(cli, mix, None)
    assert clean.correct == len(clean.ok) == 6

    corrupted = copy.deepcopy(mix)
    corrupted[2][0]["sha256"] = "0" * 64
    result = harness.run_pass(cli, corrupted, None)
    assert result.correct == 5
    assert (len(result.ok) - result.correct) / len(result.ok) > 0
    assert result.failures[0][1] == "output differs from the reference digest"


def test_oracle_case_fails_as_a_whole_on_a_broken_cross_check():
    mix = _small_mix("oracle-verify", 1)
    assert harness.run_pass(cli, mix, workloads.check_oracle).correct == 5
    result = harness.run_pass(cli, mix, lambda argvs, docs: ["forced"])
    assert result.correct == 0 and result.failures == [(mix[0][0]["argv"], "forced")]


def test_listed_known_defect_is_kept_apart_from_failures():
    pool = workloads.load_pool("bounds-uniform")
    case = next(c for stratum in pool["strata"] for c in stratum if "known_defect" in c[0])
    result = harness.run_pass(cli, [case], workloads.check_bounds)
    assert result.correct == 0 and result.failures == []
    assert result.known == [(case[0]["argv"], case[0]["known_defect"][0])]

    other = copy.deepcopy(case)
    other[0]["known_defect"] = ["a different reason"]
    result = harness.run_pass(cli, [other], workloads.check_bounds)
    assert result.correct == 0 and result.known == [] and len(result.failures) == 1


def test_oracle_check_reports_missing_majority():
    hilb = {"rows": [[2, 1]]}
    res = {"rows": [[2, 1, 1, 0]]}
    runs = [{"rows": [[2, d, 1]]} for d in (0, 1, 2)]
    argvs = [["hilb"], ["res"], ["oracle"], ["oracle"], ["oracle"]]
    assert workloads.check_oracle(argvs, [hilb, res] + runs) == \
        ["t=2: no majority among oracle seeds"]
    runs[0]["rows"][0][1] = 1
    assert workloads.check_oracle(argvs, [hilb, res] + runs) == []


def test_bounds_check_flags_a_bound_past_the_expected_value():
    doc = [{"method": "expected-alpha", "direction": "exact", "value": 5, "validity": []},
           {"method": "x", "direction": "alpha-lower", "value": 6, "validity": []},
           {"method": "ref", "direction": "alpha-lower", "value": 9,
            "validity": ["conjectural reference, not a proven bound"]},
           {"method": "expected-tau", "direction": "exact", "value": 7, "validity": []},
           {"method": "y", "direction": "tau-upper", "value": 6, "validity": []}]
    assert workloads.check_bounds([["bounds"]], [doc]) == [
        "x alpha bound 6 > expected 5", "y tau bound 6 < expected 7"]


def test_self_time_of_a_nested_span_tree():
    spans = [Span("root", 0.0, 10.0, None, 0),
             Span("a", 1.0, 4.0, 0, 0),
             Span("b", 5.0, 9.0, 0, 0),
             Span("c", 6.0, 7.0, 2, 0),
             Span("d", 6.5, 8.0, 2, 0)]   # overlaps its sibling c
    assert self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 1.0, 1.5])


@pytest.mark.parametrize("count, percentile, beyond", [(40, "75", 10), (1400, "99", 14)])
def test_tail_percentile_rule(count, percentile, beyond):
    samples = list(range(count, 0, -1))
    p, value, n_beyond = harness.tail_percentile(samples)
    assert (p, n_beyond) == (percentile, beyond)
    assert value == count - beyond


def test_tail_percentile_needs_twenty_samples():
    with pytest.raises(ValueError):
        harness.tail_percentile(range(19))


def test_tracer_wraps_every_namespace_and_restores():
    from fatpoints import alpha_bounds, hilbert
    originals = (cli.main, cli.find_alpha, alpha_bounds.find_alpha, hilbert.find_alpha)
    tracer = Tracer()
    with tracer.installed():
        assert cli.find_alpha is not originals[1]
        assert alpha_bounds.find_alpha is cli.find_alpha
        tracer.query = 0
        assert harness.call_cli(cli, ["bounds", "--mults", "3,2,2,1", "--json"])[1] == 0
    assert (cli.main, cli.find_alpha, alpha_bounds.find_alpha, hilbert.find_alpha) == originals
    totals = tracer.layer_totals()
    assert totals["cli.main"][0] == 1
    assert totals["alpha_bounds.semigroup_alpha_bound"][0] == 1
    assert totals["alpha_bounds.unloading_alpha"][0] > 0
    assert all(span.end >= span.start for span in tracer.spans)


def test_calibration_fit_recovers_a_known_power():
    import calibrate
    probes = (0.0004, 0.0005, 0.0006, 0.0008)
    series = [[(p, size * p ** 0.6) for p in probes] for size in (0.3, 7.0)]
    assert calibrate.fit(series) == pytest.approx((0.6, 1.0))


def test_probe_powers_match_the_committed_calibration():
    import json
    calibration = json.loads((BENCH / "results" / "calibration.json").read_text())
    assert {w: c["power"] for w, c in calibration["fits"].items()} == \
        workloads.PROBE_POWER


def test_benchmark_json_names_the_metrics_the_harness_reports():
    import json
    from fpbench.tracer import COUNTER_NAMES, SPAN_NAMES
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    layer = {f"{name}.{kind}" for name in SPAN_NAMES for kind in ("calls", "self_s")}
    layer |= set(COUNTER_NAMES) | {"trace.overhead_share"}
    assert {m["name"] for m in spec["per_layer"]} == layer


@pytest.mark.xfail(strict=True, reason="known defect: tau_bounds.cubic_tau reports "
                   "floor(m*n/3), below the expected tau, for 10:2 and 11:1")
@pytest.mark.parametrize("uniform", ["10:2", "11:1"])
def test_bounds_check_passes_on_small_uniform_schemes(uniform):
    import json
    _, code, out, _ = harness.call_cli(cli, ["bounds", "--uniform", uniform, "--json"])
    assert code == 0
    assert workloads.check_bounds([["bounds"]], [json.loads(out)]) == []
