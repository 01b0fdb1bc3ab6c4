import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fatpoints
from fatpoints import cli, hilbert, lattice, oracle, resolution
from fatpoints import tau_bounds as tb
from fatpoints.cli import canonical_json, main
from fatpoints.lattice import FatPointSpec
from fatpoints.report import BoundReport, PreconditionError
from references import reference_parser, report_json

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "perfbench" / "reference"
CATALOGUE_POOL = REFERENCE / "catalogue-small.json"
# One recorded query pool per benchmark workload.
POOLS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_alpha_trivial(capsys):
    code, out, _ = run(capsys, "alpha", "--mults", "0,0")
    assert code == 0
    assert out.strip() == "Value of alpha: 0"


def test_alpha_uniform_json(capsys):
    code, out, _ = run(capsys, "alpha", "--uniform", "22:3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 15
    assert doc["direction"] == "shgh-conjectural"
    assert doc["input"]["n"] == 22
    assert "SHGH-conditional" in doc["validity"]


def test_tau_and_beta(capsys):
    code, out, _ = run(capsys, "tau", "--uniform", "16:2", "--json")
    assert json.loads(out)["value"] == 9
    code, out, _ = run(capsys, "beta", "--mults", "2,2", "--json")
    assert json.loads(out)["value"] == 4


def test_psi_bound(capsys):
    code, out, _ = run(capsys, "psi", "--mults", "90,80,70,60,50,40,40,40,30,20,10",
                       "--json")
    doc = json.loads(out)
    assert code == 0 and doc["value"] == 179
    assert doc["direction"] == "alpha-lower"


def test_res_table_shows_expected_generator_counts(capsys):
    code, out, _ = run(capsys, "res", "--mults", "3,3,3,3,3")
    assert code == 0
    row8 = next(line for line in out.splitlines() if line.strip().startswith("8"))
    assert row8.split() == ["8", "15", "2", "2"]


def test_res_too_many_points_is_precondition_error(capsys):
    code, _, err = run(capsys, "res", "--uniform", "9:1")
    assert code == 3
    assert "8 points" in err


def test_bounds_uniform_includes_unloading_result(capsys):
    code, out, _ = run(capsys, "bounds", "--uniform", "22:3")
    assert code == 0
    assert "Expected value (SHGH) of alpha: 15" in out
    line = next(l for l in out.splitlines() if l.strip().startswith("unloading ["))
    assert "r=19" in line and "d=4" in line and line.rstrip().endswith("15")


def test_bounds_small_n_uses_exact_label(capsys):
    code, out, _ = run(capsys, "bounds", "--mults", "2,2")
    assert code == 0
    assert "Value of alpha: 2" in out
    assert "Expected value" not in out


def test_exactness_counts_positive_multiplicities_not_points(capsys):
    # One triple point padded with nine zeros is a one-point scheme: its
    # characters are exact, in JSON and in text, single and in the suite.
    triple = "0,0,0,0,0,0,0,0,0,3"
    for kind, value in (("alpha", 3), ("tau", 2), ("beta", 3)):
        code, out, _ = run(capsys, kind, "--mults", triple, "--json")
        doc = json.loads(out)
        assert code == 0 and doc["value"] == value, kind
        assert doc["direction"] == "exact" and doc["validity"] == [], kind
        code, out, _ = run(capsys, kind, "--mults", triple)
        assert out.strip() == f"Value of {kind}: {value}"
    code, out, _ = run(capsys, "bounds", "--mults", triple, "--json")
    docs = {doc["method"]: doc for doc in json.loads(out)}
    assert docs["expected-alpha"]["direction"] == docs["expected-tau"]["direction"] == "exact"
    code, out, _ = run(capsys, "bounds", "--mults", triple)
    assert "Value of alpha: 3" in out and "Value of tau: 2" in out
    assert "Expected value" not in out and "note:" not in out
    code, out, _ = run(capsys, "hilb", "--mults", triple, "--json")
    assert json.loads(out)["direction"] == "exact"
    # Ten positive multiplicities stay conjectural, zeros or not.
    code, out, _ = run(capsys, "alpha", "--mults", "1,1,1,1,1,1,1,1,1,0,3", "--json")
    assert json.loads(out)["direction"] == "shgh-conjectural"


def test_bounds_json_roundtrip_and_agreement(capsys):
    code, text_out, _ = run(capsys, "bounds", "--uniform", "12:2")
    code, json_out, _ = run(capsys, "bounds", "--uniform", "12:2", "--json")
    assert code == 0
    docs = json.loads(json_out)
    # Round trip is byte-identical under the canonical serializer.
    assert canonical_json(docs) == json_out
    # No floats anywhere.
    def only_ints(x):
        if isinstance(x, float):
            return False
        if isinstance(x, dict):
            return all(only_ints(v) for v in x.values())
        if isinstance(x, list):
            return all(only_ints(v) for v in x)
        return True
    assert only_ints(docs)
    # Text and JSON agree on every reported value, section by section.
    def values_for(method, direction):
        return [d["value"] for d in docs
                if d["method"] == method and d["direction"] == direction]

    direction = None
    checked = 0
    for line in text_out.splitlines():
        stripped = line.strip()
        if stripped.startswith("Lower bounds on alpha"):
            direction = "alpha-lower"
            continue
        if stripped.startswith("Upper bounds on tau"):
            direction = "tau-upper"
            continue
        if "alpha:" in stripped:
            assert int(stripped.split(":")[-1]) == values_for("expected-alpha",
                                                              "shgh-conjectural")[0]
            checked += 1
            continue
        if "tau:" in stripped:
            assert int(stripped.split(":")[-1]) == values_for("expected-tau",
                                                              "shgh-conjectural")[0]
            checked += 1
            continue
        if direction is None or ":" not in stripped:
            continue
        head, _, tail = stripped.partition(":")
        value_text = tail.strip().split()[0] if tail.strip() else ""
        if not value_text.lstrip("-").isdigit():
            continue
        method = head.split("[")[0].strip()
        assert int(value_text) in values_for(method, direction), line
        checked += 1
    assert checked >= 15


def test_hilb_window(capsys):
    code, out, _ = run(capsys, "hilb", "--mults", "2,2", "--window", "0:4", "--json")
    doc = json.loads(out)
    assert doc["rows"] == [[0, 0], [1, 0], [2, 1], [3, 4], [4, 9]]
    assert doc["alpha"] == 2 and doc["tau"] == 3
    assert doc["direction"] == "exact"


def test_decomp_doubled_line(capsys):
    code, out, _ = run(capsys, "decomp", "--mults", "2,2", "--t", "2", "--json")
    doc = json.loads(out)
    assert doc["in_semigroup"] is True
    assert doc["fixed_part"] == [{"degree": 1, "mults": [1, 1, 0], "multiplicity": 2}]
    code, out, _ = run(capsys, "decomp", "--mults", "2,2", "--t", "1", "--json")
    assert json.loads(out)["in_semigroup"] is False


def test_decomp_requires_degree(capsys):
    code, _, err = run(capsys, "decomp", "--mults", "2,2")
    assert code == 3 and "--t" in err


def test_oracle_matches_expected_table(capsys):
    code, out, _ = run(capsys, "oracle", "--mults", "3,3,3,3,3",
                       "--window", "6:8", "--nu", "--json")
    doc = json.loads(out)
    assert doc["rows"] == [[6, 1, 1], [7, 6, 3], [8, 15, 2]]
    assert doc["prime"] == 31991


def test_oracle_text_header_aligned_with_columns(capsys):
    # The header labels used to sit left of their 6-wide value columns.
    code, out, _ = run(capsys, "oracle", "--mults", "3,3,3,3,3",
                       "--window", "6:8", "--nu", "--seed", "1")
    assert code == 0
    assert out == ("random points mod 31991, seed 1\n"
                   "     t   dim    nu\n"
                   "     6     1     1\n"
                   "     7     6     3\n"
                   "     8    15     2\n")


def test_oracle_empty_window_rejected(capsys):
    code, out, err = run(capsys, "oracle", "--mults", "2,2", "--window", "5:3")
    assert code == 3 and out == ""
    assert "empty degree window [5, 3]" in err
    code, out, err = run(capsys, "oracle", "--mults", "2,2", "--window", "4:3", "--nu")
    assert code == 3 and "empty degree window [4, 3]" in err


def test_oracle_window_and_degree_are_exclusive(capsys):
    # --t used to be dropped without a word when --window was also given.
    code, out, err = run(capsys, "oracle", "--mults", "2,2", "--t", "5", "--window", "1:2")
    assert code == 2 and out == ""
    assert "argument --window: not allowed with argument --t" in err
    code, out, _ = run(capsys, "oracle", "--mults", "2,2", "--t", "5", "--json")
    assert code == 0 and [row[0] for row in json.loads(out)["rows"]] == [5]


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "alpha")[0] == 2                       # missing input
    assert run(capsys, "alpha", "--mults", "1,x")[0] == 2     # malformed list
    assert run(capsys, "nosuch", "--mults", "1")[0] == 2      # unknown command
    assert run(capsys, "alpha", "--mults", "1", "--uniform", "2:1")[0] == 2


def test_negative_multiplicities_rejected(capsys):
    code, _, err = run(capsys, "alpha", "--mults", "2,-1")
    assert code == 3 and "nonnegative" in err


def test_bounds_explicit_method_parameters(capsys):
    code, out, _ = run(capsys, "bounds", "--uniform", "22:3", "--r", "19", "--d", "4",
                       "--json")
    docs = json.loads(out)
    assert code == 0
    unl = next(d for d in docs if d["method"] == "unloading"
               and d["params"] == {"r": 19, "d": 4})
    assert unl["value"] == 15

    code, out, _ = run(capsys, "bounds", "--mults", "5,4,3", "--r", "3", "--d", "2",
                       "--weights", "1,1,1,1", "--json")
    docs = json.loads(out)
    nef = next(d for d in docs if d["method"] == "nef-test")
    assert nef["value"] == 6 and nef["params"]["weights"] == ["1", "1", "1", "1"]

    code, _, err = run(capsys, "bounds", "--uniform", "10:2", "--j", "3")
    assert code == 3 and "--r" in err


_BOUNDS_ARGS = [("--uniform", "22:3"), ("--uniform", "9:2"), ("--mults", "9,8,7,7,7"),
                ("--mults", "5,0,4,3,3,1,0,2,2,1,1"), ("--mults", "0,0"),
                ("--uniform", "22:3", "--r", "19", "--d", "4", "--j", "3"),
                ("--mults", "5,4,3", "--r", "3", "--d", "2", "--weights", "1,1,1,1")]


def test_one_bounds_query_builds_one_spec(capsys, monkeypatch):
    # Every method reads the normal form of the one spec the query builds.
    builds = []
    init = FatPointSpec.__init__
    monkeypatch.setattr(FatPointSpec, "__init__",
                        lambda self, mults: builds.append(mults) or init(self, mults))
    for args in _BOUNDS_ARGS:
        builds.clear()
        code, _, err = run(capsys, "bounds", *args, "--json")
        assert code == 0, (args, err)
        assert len(builds) == 1, args


def test_one_bounds_query_searches_alpha_once(capsys, monkeypatch):
    # The semigroup bound starts from the alpha the query already found.
    calls = []
    search = hilbert._alpha_tau
    counted = lambda *a, **k: calls.append(a) or search(*a, **k)
    monkeypatch.setattr(hilbert, "_alpha_tau", counted)
    monkeypatch.setattr(cli, "_alpha_tau", counted)
    for args in _BOUNDS_ARGS:
        calls.clear()
        code, _, err = run(capsys, "bounds", *args, "--json")
        assert code == 0, (args, err)
        assert len(calls) == 1, args


def test_res_and_hilb_reduce_each_degree_at_most_once(capsys, monkeypatch):
    # Work pins, counted in every namespace that holds the reduction.  res
    # reads e = 0 below alpha and e = P from tau on, shares e per degree
    # with the alpha and tau searches and hands ker_mu_dim the e it knows;
    # reducing every window degree took 187 and 18.
    reductions, kernels = [], []
    raw, ker = lattice.reduce_fundamental_raw, resolution.ker_mu_dim
    counted = lambda d, m: reductions.append(d) or raw(d, m)
    monkeypatch.setattr(lattice, "reduce_fundamental_raw", counted)
    monkeypatch.setattr(hilbert, "reduce_fundamental_raw", counted)
    monkeypatch.setattr(resolution, "ker_mu_dim",
                        lambda f, *known: kernels.append(f.degree) or ker(f, *known))
    for argv, want in [(("res", "--mults", "37,28,13", "--json"), 118),
                       (("hilb", "--mults", "9,8,7,7,7", "--json"), 11)]:
        reductions.clear()
        kernels.clear()
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert len(reductions) == want, (argv, len(reductions))
        if argv[0] == "res":
            # One kernel per degree in [alpha, tau + 1].
            doc = json.loads(out)
            assert kernels == list(range(doc["alpha"], doc["tau"] + 2)), kernels


def test_resolution_and_beta_preconditions_exit_3(capsys):
    for argv, message in [(("res", "--mults", "1,1,1,1,1,1,1,1,1"),
                           "resolution algorithm supports at most 8 points"),
                          (("beta", "--mults", "0,0"),
                           "beta is undefined for the empty subscheme")]:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (3, "", f"error: {message}\n"), argv


def test_only_a_precondition_error_drops_a_default_method(capsys, monkeypatch):
    # A method that does not apply is left out; one that breaks is an error.
    argv = ("bounds", "--uniform", "12:2", "--json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    want = [doc for doc in json.loads(out) if doc["method"] != "hirschowitz"]

    def broken(z):
        raise ValueError("boom")
    monkeypatch.setattr(tb, "hirschowitz_tau", broken)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and "boom" in err

    def inapplicable(z):
        raise PreconditionError("boom")
    monkeypatch.setattr(tb, "hirschowitz_tau", inapplicable)
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert json.loads(out) == want


def _sqrt_rd_loop(n):
    # Reference for cli._sqrt_rd: r stepped up from d^2.
    d = max(1, math.isqrt(n))
    r = d * d
    while r * r < d * d * n:
        r += 1
    return min(r, n), d


def test_sqrt_rd_closed_form_matches_the_stepping_loop():
    rng = random.Random(14)
    for n in list(range(1, 2001)) + [rng.randint(2001, 10 ** 5) for _ in range(20)]:
        assert cli._sqrt_rd(n) == _sqrt_rd_loop(n), n


# The builder lists the uniform-only methods last: four alpha, six tau.
_UNIFORM_ONLY_ALPHA = ("unloading", "modified-unloading-formula-a",
                       "modified-unloading-formula-b", "nagata-reference")
_UNIFORM_ONLY_TAU = ("conic-specialization", "cubic-specialization", "sqrt-specialization",
                     "modified-unloading-formula-a", "modified-unloading-formula-b",
                     "ran-from-alpha")


def _uniform_only_violations(n: int, m: int) -> set:
    # The uniform-only reports on n points of multiplicity m that fall on
    # the wrong side of the expected value: a proven alpha-lower report
    # above alpha, or a tau-upper report below tau.
    z = FatPointSpec((m,) * n)
    alpha, tau = hilbert._alpha_tau(z)
    alpha_makers, tau_makers = cli._default_methods(z, alpha, [])
    lower = cli._run_methods(alpha_makers[-len(_UNIFORM_ONLY_ALPHA):])
    upper = cli._run_methods(tau_makers[-len(_UNIFORM_ONLY_TAU):])
    assert tuple(rep.method for rep in lower) == _UNIFORM_ONLY_ALPHA, (n, m)
    assert tuple(rep.method for rep in upper) == _UNIFORM_ONLY_TAU, (n, m)
    wrong = {(rep.method, n, m) for rep in lower if rep.value > alpha
             and not any("conjectural" in v for v in rep.validity)}
    return wrong | {(rep.method, n, m) for rep in upper if rep.value < tau}


_CUBIC_DEFECT = {("cubic-specialization", 10, 2), ("cubic-specialization", 11, 1)}


def test_uniform_only_methods_bracket_the_expected_values():
    # n > 9 uniform, where the expected alpha is a proven upper bound for
    # alpha and the expected tau a proven lower bound for tau.
    violations = set()
    for n in range(10, 301):
        for m in range(1, 21):
            violations |= _uniform_only_violations(n, m)
    assert violations - _CUBIC_DEFECT == set()


@pytest.mark.xfail(strict=True, reason="known defect: tau_bounds.cubic_tau reports "
                   "floor(m*n/3), below the expected tau, at 10:2 and 11:1")
@pytest.mark.parametrize("n, m", [(10, 2), (11, 1)])
def test_cubic_specialization_brackets_the_expected_tau(n, m):
    assert _uniform_only_violations(n, m) == set()


def _json_without_input(capsys, *argv) -> list:
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, (argv, err)
    doc = json.loads(out)
    docs = doc if isinstance(doc, list) else [doc]
    for d in docs:
        del d["input"]
    return docs


def test_outputs_depend_only_on_the_positive_multiplicities(capsys):
    # Permuting the multiplicities and padding them with zeros changes
    # only the input block of every command.
    rng = random.Random(16)
    for i in range(320):
        if i % 4 == 0:
            n, m = rng.randint(1, 14), rng.randint(1, 6)
            mults, given = [m] * n, ("--uniform", f"{n}:{m}")
        else:
            mults = [rng.randint(1, 8) for _ in range(rng.randint(2, 13))]
            if len(set(mults)) == 1:
                mults[0] += 1
            given = ("--mults", ",".join(map(str, mults)))
        other = mults + [0] * rng.randint(1, 3)
        rng.shuffle(other)
        commands = ["alpha", "tau", "beta", "psi", "hilb", "bounds"]
        if len(mults) <= 8:
            commands.append("res")
        for command in commands:
            assert _json_without_input(capsys, command, *given) == \
                _json_without_input(capsys, command, "--mults", ",".join(map(str, other))), \
                (command, mults, other)


def test_bounds_requested_method_precondition_exits_3(capsys):
    # An explicitly requested method that does not apply is an error, not
    # a silent return to the default suite.
    for args, message in [
            (("--mults", "2,2", "--r", "5", "--d", "1"), "need 1 <= r <= n, got r=5, n=2"),
            (("--mults", "3,3,1", "--r", "2", "--d", "0"), "d must be positive"),
            (("--mults", "2,2,2", "--weights", "1,1,1,1,1", "--r", "1", "--d", "1"),
             "weight vector longer than n+1 = 4")]:
        code, out, err = run(capsys, "bounds", *args, "--json")
        assert code == 3 and out == "", args
        assert message in err, (args, err)


def test_requested_r_counts_positive_multiplicities_only(capsys):
    # Zero multiplicities are not points: padding the scheme with them
    # must not let r past the positive count, in any requested method.
    messages = set()
    for mults in ("3", "3,0,0"):
        for extra in ((), ("--j", "0")):
            code, out, err = run(capsys, "bounds", "--mults", mults, "--r", "3", "--d", "1",
                                 *extra)
            assert code == 3 and out == "", (mults, extra)
            messages.add(err)
    assert messages == {"error: need 1 <= r <= n, got r=3, n=1\n"}


def test_weights_count_positive_multiplicities_only(capsys):
    # The weight vector is measured against the positive multiplicities,
    # so zero padding gives the same error as the scheme without it.
    for mults in ("3", "3,0,0"):
        code, out, err = run(capsys, "bounds", "--mults", mults, "--weights", "1,1,1",
                             "--r", "1", "--d", "1")
        assert code == 3 and out == "", mults
        assert err == "error: weight vector longer than n+1 = 2\n", (mults, err)


@pytest.mark.parametrize("m", range(1, 7))
def test_beta_of_nine_uniform_points_is_past_the_cubic(capsys, m):
    # I_{3m} of nine general m-fold points is m times their one cubic,
    # a single curve, so the base locus first becomes finite at 3m + 1.
    code, out, _ = run(capsys, "beta", "--uniform", f"9:{m}", "--json")
    assert code == 0 and json.loads(out)["value"] == 3 * m + 1


def test_negative_leading_lists_need_the_equals_form(capsys):
    # The same trap for --mults and --weights: "-1,2" is no negative number
    # to argparse, so after a space it is read as an option.
    for spaced, joined, option, message in [
            (("tau", "--mults", "-1,2"), ("tau", "--mults=-1,2"), "--mults",
             "fat-point multiplicities must be nonnegative"),
            (("bounds", "--mults", "3,2", "--weights", "-1,1,1", "--r", "1", "--d", "1"),
             ("bounds", "--mults", "3,2", "--weights=-1,1,1", "--r", "1", "--d", "1"),
             "--weights", "weights must be nonnegative")]:
        code, out, err = run(capsys, *spaced)
        assert (code, out) == (2, ""), spaced
        assert err.splitlines()[-1] == \
            f"fatpoints {spaced[0]}: error: argument {option}: expected one argument"
        assert run(capsys, *joined) == (3, "", f"error: {message}\n"), joined
    code, out, _ = run(capsys, "bounds", "--help")
    assert code == 0 and "--mults=m1,m2,..." in out and "--weights=a0,a1,..." in out


def test_negative_window_lo_needs_the_equals_form(capsys):
    # argparse reads "-3:-1" after a space as an option, not as the value.
    for command in ("hilb", "oracle"):
        code, out, err = run(capsys, command, "--mults", "3", "--window", "-3:-1", "--json")
        assert code == 2 and out == ""
        assert "argument --window: expected one argument" in err
        code, out, _ = run(capsys, command, "--help")
        assert code == 0 and "--window=LO:HI" in out
    code, out, _ = run(capsys, "hilb", "--mults", "3", "--window=-3:-1", "--json")
    assert code == 0 and json.loads(out)["rows"] == [[-3, 0], [-2, 0], [-1, 0]]
    code, out, _ = run(capsys, "oracle", "--mults", "3", "--window=-1:1", "--json")
    assert code == 0 and json.loads(out)["rows"] == [[-1, 0], [0, 0], [1, 0]]


def test_negative_uniform_n_needs_the_equals_form(capsys):
    # The same argparse trap as --window: only the = form reaches the
    # N >= 0 precondition.
    code, out, err = run(capsys, "tau", "--uniform", "-1:2")
    assert code == 2 and out == ""
    assert "argument --uniform: expected one argument" in err
    code, out, err = run(capsys, "tau", "--uniform=-1:2")
    assert code == 3 and out == ""
    assert "uniform input needs N >= 0 and M >= 0" in err
    code, out, _ = run(capsys, "tau", "--help")
    assert code == 0 and "--uniform=N:M" in out


_json_scalars = (st.integers() | st.integers(-10 ** 60, 10 ** 60) | st.text()
                 | st.text(alphabet=st.characters(max_codepoint=0x1f)) | st.booleans()
                 | st.none())
_json_docs = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(_json_docs)
def test_canonical_json_matches_indented_json_dumps(doc):
    assert canonical_json(doc) == json.dumps(doc, indent=2, separators=(",", ": ")) + "\n"


def _shared_docs():
    # Documents in which one dict object occurs more than once.
    block = {"mults": [4, 4, 0], "n": 3}
    yield [{"input": block, "value": 1}, {"input": block, "value": 2}]
    yield {"outer": block, "deeper": [[block, {"again": block}]], "last": block}
    pair = {"left": block, "right": [block, {}], "tail": [block]}
    yield [pair, {"pair": pair, "block": block}, [[pair]], pair]


@pytest.mark.parametrize("doc", list(_shared_docs()))
def test_canonical_json_renders_shared_dicts_at_every_depth(doc):
    # A dict met again is written in full at each occurrence, at that
    # occurrence's indentation.
    expected = json.dumps(doc, indent=2, separators=(",", ": ")) + "\n"
    assert canonical_json(doc) == expected
    assert canonical_json(doc) == expected


def test_bounds_reports_share_one_input_block(capsys, monkeypatch):
    # The input block of a bounds document is rendered once for all its
    # reports: one _write_json call receives it, no canonical_json call.
    block = {"mults": [4] * 60, "n": 60}
    written, serialized = [], []
    write, serialize = cli._write_json, cli.canonical_json
    monkeypatch.setattr(cli, "_write_json",
                        lambda obj, *rest: written.append(obj) or write(obj, *rest))
    monkeypatch.setattr(cli, "canonical_json", lambda doc: serialized.append(doc) or serialize(doc))
    code, out, _ = run(capsys, "bounds", "--uniform", "60:4", "--json")
    docs = json.loads(out)
    assert code == 0 and len(docs) > 20 and all(doc["input"] == block for doc in docs)
    assert [obj for obj in written if obj == block] == [block] and serialized == []
    assert out == json.dumps(docs, indent=2, separators=(",", ": ")) + "\n"


_text = (st.text() | st.text(alphabet=st.characters(max_codepoint=0x1f))
         | st.text(alphabet=st.characters(min_codepoint=0x80)))
_ints = st.integers() | st.integers(-10 ** 60, 10 ** 60)
_param_values = (_ints | st.builds(lambda p, q: f"{p}/{q}", st.integers(), st.integers(1))
                 | st.lists(_ints, max_size=4).map(tuple) | st.lists(_text, max_size=4).map(tuple))
_reports = st.builds(
    BoundReport, _text | st.sampled_from(['nef-"d"', "back\\slash", "tab\there"]),
    st.sampled_from(["alpha-lower", "tau-upper", "exact"]) | _text, _ints,
    st.lists(st.tuples(_text, _param_values), max_size=4, unique_by=lambda kv: kv[0]).map(tuple),
    st.lists(_text, max_size=3).map(tuple))
_blocks = st.lists(st.integers(0, 10 ** 20), max_size=12).map(
    lambda mults: {"mults": mults, "n": len(mults)})


@settings(max_examples=300, deadline=None)
@given(st.lists(_reports, min_size=1, max_size=3), _blocks)
@example([BoundReport("nef-test", "alpha-lower", -10 ** 59,
                      (("r", 3), ("c", "-7/2"), ("weights", ("1", "1/2")), ("w", ()), ("j", (-1, 0))),
                      ("", "\x00\x1f ctrl", "non-ASCII \u00e9\u2261\U0001f600")),
          BoundReport('"quoted" \\ method', "tau-upper", 10 ** 60 - 1)],
         {"mults": [5, 4, 3], "n": 3})
def test_reports_json_matches_the_reference_dicts(reports, block):
    # At both depths: the bounds list, and one report at top level.
    docs = [report_json(block, rep) for rep in reports]
    listed = json.dumps(docs, indent=2, separators=(",", ": ")) + "\n"
    assert cli._reports_json(block, reports, listed=True) == canonical_json(docs) == listed
    single = json.dumps(docs[0], indent=2, separators=(",", ": ")) + "\n"
    assert cli._reports_json(block, reports[:1], listed=False) == canonical_json(docs[0]) == single


@pytest.mark.parametrize("value", [1.5, Fraction(1, 2), True, None, [1, 2], ((1, 2),),
                                   ("1", ("2",)), (1, 1.5), (Fraction(1, 2),)])
def test_reports_json_rejects_other_param_types(value):
    rep = BoundReport("nef-test", "alpha-lower", 1, (("weights", value),))
    for listed in (True, False):
        with pytest.raises(TypeError):
            cli._reports_json({"mults": [1], "n": 1}, [rep], listed)


def test_canonical_json_rejects_other_types():
    for doc in (1.5, (1, 2), {1: 2}, [Fraction(1, 2)], {"a": {"b": set()}}):
        with pytest.raises(TypeError):
            canonical_json(doc)


# Every subcommand, each followed by a usage error (exit 2), a help
# request (exit 0) and a precondition failure (exit 3).
_SESSION = [
    (0, ("alpha", "--mults", "3,2,2", "--json")), (2, ("alpha",)),
    (0, ("alpha", "--help")), (3, ("alpha", "--mults", "2,-1")),
    (0, ("tau", "--uniform", "16:2")), (2, ("tau", "--mults", "1,x")),
    (0, ("tau", "-h")), (3, ("tau", "--uniform=-1:2")),
    (0, ("beta", "--mults", "2,2", "--json")), (2, ("beta", "--uniform", "3")),
    (0, ("--help",)), (3, ("beta", "--mults", "0,0")),
    (0, ("psi", "--mults", "5,4,3,3")), (2, ("psi", "--mults", "1", "--uniform", "2:1")),
    (0, ("psi", "--help")), (3, ("psi", "--mults", "1,-1", "--json")),
    (0, ("hilb", "--mults", "2,2", "--window", "0:4")),
    (2, ("hilb", "--mults", "2", "--window", "1")),
    (0, ("hilb", "--help")), (3, ("hilb", "--mults", "2,2", "--window", "5:3")),
    (0, ("res", "--mults", "3,3,3,3,3", "--json")), (2, ("res", "--mults", "1", "--bogus")),
    (0, ("res", "--help")), (3, ("res", "--uniform", "9:1")),
    (0, ("decomp", "--mults", "2,2", "--t", "2")), (2, ("decomp", "--mults", "2", "--t", "x")),
    (0, ("decomp", "--help")), (3, ("decomp", "--mults", "2,2")),
    (0, ("bounds", "--mults", "3,2,2,1", "--json")), (2, ("bounds", "--mults", "2", "--r", "x")),
    (0, ("bounds", "--help")), (3, ("bounds", "--mults", "2,2", "--r", "5", "--d", "1")),
    (0, ("oracle", "--mults", "2,2", "--nu")), (2, ("oracle", "--mults", "2", "--seed", "x")),
    (0, ("oracle", "--help")), (3, ("oracle", "--mults", "2,2", "--window", "5:3")),
    (2, ()), (2, ("nosuch", "--mults", "1")),
    (0, ("alpha", "--mults", "3,2,2", "--json")),
]


def test_one_parser_answers_every_call_as_a_fresh_one_would(capsys, monkeypatch):
    cli._parser.cache_clear()
    cli._grammar.cache_clear()
    reused = [run(capsys, *argv) for _, argv in _SESSION]
    assert cli._parser.cache_info().misses == 1
    # One grammar entry per command, built at its first query.
    assert cli._grammar.cache_info().misses == cli._grammar.cache_info().currsize == len(_COMMANDS)
    assert [code for code, _, _ in reused] == [code for code, _ in _SESSION]
    monkeypatch.setattr(cli, "_parser", cli._parser.__wrapped__)
    monkeypatch.setattr(cli, "_grammar", cli._grammar.__wrapped__)
    fresh = [run(capsys, *argv) for _, argv in _SESSION]
    for (_, argv), got, want in zip(_SESSION, reused, fresh):
        assert got == want, argv


def test_importing_cli_builds_no_parser():
    # Neither the parser nor any command's grammar entry.
    src = Path(cli.__file__).resolve().parents[1]
    probe = ("import fatpoints.cli as c; "
             "print(*(f.cache_info().misses + f.cache_info().currsize"
             " for f in (c._parser, c._grammar)))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert done.stdout.split() == ["0", "0"]


# One call per command; "--mults=2,2" goes through argparse.
_ONE_CALL_EACH = [("alpha", "--mults", "3,2,2", "--json"), ("tau", "--uniform", "10:2"),
                  ("beta", "--mults", "2,2", "--json"), ("psi", "--mults", "5,4,3,3"),
                  ("hilb", "--mults=2,2"), ("res", "--mults", "3,3,3,3,3", "--json"),
                  ("decomp", "--mults", "3,3,2", "--t", "5"),
                  ("bounds", "--mults", "9,8,7,7,7", "--json"),
                  ("oracle", "--mults", "3,3,2", "--window", "0:8", "--nu", "--json")]
# The modules every command runs, and what each command adds to them: its
# fatpoints modules and, of _WATCHED, those that numpy itself does not load.
_BASE_MODULES = {"fatpoints", "fatpoints.cli", "fatpoints.lattice", "fatpoints.hilbert",
                 "fatpoints.report"}
_WATCHED = ("dataclasses", "inspect", "fractions", "numpy")
_ADDS = {"alpha": set(), "tau": set(), "beta": set(), "hilb": set(), "decomp": set(),
         "psi": {"fatpoints.alpha_bounds"}, "res": {"fatpoints.resolution"},
         "bounds": {"fatpoints.alpha_bounds", "fatpoints.tau_bounds", "fractions"},
         "oracle": {"fatpoints.oracle", "numpy"}}


def test_each_command_imports_only_its_own_modules(capsys):
    # One fresh process per command: what `import fatpoints.cli` loaded,
    # what the command then loaded, its exit code and its output.
    src = Path(cli.__file__).resolve().parents[1]
    probe = ("import contextlib, io, json, sys\n"
             "start = set(sys.modules)\n"
             "import fatpoints.cli as c\n"
             "imported, out = set(sys.modules), io.StringIO()\n"
             "with contextlib.redirect_stdout(out):\n"
             "    code = c.main(sys.argv[1:])\n"
             "print(json.dumps([sorted(imported - start), sorted(set(sys.modules) - imported),"
             " code, out.getvalue()]))\n")

    def fresh(code, *argv):
        done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        return json.loads(done.stdout)

    def watched(names):
        return {m for m in names if m.startswith("fatpoints") or m in _WATCHED}

    numpy_brings = watched(fresh("import json, sys, numpy; print(json.dumps(list(sys.modules)))"))
    for argv in _ONE_CALL_EACH:
        imported, added, code, out = fresh(probe, *argv)
        assert watched(imported) == _BASE_MODULES, argv
        want = _ADDS[argv[0]] | (numpy_brings if "numpy" in _ADDS[argv[0]] else set())
        assert watched(added) == want, argv
        assert (code, out) == (main(list(argv)), capsys.readouterr().out) and code == 0, argv


def test_prime_default_is_the_oracles():
    argv = ["oracle", "--mults", "1"]
    assert cli._parser().parse_args(argv).prime == oracle.DEFAULT_PRIME
    assert cli._recognize(argv).prime == oracle.DEFAULT_PRIME


def _parsed(argv):
    # vars() of what the cached parser returns for argv, None on a usage error.
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._parser().parse_args(argv))
        except SystemExit:
            return None


_COMMANDS = ["alpha", "tau", "beta", "psi", "hilb", "res", "decomp", "bounds", "oracle"]
_REFERENCE_PARSER = reference_parser()


def _outcome(parser, argv):
    # parser.parse_args(argv) as its exit code (None when it returns), its
    # stdout and stderr, and its namespace without func.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parsed, code = vars(parser.parse_args(argv)), None
        except SystemExit as exc:
            parsed, code = None, exc.code
    if parsed is not None:
        parsed = {key: value for key, value in parsed.items() if key != "func"}
    return code, out.getvalue(), err.getvalue(), parsed


@pytest.mark.parametrize("code, argv", [
    (0, ["--help"]),
    *((0, [command, "--help"]) for command in _COMMANDS),
    (2, ["alpha"]), (2, ["alpha", "--mults", "1", "--uniform", "2:1"]),
    (2, ["oracle", "--mults", "2,2", "--window", "0:3", "--t", "2"]),
    (2, ["hilb", "--mults", "2", "--window", "1"]),
    *((None, [command, "--mults", "2"]) for command in _COMMANDS),
])
def test_the_table_parser_matches_the_reference(monkeypatch, code, argv):
    # Both sides of the differential below read the table; this checks the
    # table against the parser written out call by call: help, usage errors
    # and each command's defaults.
    monkeypatch.setenv("COLUMNS", "80")
    got = _outcome(cli._parser(), argv)
    assert got[0] == code and got == _outcome(_REFERENCE_PARSER, argv), argv


# Each option that takes a value, with values its type accepts.
_GOOD = {"--mults": ["3,2", "3,2,2"], "--uniform": ["4:2", "5:3"], "--window": ["0:4", "5:3"],
         "--t": ["7", "0"], "--r": ["2"], "--d": ["1"], "--j": ["0"], "--weights": ["1/2,1", "7"],
         "--seed": ["7", "0"], "--prime": ["7"]}
_VALUES = ["3,2", "", "1,,2", "-1", "-1,2", "-3:-1", "5:3", "7", "x", "1/2", "1/0"]
_OTHER = ["--json", "--nu", "--mul", "--uni", "--js", "--w", "--mults=3,2", "--uniform=4:2",
          "--window=-3:-1", "--t=5", "--json=1", "-h", "--help", "--", "-", "junk", "-x",
          "---mults"]
_TOKENS = st.sampled_from(_COMMANDS + list(_GOOD) + _VALUES + _OTHER).map(lambda t: [t])
_PAIRS = st.sampled_from(list(_GOOD)).flatmap(
    lambda option: (st.sampled_from(_GOOD[option]) | st.sampled_from(_VALUES)).map(
        lambda value: [option, value]))
_FLAGS = st.sampled_from([["--json"], ["--nu"]])
# Most argvs name no input; one is put in at a drawn place, so that about
# one in seven draws is canonical.
_INPUT = st.sampled_from([["--mults", "3,2"], ["--uniform", "4:2"], []])


@settings(max_examples=600, deadline=None)
@example("alpha", ["--mults", "3,2"], 1, [["--json"], ["-h"]])
@example("oracle", ["--mults", "3,2"], 0, [["--window", "0:4"], ["--t", "7"]])
@example("hilb", ["--uniform", "5:3"], 1, [["--mults", "3,2"]])
@given(st.sampled_from(_COMMANDS + [None]), _INPUT, st.integers(0, 4),
       st.lists(st.one_of(_PAIRS, _FLAGS, _TOKENS), max_size=4))
def test_the_canonical_path_agrees_with_argparse_or_declines(command, inputs, at, parts):
    # The canonical path never accepts an argv that argparse rejects, and
    # what it accepts it parses exactly as argparse does; the parser built
    # from the table answers every argv as the reference parser does.
    parts.insert(at, inputs)
    argv = ([command] if command else []) + sum(parts, [])
    want = _parsed(argv)
    got = cli._recognize(argv)
    if got is not None:
        assert want is not None, argv
        assert vars(got) == want, argv
    assert _outcome(cli._parser(), argv) == _outcome(_REFERENCE_PARSER, argv), argv


def test_every_recorded_query_takes_the_canonical_path():
    # The traffic claim: all 2,613 queries of the four pools are canonical.
    argvs = [query["argv"] for pool in POOLS
             for stratum in json.loads((REFERENCE / f"{pool}.json").read_text())["strata"]
             for case in stratum for query in case]
    assert len(argvs) == 2613
    for argv in argvs:
        want = _parsed(argv)
        got = cli._recognize(argv)
        assert got is not None and vars(got) == want, argv


def test_a_canonical_query_runs_no_argparse_parse(capsys, monkeypatch):
    # Work pin: argparse parsed alpha --mults 3,2,2 --json twice, once per
    # parser level; the = form still goes through it.
    calls = []
    parse = argparse.ArgumentParser.parse_known_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                        lambda *a, **k: calls.append(a) or parse(*a, **k))
    outputs = []
    for argv, parsed in [(("alpha", "--mults", "3,2,2", "--json"), False),
                         (("alpha", "--mults=3,2,2", "--json"), True)]:
        calls.clear()
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and bool(calls) == parsed, (argv, len(calls))
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_catalogue_pool_twice_in_one_process(capsys):
    # The first case of every stratum of the benchmark's catalogue pool,
    # twice through one process's parser, against the recorded digests.
    strata = json.loads(CATALOGUE_POOL.read_text())["strata"]
    queries = [query for stratum in strata for query in stratum[0]]
    for _ in range(2):
        for query in queries:
            code, out, _ = run(capsys, *query["argv"])
            assert code == 0, query["argv"]
            assert hashlib.sha256(out.encode()).hexdigest() == query["sha256"], query["argv"]


@pytest.mark.parametrize("pool", POOLS)
def test_every_reference_query_gives_its_recorded_digest(capsys, pool):
    # The --json outputs are the behavioural contract: every query the
    # benchmark pool recorded must still print exactly the same bytes.
    strata = json.loads((REFERENCE / f"{pool}.json").read_text())["strata"]
    queries = [query for stratum in strata for case in stratum for query in case]
    assert queries
    for query in queries:
        code, out, err = run(capsys, *query["argv"])
        assert code == 0, (query["argv"], err)
        assert hashlib.sha256(out.encode()).hexdigest() == query["sha256"], query["argv"]


def test_every_public_name_resolves():
    # A dropped comma in __all__ joins two names into one that resolves
    # to nothing.
    assert len(set(fatpoints.__all__)) == len(fatpoints.__all__)
    for name in fatpoints.__all__:
        assert hasattr(fatpoints, name), name
