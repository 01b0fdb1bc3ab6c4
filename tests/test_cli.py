import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fatpoints
from fatpoints import cli, hilbert
from fatpoints import tau_bounds as tb
from fatpoints.cli import canonical_json, main
from fatpoints.lattice import FatPointSpec
from fatpoints.report import PreconditionError

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
    # only the input block of every command.  Uniform schemes leave out
    # bounds: is_uniform() counts zeros, so a padded uniform scheme runs
    # no uniform-only method.
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
        commands = ["alpha", "tau", "beta", "psi", "hilb"]
        if len(mults) <= 8:
            commands.append("res")
        if given[0] == "--mults":
            commands.append("bounds")
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
    reused = [run(capsys, *argv) for _, argv in _SESSION]
    assert cli._parser.cache_info().misses == 1
    assert [code for code, _, _ in reused] == [code for code, _ in _SESSION]
    monkeypatch.setattr(cli, "_parser", cli._parser.__wrapped__)
    fresh = [run(capsys, *argv) for _, argv in _SESSION]
    for (_, argv), got, want in zip(_SESSION, reused, fresh):
        assert got == want, argv


def test_importing_cli_builds_no_parser():
    src = Path(cli.__file__).resolve().parents[1]
    probe = "import fatpoints.cli as c; i = c._parser.cache_info(); print(i.misses, i.currsize)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert done.stdout.split() == ["0", "0"]


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
