import contextlib
import io
import itertools
import json
import random
from fractions import Fraction

import pytest

from fatpoints import tau_bounds as tb
from fatpoints.cli import main
from fatpoints.hilbert import find_tau, hilbert_polynomial
from fatpoints.oracle import PointConfig, oracle_table
from fatpoints.report import PreconditionError


def test_conic_and_cubic_specializations():
    assert tb.segre_tau(12, 3).value == 18
    assert tb.cubic_tau(12, 3).value == 12
    assert tb.segre_tau(10, 1).value == 5
    assert tb.cubic_tau(10, 1).value == 3
    with pytest.raises(ValueError):
        tb.segre_tau(9, 2)
    with pytest.raises(ValueError):
        tb.cubic_tau(8, 2)
    for n in range(10, 40):
        for m in range(1, 5):
            assert tb.cubic_tau(n, m).value <= tb.segre_tau(n, m).value


def test_gimigliano_examples():
    assert tb.gimigliano_tau([1] * 10).value == 4
    assert tb.gimigliano_tau([2] * 9).value == 6
    assert tb.gimigliano_tau((5,)).value == 5
    for z in [(0, 0), (2, 2), (3, 1, 0), (9, 8, 7, 7, 7), (1, 1, 1, 1, 1)]:
        with pytest.raises(ValueError):
            tb.gimigliano_tau(z)


def _split_floor_loop(points):
    # Reference for tau_bounds._split_floor: f and r stepped up from 0.
    f = 0
    while (f + 1) * (f + 2) <= 2 * points:
        f += 1
    r = 0
    while 2 * r < 2 * points - f * (f + 1):
        r += 1
    return f, r


def _gimigliano_d_loop(n):
    # Reference for gimigliano_tau's d: the least d with d(d+3) >= 2n,
    # stepped up from 0.
    d = 0
    while d * (d + 3) < 2 * n:
        d += 1
    return d


def test_closed_forms_match_the_stepping_loops():
    rng = random.Random(14)
    for n in list(range(1, 2001)) + [rng.randint(2001, 10 ** 5) for _ in range(20)]:
        assert tb._split_floor(n) == _split_floor_loop(n), n
        d = _gimigliano_d_loop(n)
        if n in (2, 5):
            with pytest.raises(PreconditionError, match=f"got n={n}, d={d}$"):
                tb.gimigliano_tau([1] * n)
        else:
            assert tb.gimigliano_tau([1] * n).params == (("d", d),), n
    assert tb._split_floor(0) == _split_floor_loop(0)


def test_gimigliano_rejects_the_conic_case_the_oracle_refutes():
    # m_1 + m_2 = 17 would be the bound at 9,8,7,7,7, but at every seed
    # the five points impose dependent conditions in degrees 17 and 18:
    # dim I_17 = 12 against P = 6 and dim I_18 = 26 against P = 25.
    z = (9, 8, 7, 7, 7)
    assert (hilbert_polynomial(z, 17), hilbert_polynomial(z, 18)) == (6, 25)
    for seed in range(3):
        assert oracle_table(PointConfig.random(5, seed=seed), z, 17, 19) == \
            [[17, 12], [18, 26], [19, hilbert_polynomial(z, 19)]], seed
    assert find_tau(z) == 19
    with pytest.raises(ValueError, match="d\\^2 >= n"):
        tb.gimigliano_tau(z)


def _bounds_docs(mults) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["bounds", "--mults", ",".join(map(str, mults)), "--json"]) == 0
    return json.loads(out.getvalue())


def test_bounds_suite_brackets_the_exact_characters_on_the_grid():
    # Every nonincreasing tuple of 1 to 9 multiplicities in 1..5, where
    # the expected alpha and tau are exact: no alpha-lower report lies
    # above alpha and no tau-upper report below tau.
    for n in range(1, 10):
        for mults in itertools.combinations_with_replacement(range(5, 0, -1), n):
            docs = _bounds_docs(mults)
            value = {doc["method"]: doc["value"] for doc in docs}
            alpha, tau = value["expected-alpha"], value["expected-tau"]
            for doc in docs:
                if doc["direction"] == "alpha-lower":
                    assert doc["value"] <= alpha, (mults, doc)
                elif doc["direction"] == "tau-upper":
                    assert doc["value"] >= tau, (mults, doc)
            assert ("gimigliano" in value) == (n not in (2, 5)), mults


def test_hirschowitz_examples():
    assert tb.hirschowitz_tau([1] * 10).value == 4
    assert tb.hirschowitz_tau([2] * 9).value == 8
    assert tb.hirschowitz_tau((1,)).value == 1


def test_catalisano_examples():
    assert tb.catalisano_tau([2] * 10).value == 7
    assert tb.catalisano_tau([1] * 15).value == 4
    assert tb.catalisano_tau([3] * 9).value == 10
    with pytest.raises(ValueError):
        tb.catalisano_tau((3, 3, 3, 3))
    mixed = tb.catalisano_tau((4, 3, 3, 2, 2, 1))
    assert mixed.validity  # undefined-count resolution is flagged


def test_sqrt_specialization_examples():
    for m in range(0, 8):
        assert tb.sqrt_specialization_tau(16, m).value == 4 * m + 1
        assert tb.sqrt_specialization_tau(25, m).value == 5 * m + 1
    assert tb.sqrt_specialization_tau(10, 1).value == 5
    with pytest.raises(ValueError):
        tb.sqrt_specialization_tau(8, 1)


def test_roe_tau_examples():
    v = tb.roe_tau([1] * 10).value
    assert v == 3  # golden; sandwiches find_tau([1]*10) == 3
    assert v >= find_tau([1] * 10)
    assert tb.roe_tau([0] * 5).value == 0
    assert tb.roe_tau((2, 2)).value == 3
    assert tb.roe_tau([1] * 10 + [0, 0]).value == 3  # zero padding
    with pytest.raises(ValueError):
        tb.roe_tau((2,))


def test_modified_unloading_tau_examples():
    assert tb.modified_unloading_tau([5] * 20, 16, 4).value \
        == tb.modified_unloading_tau_formula_b(20, 5, 16, 4).value == 26
    assert tb.modified_unloading_tau([0, 0], 1, 1).value == 0
    assert tb.modified_unloading_tau([3] * 16, 16, 4).value >= find_tau([3] * 16) == 13
    with pytest.raises(ValueError):
        tb.modified_unloading_tau((1, 1), 3, 1)


def test_modified_tau_formula_values():
    # u = 6, rho = 4, g = 3: max(ceil(6/4) + 24, 26) = 26.
    assert tb.modified_unloading_tau_formula_b(20, 5, 16, 4).value == 26
    assert tb.modified_unloading_tau_formula_b(20, 0, 16, 4).value == 0
    with pytest.raises(ValueError):
        tb.modified_unloading_tau_formula_b(20, 5, 20, 4)
    with pytest.raises(ValueError):
        tb.modified_unloading_tau_formula_a(22, 3, 14, 3)


def test_modified_tau_formula_a_rejects_nonpositive_d():
    for d in (0, -1, -3):
        with pytest.raises(ValueError, match="d must be positive"):
            tb.modified_unloading_tau_formula_a(10, 2, 8, d)


def test_modified_tau_formula_b_rejects_nonpositive_d():
    for d in (0, -1, -3):
        with pytest.raises(ValueError, match="d must be positive"):
            tb.modified_unloading_tau_formula_b(10, 2, 8, d)


def test_modified_tau_formulas_match_algorithm():
    for n in range(4, 24):
        for m in range(0, 5):
            for d in range(1, 5):
                for r in range(1, n + 1):
                    z = [m] * n
                    if 2 * r >= n + d * d:
                        got = tb.modified_unloading_tau_formula_a(n, m, r, d).value
                        assert got == tb.modified_unloading_tau(z, r, d).value, \
                            ("a", n, m, r, d)
                    if r <= d * d:
                        got = tb.modified_unloading_tau_formula_b(n, m, r, d).value
                        assert got == tb.modified_unloading_tau(z, r, d).value, \
                            ("b", n, m, r, d)


def test_formula_b_dominates_sqrt_specialization():
    # With d = ceil(sqrt(n)) and r = n the closed form is at least as
    # good as the bare sqrt specialization.
    from math import isqrt
    for n in range(9, 80):
        d = isqrt(n)
        if d * d != n:
            d += 1
        for m in range(0, 6):
            got = tb.modified_unloading_tau_formula_b(n, m, n, d).value
            assert got <= tb.sqrt_specialization_tau(n, m).value, (n, m)


def test_ran_tau_examples():
    assert tb.ran_tau(22, 3, Fraction(14, 3)).value == 16
    # Perfect square with c = sqrt(n): both branches coincide.
    for m in range(0, 5):
        assert tb.ran_tau(16, m, 4).value == -3 + (m + 1) * 4
    assert tb.ran_tau(10, 0, Fraction(1)).value == -3 + 10
    with pytest.raises(ValueError):
        tb.ran_tau(10, 1, 0)


def test_sandwich_every_bound_above_tau():
    rng = random.Random(6)
    for _ in range(50):
        n = rng.randrange(2, 12)
        z = [rng.randrange(0, 5) for _ in range(n)]
        if sum(x for x in z) == 0 or sorted(z)[-1] == 0:
            continue
        tau = find_tau(z)
        hard = n <= 9
        reports = []
        if sum(1 for x in z if x > 0) >= 5:
            reports.append(tb.catalisano_tau(z))
        if sum(1 for x in z if x > 0) not in (2, 5):
            # The bound needs d^2 >= n, which fails at n = 2 and 5 only.
            reports.append(tb.gimigliano_tau(z))
        reports += [tb.hirschowitz_tau(z), tb.roe_tau(z)]
        r = rng.randrange(1, n + 1)
        d = rng.randrange(1, 4)
        reports.append(tb.modified_unloading_tau(z, r, d))
        for rep in reports:
            if hard:
                assert rep.value >= tau, (z, rep)
            elif rep.value < tau:
                print(f"SHGH counterexample candidate: {rep.method} on {z}: "
                      f"{rep.value} < {tau}")


def _value_or_error(fn, z):
    try:
        return fn(z).value
    except ValueError as exc:
        return str(exc)


def test_padding_and_permutation_invariance():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randrange(5, 10)
        z = [rng.randrange(1, 6) for _ in range(n)]
        zz = z + [0, 0]
        shuffled = z[:]
        rng.shuffle(shuffled)
        for fn in (tb.gimigliano_tau, tb.hirschowitz_tau, tb.catalisano_tau):
            assert _value_or_error(fn, z) == _value_or_error(fn, zz) \
                == _value_or_error(fn, shuffled)
        assert tb.roe_tau(z).value == tb.roe_tau(shuffled).value
