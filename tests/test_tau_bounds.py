import random
from fractions import Fraction

import pytest

from fatpoints import tau_bounds as tb
from fatpoints.hilbert import find_tau


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
    with pytest.raises(ValueError):
        tb.gimigliano_tau((0, 0))


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
        if sum(1 for x in z if x > 0) >= 3:
            # The d = 1 case of this bound is unsound for two points.
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


def test_padding_and_permutation_invariance():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randrange(5, 10)
        z = [rng.randrange(1, 6) for _ in range(n)]
        zz = z + [0, 0]
        shuffled = z[:]
        rng.shuffle(shuffled)
        for fn in (tb.gimigliano_tau, tb.hirschowitz_tau, tb.catalisano_tau):
            assert fn(z).value == fn(zz).value == fn(shuffled).value
        assert tb.roe_tau(z).value == tb.roe_tau(shuffled).value
