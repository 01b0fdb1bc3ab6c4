import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpoints import alpha_bounds as ab
from fatpoints import cli
from fatpoints.hilbert import find_alpha
from fatpoints.lattice import FatPointSpec
from fatpoints.report import PreconditionError
from references import (semigroup_scan_from_alpha, unloading_alpha_formula, unloading_search_loop,
                        variant_d_search_loop)

Z90 = (90, 80, 70, 60, 50, 40, 40, 40, 30, 20, 10)


def test_nef_test_bound_examples():
    # Unit weights on the first three points, a conic through them.
    assert ab.nef_test_bound((5, 4, 3), (1, 1, 1, 1), 3, 2).value == 6
    # Zeros are no points, so the all-zero scheme takes no weights.
    with pytest.raises(PreconditionError, match="longer than n"):
        ab.nef_test_bound((0, 0, 0), (1, 1), 1, 1)
    assert ab.nef_test_bound((5, 0, 4, 0, 3), (1, 1, 1, 1), 3, 2).value == 6
    rep = ab.nef_test_bound([3] * 22, [19] + [16] * 22, 19, 4)
    assert rep.value == 14


def test_nef_test_rational_weights_cleared():
    # Same bound after scaling all weights by 1/4.
    rep = ab.nef_test_bound([3] * 22, [Fraction(19, 4)] + [Fraction(4)] * 22, 19, 4)
    assert rep.value == 14


def test_nef_test_precondition_names():
    with pytest.raises(ValueError, match="all zero"):
        ab.nef_test_bound((1, 1), (0, 0, 0), 1, 1)
    with pytest.raises(ValueError, match="nonincreasing"):
        ab.nef_test_bound((1, 1), (1, 2, 1), 1, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        ab.nef_test_bound((1, 1), (1, -1), 1, 1)
    with pytest.raises(ValueError, match="a0"):
        ab.nef_test_bound((1, 1, 1), (1, 1, 1, 1), 3, 1)  # a0*d^2 < a1+a2+a3
    with pytest.raises(ValueError, match=r"r\*a0"):
        ab.nef_test_bound((1, 1, 1), (1, 1, 1, 1), 1, 2)  # r*a0 < a1+a2+a3
    with pytest.raises(ValueError, match="r"):
        ab.nef_test_bound((1, 1), (1, 1, 1), 5, 1)


def test_variant_examples():
    u = [3] * 22
    assert ab.nef_variant_bound(u, "a", 19, 4).value == 14
    assert ab.nef_variant_bound(u, "b", 14, 3).value == 14
    assert ab.nef_variant_bound((5, 4, 3), "c", 3, 2).value == 6
    best = ab.best_variant_d_search(Z90)
    assert best.value == 173


def test_variant_side_conditions():
    u = [3] * 22
    with pytest.raises(ValueError):
        ab.nef_variant_bound(u, "a", 14, 4)       # r^2 < n d^2
    with pytest.raises(ValueError):
        ab.nef_variant_bound(u, "b", 19, 4)       # r^2 > n d^2
    with pytest.raises(ValueError):
        ab.nef_variant_bound(u, "c", 5, 2)        # d^2 < r
    with pytest.raises(ValueError):
        ab.nef_variant_bound(u, "d", 5, 3)        # d^2 >= r
    with pytest.raises(ValueError):
        ab.nef_variant_bound(u, "d", 10, 3, j=10)  # j > d^2
    with pytest.raises(ValueError):
        ab.nef_variant_bound(u, "e", 1, 1)


def test_variant_d_j_zero_matches_prefix():
    # j = 0 degenerates to the plain prefix family with r = d^2.
    z = (9, 7, 7, 6, 5, 5, 4, 4, 3, 2)
    for d in (1, 2):
        got = ab.nef_variant_bound(z, "d", d * d + 2, d, j=0).value
        want = ab.nef_variant_bound(z, "c", d * d, d).value
        assert got == want


def test_best_rd_examples():
    assert ab.best_rd_a(22) == (19, 4)
    assert ab.best_rd_b(22) == (14, 3)
    assert ab.best_rd_b(16) == (4, 1)
    assert ab.best_rd_a(1) == (1, 1)
    for n in range(1, 60):
        ra, da = ab.best_rd_a(n)
        rb, db = ab.best_rd_b(n)
        assert ra <= n and ra * ra >= n * da * da
        assert rb <= n and rb * rb <= n * db * db


def _best_rd_a_loop(n):
    # Reference for best_rd_a: the least r stepped up from d * isqrt(n).
    root = math.isqrt(n)
    r, d = (root if root * root == n else root + 1), 1
    for cand_d in range(1, root + 1):
        cand_r = cand_d * root
        while cand_r * cand_r < cand_d * cand_d * n:
            cand_r += 1
        if cand_r * d < cand_d * r:
            r, d = cand_r, cand_d
    return r, d


def _best_rd_b_loop(n):
    # Reference for best_rd_b: the largest r stepped down from d * top.
    root = math.isqrt(n)
    top = root if root * root == n else root + 1
    r, d = (root if root * root == n else root - 1), 1
    for cand_d in range(1, top + 1):
        cand_r = cand_d * top
        while cand_r * cand_r > cand_d * cand_d * n:
            cand_r -= 1
        cand_r = min(cand_r, n)
        if cand_r * d > cand_d * r:
            r, d = cand_r, cand_d
    return r, d


def test_best_rd_closed_forms_match_the_stepping_loops():
    rng = random.Random(14)
    for n in list(range(1, 2001)) + [rng.randint(2001, 10 ** 5) for _ in range(20)]:
        assert ab.best_rd_a(n) == _best_rd_a_loop(n), n
        assert ab.best_rd_b(n) == _best_rd_b_loop(n), n


def test_unloading_examples():
    u = [3] * 22
    assert ab.unloading_alpha(u, 19, 4).value == 15
    assert ab.unloading_alpha(u, 14, 3).value == 14  # r^2 <= n d^2: same as nef test
    # r counts positive multiplicities: zeros are no points to pass through.
    for z, r in (([0, 0], 1), ((1, 1), 3), ((1, 1, 0), 3)):
        with pytest.raises(ValueError):
            ab.unloading_alpha(z, r, 1)


def test_unloading_formula_examples():
    assert unloading_alpha_formula(22, 3, 19, 4).value == 15
    with pytest.raises(PreconditionError):
        unloading_alpha_formula(22, 0, 19, 4)  # no point at m = 0
    with pytest.raises(ValueError):
        unloading_alpha_formula(22, 3, 14, 3)  # 2r < n + d^2


def test_unloading_formula_rejects_nonpositive_d():
    for d in (0, -1, -3):
        with pytest.raises(ValueError, match="d must be positive"):
            unloading_alpha_formula(10, 2, 8, d)


def _both_reject(*calls):
    # Every call raises PreconditionError.
    for call in calls:
        with pytest.raises(PreconditionError):
            call()


def test_unloading_formula_matches_algorithm():
    # At m = 0 the algorithm has no point for the curve to pass, and both
    # sides reject the scheme.
    for n in range(4, 26):
        for m in range(0, 5):
            for d in range(1, 5):
                for r in range(1, n + 1):
                    if 2 * r >= n + d * d:
                        if m == 0:
                            _both_reject(lambda: unloading_alpha_formula(n, m, r, d),
                                         lambda: ab.unloading_alpha([m] * n, r, d))
                            continue
                        got = unloading_alpha_formula(n, m, r, d).value
                        want = ab.unloading_alpha([m] * n, r, d).value
                        assert got == want, (n, m, r, d)


def test_roe_examples():
    assert ab.roe_alpha([13] * 1000).value == 421
    assert ab.roe_alpha([13] * 9000).value == 1274
    assert ab.roe_alpha(Z90).value == 162
    assert ab.roe_alpha((7,)).value == 7
    assert ab.roe_alpha((0, 0, 0)).value == 0


def test_roe_exact_for_simple_points():
    for n in range(2, 31):
        assert ab.roe_alpha([1] * n).value == find_alpha([1] * n), n


def test_modified_unloading_examples():
    assert ab.modified_unloading_alpha([13] * 1000, 981, 31).value == 424
    assert ab.modified_unloading_alpha([13] * 9000, 8918, 94).value == 1267
    with pytest.raises(ValueError):
        ab.modified_unloading_alpha([0, 0, 0], 2, 1)
    # J_0 = [0, 0] and I_0 = [2, 1] is empty: degree 1 is neither
    # subtracted nor ruled out.
    assert ab.modified_unloading_alpha([1, 1], 2, 4).value == 1
    rep = ab.modified_unloading_alpha([2] * 10, 8, 3)
    assert "characteristic 0" in rep.validity[0]


def test_modified_formula_examples():
    assert ab.modified_unloading_alpha_formula_a(1000, 13, 981, 31).value == 424
    assert ab.modified_unloading_alpha_formula_a(9000, 13, 8918, 94).value == 1267
    assert ab.modified_unloading_alpha_formula_b(20, 5, 16, 4).value == 21
    with pytest.raises(PreconditionError):
        ab.modified_unloading_alpha_formula_b(20, 0, 16, 4)  # no point at m = 0
    with pytest.raises(ValueError):
        ab.modified_unloading_alpha_formula_a(22, 3, 14, 3)
    with pytest.raises(ValueError):
        ab.modified_unloading_alpha_formula_b(20, 5, 20, 4)  # r > d^2


def test_modified_formula_a_rejects_nonpositive_d():
    for d in (0, -1, -3):
        with pytest.raises(ValueError, match="d must be positive"):
            ab.modified_unloading_alpha_formula_a(10, 2, 8, d)


def test_modified_formula_b_rejects_nonpositive_d():
    for d in (0, -1, -3):
        with pytest.raises(ValueError, match="d must be positive"):
            ab.modified_unloading_alpha_formula_b(10, 2, 8, d)


def test_modified_formulas_match_algorithm():
    # Both sides reject m = 0, as in test_unloading_formula_matches_algorithm.
    for n in range(4, 24):
        for m in range(0, 5):
            for d in range(1, 5):
                for r in range(1, n + 1):
                    z = [m] * n
                    if m == 0:
                        _both_reject(lambda: ab.modified_unloading_alpha_formula_a(n, m, r, d),
                                     lambda: ab.modified_unloading_alpha_formula_b(n, m, r, d),
                                     lambda: ab.modified_unloading_alpha(z, r, d))
                        continue
                    if 2 * n >= 2 * r >= n + d * d:
                        got = ab.modified_unloading_alpha_formula_a(n, m, r, d).value
                        assert got == ab.modified_unloading_alpha(z, r, d).value, \
                            ("a", n, m, r, d)
                    if d * (d + 1) // 2 <= r <= min(n, d * d):
                        got = ab.modified_unloading_alpha_formula_b(n, m, r, d).value
                        assert got == ab.modified_unloading_alpha(z, r, d).value, \
                            ("b", n, m, r, d)


def test_semigroup_bound_examples():
    assert ab.semigroup_alpha_bound(Z90).value == 179
    assert ab.semigroup_alpha_bound([2] * 10).value == 6
    assert ab.semigroup_alpha_bound((1,)).value == 1
    with pytest.raises(ValueError):
        ab.semigroup_alpha_bound((0, 0))


def test_semigroup_scan_below_the_top_three_sum_matches_the_scan_from_alpha():
    # The scan starts at min(alpha, m1 + m2 + m3 - 1); the reference
    # scans every degree down from alpha.  Its cost grows like m n^1.5,
    # so past 40 points the uniform grid takes a seeded sample of n.
    rng = random.Random(24)
    for n in list(range(1, 41)) + rng.sample(range(41, 2001), 16):
        for m in range(1, 21):
            z = [m] * n
            assert ab.semigroup_alpha_bound(z).value == semigroup_scan_from_alpha(z), (n, m)
    for _ in range(200):
        z = [rng.randint(0, rng.choice((3, 11, 40))) for _ in range(rng.randint(1, 60))]
        if any(z):
            assert ab.semigroup_alpha_bound(z).value == semigroup_scan_from_alpha(z), z
    for z in ([0] * 5, [0]):
        with pytest.raises(PreconditionError):
            ab.semigroup_alpha_bound(z)


def test_semigroup_bound_makes_one_reduction_at_30000_points(monkeypatch, capsys):
    # alpha is far above m1 + m2 + m3 = 39, and 38 is the first
    # non-member: one reduction, where the scan from alpha made 2,299.
    calls = []
    raw = ab.reduce_fundamental_raw
    monkeypatch.setattr(ab, "reduce_fundamental_raw",
                        lambda t, m: calls.append(t) or raw(t, m))
    assert cli.main(["bounds", "--uniform", "30000:13", "--json"]) == 0
    found = {d["method"]: d["value"] for d in json.loads(capsys.readouterr().out)}
    assert found["semigroup-membership"] == 39
    assert calls == [38]


def test_best_unloading_search():
    rep = ab.best_unloading_search([3] * 22)
    assert rep.value == 15 and dict(rep.params) == {"r": 19, "d": 4}
    assert ab.best_unloading_search((1,)).value == 1
    assert ab.best_unloading_search(Z90).value >= 173


def test_nagata_reference_values():
    assert ab.nagata_reference(1000, 13).value == 412
    assert ab.nagata_reference(9000, 13).value == 1234
    assert ab.nagata_reference(4, 1).value == 3
    assert ab.nagata_reference(16, 5).value == 21


def test_dominance_unloading_beats_nef_test():
    rng = random.Random(1)
    for _ in range(60):
        n = rng.randrange(2, 14)
        z = sorted((rng.randrange(0, 7) for _ in range(n)), reverse=True)
        if sum(z) == 0:
            continue
        r = rng.randrange(1, len(FatPointSpec(z).positive) + 1)
        d = rng.randrange(1, 5)
        unl = ab.unloading_alpha(z, r, d).value
        for variant in "abcd":
            try:
                if variant == "d":
                    nef = ab.nef_variant_bound(z, variant, r, d,
                                               j=rng.randrange(0, d * d + 1)).value
                else:
                    nef = ab.nef_variant_bound(z, variant, r, d).value
            except ValueError:
                continue
            if variant in ("c", "d"):
                # Prefix families need no uniformity; comparable directly.
                assert unl >= nef or variant in ("a", "b"), (z, r, d, variant)
        if len(set(x for x in z if x)) <= 1:
            for variant in "ab":
                try:
                    nef = ab.nef_variant_bound(z, variant, r, d).value
                except ValueError:
                    continue
                assert unl >= nef, (z, r, d, variant)


def test_dominance_modified_beats_plain_unloading():
    rng = random.Random(2)
    for _ in range(80):
        n = rng.randrange(2, 14)
        z = [rng.randrange(0, 7) for _ in range(n)]
        if sum(z) == 0:
            continue
        r = rng.randrange(1, len(FatPointSpec(z).positive) + 1)
        d = rng.randrange(1, 5)
        assert ab.modified_unloading_alpha(z, r, d).value \
            >= ab.unloading_alpha(z, r, d).value, (z, r, d)


def test_soundness_every_bound_below_alpha():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randrange(1, 12)
        z = [rng.randrange(0, 6) for _ in range(n)]
        if sum(z) == 0:
            continue
        alpha = find_alpha(z)
        hard = n <= 9
        reports = [ab.semigroup_alpha_bound(z), ab.roe_alpha(z)]
        r = rng.randrange(1, len(FatPointSpec(z).positive) + 1)
        d = rng.randrange(1, 4)
        reports.append(ab.unloading_alpha(z, r, d))
        reports.append(ab.modified_unloading_alpha(z, r, d))
        for rep in reports:
            if hard:
                assert rep.value <= alpha, (z, rep)
            elif rep.value > alpha:
                print(f"SHGH counterexample candidate: {rep.method} on {z}: "
                      f"{rep.value} > {alpha}")


def test_zero_padding_invariance_of_bounds():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randrange(1, 9)
        z = [rng.randrange(1, 6) for _ in range(n)]
        zz = z + [0, 0]
        r = rng.randrange(1, n + 1)
        d = rng.randrange(1, 4)
        assert ab.roe_alpha(z).value == ab.roe_alpha(zz).value
        assert ab.semigroup_alpha_bound(z).value == ab.semigroup_alpha_bound(zz).value
        assert ab.unloading_alpha(z, r, d).value == ab.unloading_alpha(zz, r, d).value
        assert ab.modified_unloading_alpha(z, r, d).value \
            == ab.modified_unloading_alpha(zz, r, d).value


# ---------------------------------------------------------------------------
# Differential tests: the pruned searches against the plain exhaustive ones.


def _naive_prefix_spread(w, r, d, j):
    # Weight family (d) in Fractions, straight from slices of w.
    n = len(w)
    if d * d >= r:
        return math.ceil(Fraction(sum(w[:r]), d))
    if j == 0:
        return math.ceil(Fraction(sum(w[:d * d]), d))
    q = r - d * d
    m_cut = (q * (q + j)) // j
    head = sum(w[:d * d - j])
    tail = Fraction(sum(w[d * d - j:min(m_cut + r, n)]) * j, q + j)
    if m_cut + r < n:
        tail += w[m_cut + r] * (q - Fraction(j * m_cut, q + j))
    return math.ceil((head + tail) / d)


def _naive_variant_d_all(z):
    # Every (r, d, j) the family-(d) search visits, in visiting order.
    w = FatPointSpec(z).positive
    values = {}
    for r in range(1, len(w) + 1):
        d = 0
        while d * d < r:
            d += 1
            for j in range(1, d * d + 1):
                values[(r, d, j)] = _naive_prefix_spread(w, r, d, j)
    return values


def _first_max(values):
    best, arg = 0, (0,) * len(next(iter(values)))
    for params, value in values.items():
        if value > best:
            best, arg = value, params
    return best, arg


def _naive_unloading_all(z):
    w = FatPointSpec(z).positive
    values = {}
    for r in range(1, len(w) + 1):
        d = 1
        while d * d <= r:
            values[(r, d)] = ab.unloading_alpha(w, r, d).value
            d += 1
    return values


def _assert_searches_match(z):
    if not any(z):
        return
    rep = ab.best_variant_d_search(z)
    best, (r, d, j) = _first_max(_naive_variant_d_all(z))
    assert (rep.value, rep.params) == (best, (("r", r), ("d", d), ("j", j))), z
    rep = ab.best_unloading_search(z)
    best, (r, d) = _first_max(_naive_unloading_all(z))
    assert (rep.value, rep.params) == (best, (("r", r), ("d", d))), z


_mixed = st.lists(st.integers(0, 12), min_size=1, max_size=24)
_small = st.lists(st.integers(0, 40), min_size=1, max_size=4)
_uniform = st.tuples(st.integers(1, 40), st.integers(1, 15))


@settings(max_examples=150, deadline=None)
@given(_mixed)
def test_searches_match_exhaustive_on_mixed_vectors(z):
    _assert_searches_match(z)


@settings(max_examples=150, deadline=None)
@given(_small)
def test_searches_match_exhaustive_on_small_n(z):
    _assert_searches_match(z)


@settings(max_examples=40, deadline=None)
@given(_uniform)
def test_searches_match_exhaustive_on_uniform_vectors(nm):
    n, m = nm
    _assert_searches_match([m] * n)


@settings(max_examples=150, deadline=None)
@given(_mixed, st.data())
def test_integer_prefix_spread_matches_fractions(z, data):
    # Every branch: d^2 >= r (family (c)), j = 0, and 1 <= j <= d^2.
    spec = FatPointSpec(z)
    w, sums = spec.positive, spec.sums
    if not w:
        return
    r = data.draw(st.integers(1, len(w)))
    d = data.draw(st.integers(1, 7))
    j = data.draw(st.integers(0, d * d))
    assert ab._prefix_spread_bound(w, sums, r, d, j) == _naive_prefix_spread(w, r, d, j)
    if d * d < r:
        assert ab.nef_variant_bound(z, "d", r, d, j).value \
            == _naive_prefix_spread(w, r, d, j)


def test_family_c_branch_winner_matches_exhaustive():
    # A dominant top multiplicity makes the d^2 >= r fallback at
    # (r, d) = (1, 1) the maximum; it must be recorded with j = 1.
    for z in [(7,), (10, 1), (9, 2, 1), (40, 3, 3, 0), (13, 5, 0, 5, 1)]:
        values = _naive_variant_d_all(z)
        best, (r, d, j) = _first_max(values)
        assert d * d >= r and j == 1
        _assert_searches_match(z)


def test_tied_parameters_keep_the_first():
    # Several tuples reach the maximum here; the searches keep the first.
    for z in [[2] * 10, [1] * 30, [4] * 9, [5, 5, 4, 4, 0, 3], [6, 6, 6, 1],
              [3, 3, 2, 2, 1, 1]]:
        d_values = _naive_variant_d_all(z)
        u_values = _naive_unloading_all(z)
        assert list(d_values.values()).count(max(d_values.values())) > 1, z
        assert list(u_values.values()).count(max(u_values.values())) > 1, z
        _assert_searches_match(z)


# ---------------------------------------------------------------------------
# Differential tests at pool scale: the seeded, interval-pruned searches
# against the unseeded loops they replace, at sizes where the seeds and
# intervals cut most pairs.


def _assert_searches_match_the_loops(z):
    rep = ab.best_variant_d_search(z)
    assert (rep.value, rep.params) == variant_d_search_loop(z), ("nef-d", z)
    rep = ab.best_unloading_search(z)
    assert (rep.value, rep.params) == unloading_search_loop(z), ("unloading", z)


def test_searches_match_the_loops_on_every_uniform_scheme_to_300_points():
    for n in range(1, 301):
        for m in range(1, 16):
            _assert_searches_match_the_loops([m] * n)


def test_searches_match_the_loops_on_seeded_mixed_vectors():
    rng = random.Random(22)
    for i in range(300):
        z = [rng.randint(1, 11) for _ in range(rng.randint(10, 150))]
        if i % 3 == 0:
            z += [0] * rng.randint(1, 4)
        _assert_searches_match_the_loops(z)
    for length in range(9, 15):
        for step in (3, 4, 6, 8, 10):
            _assert_searches_match_the_loops([step * (length - i) for i in range(length)])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 12), min_size=2, max_size=60), st.data())
def test_spread_cap_bounds_every_j(z, data):
    spec = FatPointSpec(z)
    w, sums = spec.positive, spec.sums
    if len(w) < 2:
        return
    d = data.draw(st.integers(1, math.isqrt(len(w) - 1)))
    r = data.draw(st.integers(d * d + 1, len(w)))
    j = data.draw(st.integers(1, d * d))
    cap = ab._spread_cap(w, sums, r, d, j)
    assert cap >= max(_naive_prefix_spread(w, r, d, k) for k in range(j, d * d + 1)), (w, r, d, j)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 12), min_size=2, max_size=60), st.data())
def test_reach_interval_holds_every_r_whose_reach_beats_best(z, data):
    spec = FatPointSpec(z)
    w, sums = spec.positive, spec.sums
    n = len(w)
    if n < 2:
        return
    d = data.draw(st.integers(1, math.isqrt(n - 1)))
    best = data.draw(st.integers(0, -(-sums[-1] // d)))
    lo, hi = ab._reach_interval(w, sums, d, best)
    dd = d * d
    for r in range(dd + 1, n + 1):
        w_r = w[r] if r < n else 0
        reach = sums[dd] * r + min((r - dd) * r, (n - r) * dd) * w_r
        if -(-reach // (r * d)) > best:
            assert lo <= r <= hi, (w, d, best, r)


def test_family_d_search_work_at_9000_points(monkeypatch):
    # One value per seed, d = 1..94 with d^2 < 9000, then the j = 1..49
    # of the one pair, (664, 7), that the caps leave to the j loop.
    calls = []
    spread = ab._prefix_spread_bound

    def counted(*args):
        calls.append(args[2:])
        return spread(*args)

    monkeypatch.setattr(ab, "_prefix_spread_bound", counted)
    rep = ab.best_variant_d_search([13] * 9000)
    assert (rep.value, rep.params) == (1234, (("r", 664), ("d", 7), ("j", 49)))
    assert len(calls) == 94 + 49
    assert calls[94:] == [(664, 7, j) for j in range(1, 50)]


def test_family_d_evaluations_on_a_mixed_vector(monkeypatch):
    # The tail cap stops each pair's j loop at the first j whose cap is
    # at most the best: 4,479 evaluations here, where the loop over every
    # j of an admitted pair made 15,536.
    rng = random.Random(0)
    z = [rng.randint(1, 11) for _ in range(200)]
    calls = []
    spread = ab._prefix_spread_bound
    monkeypatch.setattr(ab, "_prefix_spread_bound",
                        lambda *args: calls.append(args[2:]) or spread(*args))
    rep = ab.best_variant_d_search(z)
    assert (rep.value, rep.params) == variant_d_search_loop(z)
    assert len(calls) == 4479
