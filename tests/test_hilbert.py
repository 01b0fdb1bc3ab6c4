import itertools
import random
from math import ceil, log2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fatpoints.hilbert as hb
from fatpoints.hilbert import (beta_expected, expected_dim, find_alpha,
                               find_tau, hilbert_polynomial,
                               hilbert_table, _e, _expected_dim, _least_above,
                               _uniform_alpha_tau)
from fatpoints.lattice import (DivisorClass, FatPointSpec, canonical_class,
                               decompose, intersection, reduce_fundamental_raw)
from fatpoints.report import PreconditionError
from references import tau_scan_from_alpha, uniform_alpha_closed_form

specs = st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=9)


def test_hilbert_polynomial_examples():
    assert hilbert_polynomial([1] * 10, 3) == 0
    assert hilbert_polynomial([], 2) == 6
    assert hilbert_polynomial([3] * 5, 8) == 15


@given(specs, st.integers(min_value=-3, max_value=30))
def test_hilbert_polynomial_integrality(mults, t):
    s = sum(m * (m + 1) for m in mults)
    assert 2 * hilbert_polynomial(mults, t) == t * t + 3 * t + 2 - s


def test_expected_dim_examples():
    assert expected_dim(DivisorClass(2, (0, 0, 0))) == 6
    assert expected_dim(DivisorClass(3, (2, 2))) == 4
    assert expected_dim(DivisorClass(1, (1, 1, 1))) == 0


def _expected_dim_ref(f: DivisorClass) -> int:
    # expected_dim on a DivisorClass as it was before the raw helper: the
    # second reduction runs whether or not the clamp changed anything.
    d, m = reduce_fundamental_raw(f.degree, f.mults)
    if d < 0:
        return 0
    d, m = reduce_fundamental_raw(d, [x if x > 0 else 0 for x in m])
    if d < 0:
        return 0
    s = sum(x * (x + 1) for x in m if x > 0)
    return max(0, (d * d + 3 * d + 2 - s) // 2)


def test_raw_expected_dim_matches_the_class_version():
    rng = random.Random(8)
    seen = {"short": 0, "negative degree": 0, "clamped": 0, "nonzero": 0}
    for _ in range(6000):
        n = rng.randrange(0, 11)
        m = [rng.randint(-4, 12) for _ in range(n)]
        d = rng.randint(-10, 40)
        want = _expected_dim_ref(DivisorClass(d, m))
        assert _expected_dim(d, m) == want, (d, m)
        assert expected_dim(DivisorClass(d, m)) == want, (d, m)
        first_d, first_m = reduce_fundamental_raw(d, m)
        seen["short"] += n < 3
        seen["negative degree"] += d < 0
        seen["clamped"] += first_d >= 0 and first_m[-1] < 0
        seen["nonzero"] += want > 0
    assert min(seen.values()) >= 200, seen


def test_expected_dim_reduction_invariance():
    from fatpoints.lattice import clamp_nonneg, reduce_fundamental
    for f in [DivisorClass(3, (2, 2)), DivisorClass(7, (3, 3, 3, 3)),
              DivisorClass(12, (5, 5, 4, 3, 2, 1)), DivisorClass(6, (3, 3, 3, 3, 3))]:
        t, _ = reduce_fundamental(f)
        if t.degree >= 0:
            assert expected_dim(f) == expected_dim(clamp_nonneg(t))
        else:
            assert expected_dim(f) == 0


def _chi(f: DivisorClass) -> int:
    # Riemann-Roch: chi(F) = (F.F - K.F) / 2 + 1.
    k = canonical_class(len(f.mults))
    return (intersection(f, f) - intersection(k, f)) // 2 + 1


def test_h1_examples():
    # Nine simple points impose independent conditions on cubics: e = chi.
    assert expected_dim(DivisorClass(3, (1,) * 9)) == _chi(DivisorClass(3, (1,) * 9)) == 1
    assert expected_dim(DivisorClass(4, ())) == _chi(DivisorClass(4, ())) == 15
    # Two double points off a conic band: e - chi stays nonnegative.
    assert expected_dim(DivisorClass(2, (2, 2))) >= _chi(DivisorClass(2, (2, 2)))


def test_find_alpha_examples():
    assert find_alpha((2, 2)) == 2
    assert find_alpha([2] * 8) == 6          # ceil(96/17)
    assert find_alpha([]) == 0
    assert find_alpha([0, 0]) == 0
    for m in range(1, 6):
        assert find_alpha([m] * 16) == 4 * m + 1


def test_find_tau_examples():
    assert find_tau([1] * 10) == 3
    assert find_tau([]) == 0
    for m in range(1, 6):
        assert find_tau([m] * 16) == 4 * m + 1


def test_uniform_alpha_closed_form_table():
    assert uniform_alpha_closed_form(6, 5) == 12
    assert uniform_alpha_closed_form(9, 7) == 21
    assert uniform_alpha_closed_form(1, 0) == 0
    with pytest.raises(ValueError):
        uniform_alpha_closed_form(10, 3)


def test_closed_form_matches_search_exhaustively():
    for n in range(1, 10):
        for m in range(0, 51):
            assert uniform_alpha_closed_form(n, m) == find_alpha([m] * n), (n, m)


def test_uniform_shortcut_agrees_with_expected_dims():
    # The n > 9 closed forms must match the reduction-based search.
    for n in range(10, 26):
        for m in range(0, 7):
            z = [m] * n
            a, t = _uniform_alpha_tau(n, m)
            probe = 0
            while expected_dim(DivisorClass(probe, z)) == 0:
                probe += 1
            assert a == probe, (n, m)
            probe2 = 0
            while expected_dim(DivisorClass(probe2, z)) != hilbert_polynomial(z, probe2):
                probe2 += 1
            assert t == probe2, (n, m)


def _uniform_alpha_loop(n: int, m: int) -> int:
    # The stepping search the closed form replaced: least t with P(t) > 0,
    # stepping first by m then by 1.
    a = -1
    s = n * m * (m + 1)
    if m > 0:
        while a * a + 3 * a + 2 - s < 0:
            a += m
        a -= m
    while a * a + 3 * a + 2 - s <= 0:
        a += 1
    return a


def _uniform_tau_loop(n: int, m: int) -> int:
    # The stepping search the closed form replaced: least t >= 0 with P(t) >= 0.
    t = -1
    s = n * m * (m + 1)
    if m > 0:
        while t * t + 3 * t + 2 - s < 0:
            t += m
        t -= m
    while t * t + 3 * t + 2 - s < 0:
        t += 1
    return max(t, 0)


def test_uniform_closed_form_matches_the_stepping_search():
    for n in [*range(10, 400), 1000, 9000, 10**5, 10**9]:
        for m in range(0, 40):
            assert _uniform_alpha_tau(n, m) == \
                (_uniform_alpha_loop(n, m), _uniform_tau_loop(n, m)), (n, m)


@settings(max_examples=150)
@given(specs)
def test_alpha_tau_basic_relations(mults):
    alpha = find_alpha(mults)
    tau = find_tau(mults)
    assert expected_dim(DivisorClass(alpha, mults)) > 0
    if alpha > 0:
        assert expected_dim(DivisorClass(alpha - 1, mults)) == 0
    assert expected_dim(DivisorClass(tau, mults)) == hilbert_polynomial(mults, tau)
    assert tau >= alpha - 1


@settings(max_examples=150)
@given(specs, st.integers(min_value=0, max_value=25))
def test_expected_dim_at_least_polynomial(mults, t):
    assert expected_dim(DivisorClass(t, mults)) >= max(0, hilbert_polynomial(mults, t))


@settings(max_examples=100)
@given(specs)
def test_alpha_monotone_under_extra_point(mults):
    assert find_alpha(mults) <= find_alpha(list(mults) + [1])
    assert find_alpha(mults) == find_alpha(list(mults) + [0])


def test_hilbert_table_examples():
    table = hilbert_table((2, 2))
    assert table.alpha == 2 and table.tau == 3
    assert {(1, 0), (2, 1), (3, 4)} <= set(table.rows)

    empty = hilbert_table([], 0, 4)
    for t, v in empty.rows:
        assert v == (t * t + 3 * t + 2) // 2

    assert (8, 15) in hilbert_table([3] * 5).rows


def test_hilbert_table_invariants():
    for z in [(2, 2), (3, 3, 3, 3, 3), (1,) * 9, (4, 3, 2, 1), (2,) * 12]:
        table = hilbert_table(z)
        values = dict(table.rows)
        assert values[table.alpha - 1] == 0
        assert values[table.alpha] > 0
        values = [v for _, v in table.rows]
        assert all(a <= b for a, b in zip(values, values[1:]))
        for t, v in table.rows:
            if t >= table.tau:
                assert v == hilbert_polynomial(z, t)
        assert table.exactness == ("exact" if len(z) <= 9 else "shgh-conjectural")


def test_hilbert_table_window_and_errors():
    table = hilbert_table((2, 2), 0, 6)
    assert table.rows[0] == (0, 0) and table.rows[-1] == (6, hilbert_polynomial((2, 2), 6))
    with pytest.raises(ValueError):
        hilbert_table((2, 2), 5, 1)


def _hilbert_windows(alpha, tau):
    # The default window, one reaching from below alpha - 2 (at negative
    # degrees for small alpha) to past tau + 2, and windows that lie only
    # below alpha, only in [alpha, tau) and only from tau on.
    return [(None, None), (min(alpha - 4, -2), tau + 4), (alpha - 5, alpha - 1),
            (alpha, max(alpha, tau - 1)), (tau, tau + 3)]


def _assert_windows_match_every_degree(mults):
    z = FatPointSpec(mults)
    alpha, tau = find_alpha(mults), find_tau(mults)
    for lo, hi in _hilbert_windows(alpha, tau):
        # One spec serves every window, so later windows read the e kept
        # by earlier ones.
        table = hilbert_table(z, lo, hi)
        lo = alpha - 1 if lo is None else lo
        hi = tau + 1 if hi is None else hi
        assert (table.alpha, table.tau) == (alpha, tau), mults
        assert table.rows == tuple((t, expected_dim(DivisorClass(t, mults)))
                                   for t in range(lo, hi + 1)), (mults, lo, hi)


def test_hilbert_table_windows_match_every_degree_up_to_nine_points():
    # Every nonincreasing tuple of 1 to 9 entries in 1..5: the table reads
    # known values below alpha and from tau on, and shares e per degree.
    for k in range(1, 10):
        for mults in itertools.combinations_with_replacement(range(5, 0, -1), k):
            _assert_windows_match_every_degree(mults)


def test_hilbert_table_windows_match_every_degree_past_nine_points():
    # 10 to 14 mixed multiplicities take the path that evaluates every degree.
    rng = random.Random(18)
    for _ in range(150):
        mults = [rng.randint(1, 8) for _ in range(rng.randint(10, 14))]
        mults[0] = mults[1] + 1  # mixed
        _assert_windows_match_every_degree(mults)


def test_hilbert_table_reduces_only_between_alpha_and_tau(monkeypatch):
    # On at most 9 positive multiplicities only the degrees in [alpha, tau)
    # go through _e; past 9 every window degree does.
    seen = []
    monkeypatch.setattr(hb, "_e", lambda z, t: seen.append(t) or _e(z, t))
    for mults, every in [((9, 8, 7, 7, 7, 0), False), ((3,) * 9, False),
                         ((4, 3, 3, 3, 2, 2, 2, 1, 1, 1, 1), True)]:
        z = FatPointSpec(mults)
        seen.clear()
        alpha, tau = hb._alpha_tau(z)
        searched = list(seen)
        seen.clear()
        table = hilbert_table(z, alpha - 3, tau + 3)
        window = [t for t, _ in table.rows]
        want = window if every else [t for t in window if alpha <= t < tau]
        # The table's own alpha and tau search comes first.
        assert seen == searched + want, (mults, alpha, tau, seen)


def test_e_is_reduced_once_per_degree_per_spec(monkeypatch):
    # The alpha and tau searches and the table share one e per degree.
    reduced = []
    monkeypatch.setattr(hb, "_expected_dim",
                        lambda d, m: reduced.append(d) or _expected_dim(d, m))
    rng = random.Random(5)
    for _ in range(200):
        mults = [rng.randint(0, 12) for _ in range(rng.randint(1, 12))]
        z = FatPointSpec(mults)
        reduced.clear()
        hilbert_table(z, -3, 40)
        hb._alpha_tau(z)
        assert len(reduced) == len(set(reduced)), (mults, reduced)
        assert set(reduced) == set(z.expected_dims), mults


def test_beta_examples():
    assert beta_expected((1,)) == 1
    # Cubics through two double points all contain the connecting line, so
    # the base locus only becomes finite in degree 4.
    assert beta_expected((2, 2)) == 4
    # For five triple points the paper's lower-bound table forces the
    # one-dimensional base locus to persist through degree 7.
    assert beta_expected([3] * 5) == 8
    with pytest.raises(PreconditionError, match="^beta is undefined for the empty subscheme$"):
        beta_expected([0, 0])


def test_beta_between_alpha_and_tau_plus_one():
    for z in [(1,), (2, 2), (3, 3, 3, 3, 3), (2, 1, 1), (4, 4, 4, 4, 4, 4, 4, 1)]:
        assert find_alpha(z) <= beta_expected(z) <= find_tau(z) + 1


# alpha, tau and beta as forward scans, as they were before the
# bisection and the terminal-class test: alpha steps up from 0 and tau
# from max(0, alpha - 1) on the same evaluator, and beta decomposes every
# degree from alpha up.


def _alpha_tau_scan(mults) -> tuple[int, int]:
    z = FatPointSpec(mults)
    alpha = 0
    while _e(z, alpha) == 0:
        alpha += 1
    tau = max(0, alpha - 1)
    while _e(z, tau) != hilbert_polynomial(z, tau):
        tau += 1
    return alpha, tau


def _beta_scan(mults) -> int:
    z = FatPointSpec(mults)
    t = _alpha_tau_scan(mults)[0] if len(z.positive) <= 9 else find_alpha(z)
    while True:
        f = z.divisor_class(t)
        dec = decompose(f)
        # A single curve (e = 1) is its own base locus.
        if dec.in_semigroup and not dec.fixed_part and expected_dim(f) >= 2:
            return t
        t += 1


def _exact_schemes():
    # Every nonincreasing 9-tuple with entries <= 6, then a seeded sample
    # of up to 9 entries <= 40 in any order, some padded with zeros past
    # the ninth point.
    yield from itertools.combinations_with_replacement(range(6, -1, -1), 9)
    rng = random.Random(12)
    for i in range(3500):
        mults = [rng.randint(0, 40) for _ in range(rng.randint(1, 9))]
        if i % 4 == 0:
            mults += [0] * (10 - len(mults) + rng.randint(0, 2))
            rng.shuffle(mults)
        yield tuple(mults)


def test_bisection_and_terminal_beta_match_the_scans():
    padded = 0
    for mults in _exact_schemes():
        alpha, tau = _alpha_tau_scan(mults)
        assert (find_alpha(mults), find_tau(mults)) == (alpha, tau), mults
        table = hilbert_table(mults)
        assert (table.alpha, table.tau) == (alpha, tau), mults
        if any(mults):
            assert beta_expected(mults) == _beta_scan(mults), mults
        padded += len(mults) > 9
    assert padded > 800


def test_terminal_beta_matches_the_scan_past_nine_points():
    for n, m in [(10, 1), (10, 3), (12, 2), (16, 1), (16, 3), (25, 2), (40, 1)]:
        assert beta_expected([m] * n) == _beta_scan([m] * n), (n, m)
    rng = random.Random(13)
    for _ in range(40):
        mults = [rng.randint(0, 6) for _ in range(rng.randint(10, 14))]
        if sum(1 for x in mults if x) > 9:
            assert beta_expected(mults) == _beta_scan(mults), mults


def test_beta_decomposes_once(monkeypatch):
    calls = []
    monkeypatch.setattr(hb, "decompose", lambda f: calls.append(f) or decompose(f))
    for mults in [(2, 2), (3, 3, 3, 3, 3), (40, 40, 1), (9, 8, 8, 7, 5, 5, 2, 1, 1), (2,) * 12]:
        calls.clear()
        t = beta_expected(mults)
        assert calls == [DivisorClass(t, mults)], mults


def test_beta_rejects_a_degree_decompose_disowns(monkeypatch):
    from fatpoints.lattice import Decomposition
    monkeypatch.setattr(hb, "decompose", lambda f: Decomposition(False, None, ()))
    with pytest.raises(RuntimeError):
        beta_expected((2, 2))


def test_mixed_alpha_scan_from_the_top_multiplicity_matches_the_scan_from_0():
    # Past nine mixed multiplicities the alpha scan starts at m_1, since
    # e(t) = 0 below it (proof in hilbert._alpha_tau).
    # Every third vector has one entry far above the rest, where alpha
    # can be m_1 itself.
    rng = random.Random(15)
    mixed = at_top = 0
    for i in range(600):
        n = rng.randint(10, 40)
        if i % 3:
            mults = [rng.randint(0, 30) for _ in range(n)]
        else:
            mults = [rng.randint(20, 30)] + [rng.randint(0, 2) for _ in range(n - 1)]
            rng.shuffle(mults)
        z = FatPointSpec(mults)
        alpha = _alpha_tau_scan(mults)[0]
        assert find_alpha(mults) == alpha, mults
        if len(z.positive) > 9 and z.positive[0] != z.positive[-1]:
            mixed += 1
            at_top += alpha == z.positive[0]
    assert mixed > 500 and at_top > 50, (mixed, at_top)


def test_mixed_tau_scan_from_the_least_nonnegative_p_matches_the_scan_from_alpha():
    # Past nine mixed multiplicities the tau scan starts at
    # max(0, alpha - 1, least t >= 0 with P(t) >= 0), since e(t) = P(t)
    # needs P(t) >= 0 (proof in hilbert._alpha_tau).  Seeded vectors of
    # 10 to 150 entries: random values 1..11, some with zeros, and
    # progressions of wide spread.
    rng = random.Random(16)
    later = 0
    for i in range(160):
        n = rng.randint(10, 150)
        if i % 4 == 3:
            step = rng.randint(1, 4)
            mults = [step * (n - k) for k in range(n)]
        else:
            mults = [rng.randint(0 if i % 4 == 2 else 1, 11) for _ in range(n)]
        rng.shuffle(mults)
        z = FatPointSpec(mults)
        if len(z.positive) <= 9 or z.is_uniform():
            continue
        assert find_tau(mults) == tau_scan_from_alpha(mults), mults
        later += _least_above(z.condition_sum - 1) > find_alpha(mults) - 1
    assert later > 100, later


def test_alpha_bisection_evaluates_e_logarithmically(monkeypatch):
    calls = []
    monkeypatch.setattr(hb, "_e", lambda z, t: calls.append(t) or _e(z, t))
    rng = random.Random(14)
    for _ in range(300):
        mults = [rng.randint(0, 40) for _ in range(rng.randint(1, 9))] + [0] * rng.randint(0, 3)
        z = FatPointSpec(mults)
        hi = max(sum(z.positive[:3]), _least_above(z.condition_sum))
        calls.clear()
        find_alpha(mults)
        assert len(calls) <= ceil(log2(hi + 1)) + 1, mults
