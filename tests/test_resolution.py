import itertools
import random

import pytest

from fatpoints import hilbert, lattice, resolution
from fatpoints.hilbert import (_expected_dim, beta_expected, expected_dim, find_alpha,
                               find_tau)
from fatpoints.lattice import (DivisorClass, as_spec, intersection, is_exceptional,
                               reduce_fundamental_raw)
from fatpoints.oracle import PointConfig, actual_nu
from fatpoints.report import PreconditionError
from fatpoints.resolution import (_EXC_STEPS, _EXC_TESTS, betti_table, classical_nu_bounds,
                                  ker_mu_dim, quasi_uniform_resolution)


def test_exc_tests_are_exceptional_with_split_thresholds():
    # Each representative is an exceptional class on 8 points, sorted, and
    # its threshold is the smaller of the top multiplicity and the degree
    # minus it.
    for c, threshold in _EXC_TESTS:
        assert is_exceptional(c), c
        assert len(c.mults) == 8 and list(c.mults) == sorted(c.mults, reverse=True)
        top = c.mults[0]
        assert threshold == min(top, c.degree - top), c


def test_ker_mu_examples():
    assert ker_mu_dim(DivisorClass(11, (4, 4, 4, 4, 4, 4, 4, 1))) == 2
    assert ker_mu_dim(DivisorClass(2, (3, 3, 0, 0, 0, 0, 0, 0))) == 0
    assert ker_mu_dim(DivisorClass(7, (3, 3, 3, 3, 3, 0, 0, 0))) == 5


def test_ker_mu_rejects_nine_points():
    with pytest.raises(PreconditionError,
                       match="^resolution algorithm supports at most 8 points$"):
        ker_mu_dim(DivisorClass(5, (1,) * 9))
    with pytest.raises(PreconditionError, match="at most 8 points"):
        betti_table((1,) * 9 + (0,))


def test_prefix_sum_tests_are_the_intersections():
    # Each step carries its representative's degree, multiplicities and
    # threshold, and its prefix-sum form is F.C on sorted classes.
    assert [(deg, c, lam) for deg, c, lam, *_ in _EXC_STEPS] == \
        [(c.degree, c.mults, lam) for c, lam in _EXC_TESTS]
    rng = random.Random(8)
    for _ in range(2000):
        m = sorted((rng.randint(0, 30) for _ in range(8)), reverse=True)
        d = rng.randint(0, 100)
        sums = [sum(m[:k]) for k in range(9)]
        for (deg, c, _, x, i, j), (rep, _) in zip(_EXC_STEPS, _EXC_TESTS):
            assert deg * d - x * m[0] - sums[i] - sums[j] == \
                intersection(DivisorClass(d, m), rep), (d, m, rep)


def test_ker_mu_padding_and_permutation_invariance():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randrange(1, 9)
        m = [rng.randrange(0, 5) for _ in range(n)]
        t = rng.randrange(0, 14)
        base = ker_mu_dim(DivisorClass(t, m))
        rng.shuffle(m)
        assert ker_mu_dim(DivisorClass(t, m)) == base
        assert ker_mu_dim(DivisorClass(t, m + [0])) == base


# ker_mu_dim and betti_table as they were before the raw (degree, list)
# path: every expected dimension goes through a DivisorClass, and alpha
# and tau are separate scans.  They share no code with the library's
# expected-dimension helpers.


def _e_ref(f: DivisorClass) -> int:
    d, m = reduce_fundamental_raw(f.degree, f.mults)
    if d < 0:
        return 0
    d, m = reduce_fundamental_raw(d, [x if x > 0 else 0 for x in m])
    if d < 0:
        return 0
    s = sum(x * (x + 1) for x in m if x > 0)
    return max(0, (d * d + 3 * d + 2 - s) // 2)


def _ker_mu_dim_ref(f: DivisorClass) -> int:
    d = f.degree
    m = [x for x in f.mults if x != 0]
    m += [0] * (8 - len(m))
    while True:
        m = sorted((x if x > 0 else 0 for x in m), reverse=True)
        if _e_ref(DivisorClass(d, m)) == 0:
            return 0
        for c, lam in _EXC_TESTS:
            if d * c.degree - sum(a * b for a, b in zip(m, c.mults)) < lam:
                d -= c.degree
                m = [a - b for a, b in zip(m, c.mults)]
                break
        else:
            break
    if d - m[0] - m[1] == 0:
        left = _e_ref(DivisorClass(d - 1, [m[0] - 1] + m[1:]))
        right = _e_ref(DivisorClass(d - 1, [m[0], m[1] - 1] + m[2:]))
        return left + right
    r = m[7]
    if d == 8 * r + 3 and m == [3 * r + 1] * 7 + [r]:
        return r + 1
    return max(0, 3 * _e_ref(DivisorClass(d, m)) - _e_ref(DivisorClass(d + 1, m)))


def _betti_ref(mults) -> tuple[int, int, tuple, list]:
    # (alpha, tau, rows, kernel dimension per row) for betti_table(mults).
    mults = tuple(x for x in mults if x != 0)
    mults += (0,) * (8 - len(mults))
    s = sum(x * (x + 1) for x in mults)
    alpha = 0
    while _e_ref(DivisorClass(alpha, mults)) == 0:
        alpha += 1
    tau = max(0, alpha - 1)
    while 2 * _e_ref(DivisorClass(tau, mults)) != tau * tau + 3 * tau + 2 - s:
        tau += 1
    degrees = list(range(alpha - 2, tau + 3))
    h = [_e_ref(DivisorClass(t, mults)) for t in degrees]
    ker = [0 if t < alpha else _ker_mu_dim_ref(DivisorClass(t, mults)) for t in degrees]
    nu = [0 if i < 2 else h[i] - 3 * h[i - 1] + ker[i - 1] for i in range(len(degrees))]
    syz = [0 if i < 3 else nu[i] - h[i] + 3 * h[i - 1] - 3 * h[i - 2] + h[i - 3]
           for i in range(len(degrees))]
    return alpha, tau, tuple(zip(degrees, h, nu, syz)), ker


def _assert_raw_path_matches_reference(schemes) -> None:
    for mults in schemes:
        alpha, tau, rows, ker = _betti_ref(mults)
        table = betti_table(mults)
        assert (table.alpha, table.tau, table.rows) == (alpha, tau, rows), mults
        for (t, *_), k in zip(rows, ker):
            if t >= alpha:
                assert ker_mu_dim(DivisorClass(t, mults)) == k, (t, mults)


def test_raw_path_matches_class_reference_exhaustively():
    # Every scheme of at most 8 points with multiplicities <= 6, as a
    # nonincreasing 8-tuple (both sides sort and drop zeros first).
    _assert_raw_path_matches_reference(
        itertools.combinations_with_replacement(range(6, -1, -1), 8))


def test_raw_path_matches_class_reference_up_to_ten():
    # Schemes of at most 8 points with multiplicities <= 10, drawn in any
    # order; the whole grid of 43758 nonincreasing tuples takes about half
    # a minute, so the suite draws a seeded sample of it.
    rng = random.Random(10)
    _assert_raw_path_matches_reference(
        [rng.randint(0, 10) for _ in range(rng.randint(0, 8))] for _ in range(500))


def test_raw_path_matches_class_reference_up_to_forty():
    # The catalogue reaches multiplicity 40, where runs of lines are
    # longest: a seeded sample of tables, half of them with two equal top
    # multiplicities, and of single classes at any degree.
    rng = random.Random(40)
    schemes = []
    for i in range(150):
        mults = [rng.randint(0, 40) for _ in range(rng.randint(1, 8))]
        if i % 2:
            mults[:2] = [max(mults)] * 2
        schemes.append(mults[:8])
    _assert_raw_path_matches_reference(schemes)
    for _ in range(3000):
        mults = [rng.randint(0, 45) for _ in range(8)]
        f = DivisorClass(rng.randint(0, 2 * max(mults) + 8), mults)
        assert ker_mu_dim(f) == _ker_mu_dim_ref(f), f


def test_known_dimensions_give_the_same_kernel_exhaustively():
    # betti_table hands ker_mu_dim the e it knows at t and t + 1; on the
    # grid of test_raw_path_matches_class_reference_exhaustively that
    # changes no kernel dimension.
    for mults in itertools.combinations_with_replacement(range(6, -1, -1), 8):
        alpha, tau = find_alpha(mults), find_tau(mults)
        for t in range(alpha, tau + 2):
            f = DivisorClass(t, mults)
            e, e_next = expected_dim(f), expected_dim(DivisorClass(t + 1, mults))
            assert ker_mu_dim(f, e, e_next) == ker_mu_dim(f), (t, mults)


def test_line_meets_only_the_quintic_and_sextic():
    # The one-step line run rests on these intersections with the line
    # through the first two points, which comes last.
    line = DivisorClass(1, (1, 1, 0, 0, 0, 0, 0, 0))
    assert [intersection(c, line) for c, _ in _EXC_TESTS] == [1, 1, 0, 0, 0, -1]
    assert _EXC_TESTS[-1] == (line, 0)


def test_a_run_of_lines_is_one_step(monkeypatch):
    # Each pass of the loop sorts once, so sorts count passes.
    calls, passes = [], []
    monkeypatch.setattr(resolution, "_expected_dim",
                        lambda d, m: calls.append(d) or _expected_dim(d, m))
    monkeypatch.setattr(resolution, "sorted",
                        lambda *a, **k: passes.append(1) or sorted(*a, **k), raising=False)
    for t in range(41, 80):
        f = DivisorClass(t, (40, 40, 1, 0, 0, 0, 0, 0))
        calls.clear()
        passes.clear()
        assert ker_mu_dim(f) == _ker_mu_dim_ref(f), t
        # 80 - t lines in one pass, a pass where nothing fires, then the
        # orthogonal case: one emptiness test and one evaluation of the
        # two equal correction terms.
        assert len(passes) == 2 and len(calls) == 2, (t, passes, calls)


def test_betti_table_examples():
    assert {t: nu for t, _, nu, _ in betti_table((3, 3, 3, 3, 3)).rows}[8] == 2

    point = betti_table((1,))
    rows = {r[0]: r for r in point.rows}
    assert rows[1][2] == 2 and rows[2][3] == 1
    assert all(nu == 0 for t, _, nu, _ in point.rows if t not in (1,))
    assert all(s == 0 for t, _, _, s in point.rows if t != 2)

    special = betti_table((4, 4, 4, 4, 4, 4, 4, 1))
    h11 = expected_dim(DivisorClass(11, (4, 4, 4, 4, 4, 4, 4, 1)))
    h12 = expected_dim(DivisorClass(12, (4, 4, 4, 4, 4, 4, 4, 1)))
    assert {t: nu for t, _, nu, _ in special.rows}[12] == h12 - 3 * h11 + 2 == 1


def test_betti_table_window():
    t = betti_table((2, 2, 1))
    assert t.rows[0][0] == t.alpha - 2
    assert t.rows[-1][0] == t.tau + 2


def _oracle_nu_checked(z, t):
    for seed in (0, 1, 2):
        cfg = PointConfig.random(len(z), seed=seed)
        values = [actual_nu(cfg, z, t)]
    return values[0]


def test_betti_vs_oracle_random_grid():
    rng = random.Random(4)
    cases = 0
    for _ in range(12):
        n = rng.randrange(1, 9)
        z = tuple(rng.randrange(0, 5) for _ in range(n))
        if sum(z) == 0:
            continue
        table = betti_table(z)
        cfg = PointConfig.random(n, seed=0)
        for t, h, nu, s in table.rows:
            if t < 0:
                continue
            assert actual_nu(cfg, z, t) == nu, (z, t)
            cases += 1
    assert cases > 30


def test_quasi_uniform_examples():
    r = quasi_uniform_resolution([5] * 20)
    assert (r.alpha, r.a, r.b, r.c, r.d) == (24, 25, 0, 24, 0)
    assert "conjectural" in r.label

    r9 = quasi_uniform_resolution([1] * 9)
    assert (r9.alpha, r9.a, r9.b, r9.c, r9.d) == (3, 1, 3, 0, 3)

    degenerate = quasi_uniform_resolution([0] * 10)
    assert (degenerate.alpha, degenerate.a, degenerate.b, degenerate.c, degenerate.d) \
        == (0, 1, 0, 0, 0)


def test_quasi_uniform_rejections():
    with pytest.raises(PreconditionError, match="^quasi-uniform requires at least 9 points$"):
        quasi_uniform_resolution([2] * 8)
    with pytest.raises(PreconditionError,
                       match="^quasi-uniform requires the first nine multiplicities equal$"):
        quasi_uniform_resolution([3] * 8 + [2, 2])
    with pytest.raises(PreconditionError,
                       match="^quasi-uniform requires nonincreasing multiplicities$"):
        quasi_uniform_resolution([2, 3] + [2] * 8)


def test_classical_bounds_example_five_triple_points():
    z = (3, 3, 3, 3, 3)
    nb = classical_nu_bounds(z)
    assert (8, 1, 3) in nb.per_degree
    assert nb.total_simple == find_alpha(z) + 1 == 7
    assert nb.total_refined == find_alpha(z) + beta_expected(z) - find_tau(z) == 7


def test_classical_bounds_koszul_case():
    nb = classical_nu_bounds((1,))
    table = betti_table((1,))
    nu = {t: nu for t, _, nu, _ in table.rows}
    for t, lo, hi in nb.per_degree:
        assert lo <= nu[t] <= hi


def test_classical_bounds_inconsistent_inputs():
    with pytest.raises(ValueError):
        classical_nu_bounds((2, 2), alpha=2, beta=1, tau=3)
    with pytest.raises(ValueError):
        classical_nu_bounds((2, 2), alpha=2, beta=5, tau=3)


def _classical_nu_bounds_reference(z):
    # classical_nu_bounds before it read hilbert._e: every h(t) a fresh
    # expected_dim, up to seven per degree.
    z = as_spec(z)
    alpha, beta, tau = find_alpha(z), beta_expected(z), find_tau(z)

    def h(t):
        return 0 if t < alpha else expected_dim(z.divisor_class(t))

    def eps(t):
        return 0 if t < alpha else 1 if t < beta else 2 if t <= tau else 0

    out = []
    for t in range(alpha, tau + 2):
        upper = h(t) - 2 * h(t - 1) + h(t - 2) - eps(t - 1)
        d3 = h(t) - 3 * h(t - 1) + 3 * h(t - 2) - h(t - 3)
        out.append((t, max(d3, 1 if t == beta else 0, 0), upper))
    return tuple(out), alpha + 1, alpha + beta - tau


def test_classical_bounds_match_the_reference():
    # Every nonempty nonincreasing tuple of up to 8 entries in 0..6, then
    # seeded schemes past 9 points, where e is conjectural at every degree.
    rng = random.Random(19)
    schemes = [m for n in range(1, 9)
               for m in itertools.combinations_with_replacement(range(6, -1, -1), n) if m[0]]
    schemes += [tuple(rng.randint(1, 9) for _ in range(rng.randint(10, 14))) for _ in range(60)]
    for m in schemes:
        nb = classical_nu_bounds(m)
        assert (nb.per_degree, nb.total_simple, nb.total_refined) == \
            _classical_nu_bounds_reference(m), m


def test_classical_bounds_reduce_each_degree_at_most_once(monkeypatch):
    # Work pin, counted in both namespaces that hold the reduction: the
    # alpha, beta and tau searches and the differences share e per degree
    # on the spec; a fresh expected_dim per h(t) took 392 and 58.
    reductions = []
    counted = lambda d, m: reductions.append(d) or reduce_fundamental_raw(d, m)
    monkeypatch.setattr(lattice, "reduce_fundamental_raw", counted)
    monkeypatch.setattr(hilbert, "reduce_fundamental_raw", counted)
    for m, want in [((37, 28, 13), 74), ((9, 8, 7, 7, 7), 14)]:
        reductions.clear()
        classical_nu_bounds(m)
        assert len(reductions) == want, (m, len(reductions))


def test_classical_bounds_search_alpha_twice(monkeypatch):
    # Work pin: one alpha and tau search of its own and beta_expected's
    # alpha search; a find_alpha and a find_tau of its own made three.
    calls = []
    search = hilbert._alpha_tau
    counted = lambda z, with_tau=True: calls.append(z) or search(z, with_tau)
    monkeypatch.setattr(hilbert, "_alpha_tau", counted)
    monkeypatch.setattr(resolution, "_alpha_tau", counted)
    classical_nu_bounds((37, 28, 13))
    assert len(calls) == 2


def test_bounds_bracket_true_nu_small_grid():
    for z in itertools.product(range(4), repeat=4):
        if sum(z) == 0:
            continue
        table = betti_table(z)
        nb = classical_nu_bounds(z)
        nu = {t: nu for t, _, nu, _ in table.rows}
        for t, lo, hi in nb.per_degree:
            assert lo <= nu[t] <= hi, (z, t)


def test_betti_invariants_asserted_randomly():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randrange(1, 9)
        z = tuple(rng.randrange(0, 5) for _ in range(n))
        table = betti_table(z)  # invariants asserted during construction
        assert sum(r[2] for r in table.rows) <= table.alpha + 1
        at_alpha = next(r for r in table.rows if r[0] == table.alpha)
        assert at_alpha[2] == at_alpha[1]
