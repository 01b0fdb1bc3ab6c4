import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fatpoints import oracle
from fatpoints.cli import main
from fatpoints.hilbert import expected_dim, find_alpha, find_tau, hilbert_polynomial
from fatpoints.lattice import DivisorClass
from fatpoints.oracle import (MAX_PRIME, PointConfig, _echelon, actual_hilbert, actual_nu,
                              nullspace_mod_p, oracle_table, rank_mod_p)
from references import translation_oracle_table


def _gauss_jordan_nullspace(a, p):
    # Reference: clear each pivot column above and below as it is found,
    # then read the kernel off the reduced row echelon form.
    m = np.array(a, dtype=np.int64) % p
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        inv = pow(int(m[r, c]), -1, p)
        m[r] = m[r] * inv % p
        others = np.nonzero(m[:, c])[0]
        others = others[others != r]
        if others.size:
            m[others] = (m[others] - np.outer(m[others, c], m[r])) % p
        pivots.append(c)
        r += 1
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-int(m[i, c])) % p
    return basis


def _ref_monomials(t):
    return [(a, b) for a in range(t + 1) for b in range(t + 1 - a)]


def _ref_condition_matrix(cfg, mults, t):
    # Reference: one entry at a time, columns in monomial (not graded) order.
    if t < 0:
        return np.zeros((0, 0), dtype=np.int64)
    p = cfg.prime
    monos = _ref_monomials(t)
    ncols = len(monos)
    falling = np.zeros((t + 1, t + 1), dtype=np.int64)
    falling[:, 0] = 1
    for k in range(t + 1):
        for d in range(1, k + 1):
            falling[k, d] = falling[k, d - 1] * (k - d + 1) % p
    rows = []
    for (x, y), mult in zip(cfg.points, mults):
        if mult == 0:
            continue
        xpow = [1] * (t + 1)
        ypow = [1] * (t + 1)
        for e in range(1, t + 1):
            xpow[e] = xpow[e - 1] * x % p
            ypow[e] = ypow[e - 1] * y % p
        for dx in range(mult):
            for dy in range(mult - dx):
                row = np.zeros(ncols, dtype=np.int64)
                for col, (a, b) in enumerate(monos):
                    if a >= dx and b >= dy:
                        row[col] = falling[a, dx] * falling[b, dy] % p \
                            * xpow[a - dx] % p * ypow[b - dy] % p
                rows.append(row)
    if not rows:
        return np.zeros((0, ncols), dtype=np.int64)
    return np.vstack(rows)


def _ref_products(basis, t):
    index = {mono: i for i, mono in enumerate(_ref_monomials(t))}
    src = _ref_monomials(t - 1)
    k = basis.shape[0]
    prods = np.zeros((3 * k, len(index)), dtype=np.int64)
    for block, (da, db) in enumerate(((0, 0), (1, 0), (0, 1))):
        prods[block * k:(block + 1) * k, [index[(a + da, b + db)] for a, b in src]] = basis
    return prods


def _ref_table(cfg, mults, lo, hi, nu):
    # Reference: every degree built and solved on its own, ranks and
    # kernels from the Gauss-Jordan reference.
    p = cfg.prime
    rows = []
    for t in range(lo, hi + 1):
        kernel = _gauss_jordan_nullspace(_ref_condition_matrix(cfg, mults, t), p)
        row = [t, kernel.shape[0]]
        if nu:
            below = _gauss_jordan_nullspace(_ref_condition_matrix(cfg, mults, t - 1), p)
            prods = _ref_products(below, t)
            rank = prods.shape[1] - _gauss_jordan_nullspace(prods, p).shape[0]
            row.append(kernel.shape[0] - rank)
        rows.append(row)
    return rows


@st.composite
def _matrices(draw):
    # Tall, wide, empty and rank-deficient matrices up to 40 x 40, entries
    # also outside [0, p), and primes up to the int64 cap.  The reduction
    # budget is 9 updates at 10^9 + 7, so the periodic full reduction runs
    # inside one elimination, and 1 at 3037000493.
    p = draw(st.sampled_from([2, 3, 101, 31991, 1000000007, 3037000493]))
    rows, cols = draw(st.integers(0, 40)), draw(st.integers(0, 40))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def block(r, c, lo, hi):
        # Python ints, so products cannot overflow before the reduction mod p.
        cells = [rng.randint(lo, hi) for _ in range(r * c)]
        return np.array(cells, dtype=object).reshape(r, c)

    if draw(st.booleans()):
        k = draw(st.integers(0, min(rows, cols)))
        a = block(rows, k, 0, p - 1) @ block(k, cols, 0, p - 1) % p
    else:
        a = block(rows, cols, -2 * p, 2 * p)
    return a.astype(np.int64), p


@settings(max_examples=400, deadline=None)
@given(_matrices())
def test_elimination_matches_gauss_jordan_reference(case):
    a, p = case
    ref = _gauss_jordan_nullspace(a, p)
    ns = nullspace_mod_p(a, p)
    assert ns.dtype == ref.dtype and ns.shape == ref.shape
    assert (ns == ref).all()
    assert rank_mod_p(a, p) == a.shape[1] - ref.shape[0]


@pytest.mark.parametrize("p, budget", [(2, 2**63 - 3), (31991, 9012831394),
                                       (1000000007, 9), (3037000493, 1), (MAX_PRIME, 1)])
def test_reduction_budget_keeps_int64(p, budget):
    # An entry starts in [0, p) and each update lowers it by at most (p-1)^2.
    assert oracle._budget(p) == budget
    assert budget * (p - 1) ** 2 <= 2**63 - 1 - p


def test_rank_mod_p_basics():
    p = 31991
    assert rank_mod_p(np.zeros((3, 4), dtype=np.int64), p) == 0
    assert rank_mod_p(np.eye(3, dtype=np.int64), p) == 3
    a = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]], dtype=np.int64)
    assert rank_mod_p(a, p) == 2
    # Rank depends on the field: this matrix drops rank mod 5.
    b = np.array([[1, 2], [3, 11]], dtype=np.int64)
    assert rank_mod_p(b, 5) == 1
    assert rank_mod_p(b, 7) == 2


# The largest prime below MAX_PRIME (itself 3037000499, not prime): its
# reduction budget is 1, as at MAX_PRIME.
_TOP_PRIME = 3037000493


def _cells(rows, cols, cell):
    # Python ints, so products cannot overflow before the reduction mod p.
    return np.array([cell() for _ in range(rows * cols)], dtype=object).reshape(rows, cols)


def _sparse(rng, rows, cols, p):
    # Shaped like the generator-count blocks: mostly 0, some 1, a few
    # other residues, some of them outside [0, p).
    def cell():
        u = rng.random()
        return 0 if u < 0.75 else 1 if u < 0.9 else rng.randint(-p, 2 * p)
    return _cells(rows, cols, cell)


def _rank_cases(p, rng):
    def dense(rows, cols):
        return _cells(rows, cols, lambda: rng.randint(-2 * p, 2 * p))

    yield from (np.zeros((0, 5), dtype=object), np.zeros((5, 0), dtype=object),
                np.zeros((0, 0), dtype=object))
    for rows, cols in ((1, 1), (3, 17), (17, 3), (12, 12), (32, 18), (10, 14)):
        yield dense(rows, cols)
        yield _sparse(rng, rows, cols, p)
        k = rng.randint(0, min(rows, cols))
        # Rank at most k; reduced into int64's reach, keeping 0 as 0.
        yield dense(rows, k) @ dense(k, cols) % (2 * p) - p
        yield _sparse(rng, rows, k, p) @ _sparse(rng, k, cols, p) % p


@pytest.mark.parametrize("p", [2, 31991, 1000000007, _TOP_PRIME])
def test_python_rank_matches_echelon(p):
    # rank_mod_p eliminates in Python ints, _echelon in int64 with deferred
    # reduction: they agree with each other and on the transpose.
    rng = random.Random(p)
    for a in _rank_cases(p, rng):
        a = a.astype(np.int64)
        assert rank_mod_p(a, p) == len(_echelon(a, p)[1]) == rank_mod_p(a.T, p), (a, p)


@pytest.mark.parametrize("p", [2, 31991, 1000000007, _TOP_PRIME])
def test_echelon_contract_on_sparse_inputs(p):
    # Most rows are zero in each pivot column, so most rows of the slab
    # below a pivot take a zero update.
    rng = random.Random(p + 1)
    for rows, cols in ((40, 30), (30, 40), (64, 18), (18, 64)):
        for _ in range(3):
            a = _sparse(rng, rows, cols, p).astype(np.int64)
            m, pivots = _echelon(a, p)
            r = len(pivots)
            assert r == rank_mod_p(a, p)
            assert m.shape == a.shape and m.dtype == np.int64
            assert ((m >= 0) & (m < p)).all()
            assert pivots == sorted(set(pivots))
            for i, c in enumerate(pivots):
                assert m[i, c] == 1 and not m[i, :c].any() and not m[i + 1:, c].any()
            assert not m[r:].any()


def test_nullspace_mod_p():
    p = 101
    rng = random.Random(3)
    for _ in range(20):
        a = np.array([[rng.randrange(p) for _ in range(7)] for _ in range(4)],
                     dtype=np.int64)
        ns = nullspace_mod_p(a, p)
        assert ns.shape[0] == 7 - rank_mod_p(a, p)
        assert not (a @ ns.T % p).any()
        if ns.shape[0]:
            assert rank_mod_p(ns, p) == ns.shape[0]


@st.composite
def _windows(draw):
    p = draw(st.sampled_from([7, 13, 37, 101, 31991, 3037000493]))
    n = draw(st.integers(1, 8))
    mults = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    lo = draw(st.integers(-2, min(11, p - 1)))
    hi = draw(st.integers(lo, min(lo + 5, p - 1)))
    cfg = PointConfig.random(n, seed=draw(st.integers(0, 3)), prime=p)
    return cfg, tuple(mults), lo, hi, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(_windows())
# A tie for the heaviest point, which then sits at the origin.
@example((PointConfig.random(3, seed=1, prime=101), (3, 1, 3), 0, 6, True))
# The heaviest point is not the first one.
@example((PointConfig.random(4, seed=2), (1, 2, 4, 0), -1, 7, True))
@example((PointConfig.random(4, seed=3), (2, 0, 1, 5), 4, 8, True))
# Every column is a pivot of the heaviest point: m_k >= hi + 1.
@example((PointConfig.random(3, seed=0), (2, 7, 1), 0, 5, True))
@example((PointConfig.random(2, seed=1, prime=13), (6, 6), 3, 5, True))
# m_k = hi: the heaviest point's pivots end at c_{hi-1}.
@example((PointConfig.random(3, seed=0), (5, 2, 2), 3, 5, True))
# One point.
@example((PointConfig.random(1, seed=3, prime=13), (4,), -2, 6, True))
@example((PointConfig.random(1, seed=0), (3,), 0, 5, False))
# No conditions at all.
@example((PointConfig.random(3, seed=0, prime=101), (0, 0, 0), -1, 4, True))
@example((PointConfig.random(0, seed=0), (), 0, 3, True))
# The smallest primes, where every degree is below p, and the largest.
@example((PointConfig.random(4, seed=0, prime=2), (1, 2, 0, 1), 0, 1, True))
@example((PointConfig.random(4, seed=1, prime=2), (1, 1, 2, 1), 0, 1, True))
@example((PointConfig.random(3, seed=1, prime=3), (2, 1, 1), 0, 2, True))
@example((PointConfig.random(6, seed=2, prime=3), (2, 1, 2, 1, 1, 2), 0, 2, True))
@example((PointConfig.random(5, seed=0, prime=3037000493), (4, 3, 3, 1, 4), 2, 9, True))
# The three heaviest points collinear: det B = 0, so only the heaviest is
# placed.
@example((PointConfig(31991, 0, ((1, 1), (2, 2), (3, 3), (5, 7))), (4, 3, 3, 2), 2, 8, True))
# A fourth point on the line through the second and third heaviest lands
# on w = 0, so only the heaviest is placed.
@example((PointConfig(31991, 0, ((5, 5), (1, 2), (2, 4), (3, 6))), (4, 3, 3, 2), 2, 8, True))
# Ties among the second and third heaviest, and with the heaviest.
@example((PointConfig.random(5, seed=1), (5, 3, 3, 3, 2), 3, 9, True))
@example((PointConfig.random(6, seed=2), (3, 4, 4, 2, 4, 1), 3, 9, True))
# Exactly 2 and exactly 3 positive points: every condition is a column
# left out, so the elimination has no rows.
@example((PointConfig.random(4, seed=0), (4, 0, 3, 0), 0, 8, True))
@example((PointConfig.random(5, seed=1), (3, 0, 2, 2, 0), 0, 6, True))
# Placed multiplicities above hi + 1.
@example((PointConfig.random(5, seed=0), (9, 8, 7, 2, 1), 0, 5, True))
def test_table_matches_per_degree_reference(case):
    # One matrix per window, its columns sorted by join degree, against a
    # matrix per degree in monomial order: ranks as prefix pivot counts,
    # kernels cut from one RREF.
    cfg, mults, lo, hi, nu = case
    assert oracle_table(cfg, mults, lo, hi, nu) == _ref_table(cfg, mults, lo, hi, nu)


def _python_condition_matrix(cfg, mults, t, origin):
    # Reference in Python ints: rows (point, dx, dy) for every order below
    # the multiplicity, each with its order dx + dy; graded columns x^a y^b;
    # every point moved by -origin.
    p = cfg.prime
    cols = [(d - b, b) for d in range(t + 1) for b in range(d + 1)]
    x0, y0 = origin

    def deriv(coord, k, d):
        return math.perm(k, d) * pow(coord, k - d, p) if k >= d else 0

    return [(dx + dy, [deriv(x - x0, a, dx) * deriv(y - y0, b, dy) % p for a, b in cols])
            for (x, y), mult in zip(cfg.points, mults)
            for dx in range(mult) for dy in range(mult - dx)]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([31991, 3037000493]), st.integers(0, 3),
       st.integers(-1, 12), st.data())
def test_condition_matrix_matches_python_ints(p, seed, t, data):
    # Multiplicities run past t + 1, so some derivative orders exceed t.
    n = data.draw(st.integers(1, 5))
    mults = data.draw(st.lists(st.integers(0, max(t, 0) + 4), min_size=n, max_size=n))
    cfg = PointConfig.random(n, seed=seed, prime=p)
    origin = data.draw(st.sampled_from([(0, 0)] + list(cfg.points)))
    moved = [((x - origin[0]) % p, (y - origin[1]) % p) for x, y in cfg.points]
    built = oracle._condition_matrix(p, moved, mults, t, oracle._exponents(t))
    assert built.dtype == np.int64
    if t < 0:
        assert built.shape == (0, 0)
        return
    expected = _python_condition_matrix(cfg, mults, t, origin)
    # Orders above t vanish on every column, and the build leaves them out.
    assert not any(any(row) for order, row in expected if order > t)
    kept = [(order, row) for order, row in expected if order <= t]
    assert built.shape == (len(kept), (t + 1) * (t + 2) // 2)
    assert built.tolist() == [row for _, row in kept]
    # Every lower degree's matrix is a column prefix, less the orders above it.
    for s in range(t):
        low = [i for i, (order, _) in enumerate(kept) if order <= s]
        assert (oracle._condition_matrix(p, moved, mults, s, oracle._exponents(s))
                == built[low, :(s + 1) * (s + 2) // 2]).all()
    # Any columns, in any order, are those columns of the graded matrix.
    cols = data.draw(st.lists(st.integers(0, built.shape[1] - 1), max_size=12))
    a, b = (e[cols] for e in oracle._exponents(t))
    assert (oracle._condition_matrix(p, moved, mults, t, (a, b)) == built[:, cols]).all()


@pytest.mark.parametrize("z, lo, hi", [
    ((10**5, 9 * 10**4, 5), 0, 6),
    ((40, 3, 2, 25), 2, 9),
    ((3, 12, 12), 4, 10),
    ((1, 50), 0, 3),
    ((1200, 1200), 2, 2),
])
def test_multiplicities_above_the_degree_act_as_degree_plus_one(z, lo, hi):
    # Vanishing to order m > hi + 1 imposes nothing more in degree <= hi
    # than order hi + 1, and the matrix holds only those orders' rows.
    cfg = PointConfig.random(len(z), seed=2)
    clipped = tuple(min(m, hi + 1) for m in z)
    for nu in (False, True):
        assert oracle_table(cfg, z, lo, hi, nu) == oracle_table(cfg, clipped, lo, hi, nu)
    rows = sum((m + 1) * m // 2 for m in clipped)
    assert oracle._condition_matrix(cfg.prime, cfg.points, z, hi, oracle._exponents(hi)).shape == \
        (rows, (hi + 1) * (hi + 2) // 2)


@pytest.mark.parametrize("z, lo, hi", [
    ((3, 3, 3, 3, 3), 0, 9),
    ((3, 3, 3, 3, 3), 5, 9),
    ((2, 0, 4, 1, 0), 3, 8),
    ((0, 0), 0, 3),
    ((0, 2, 0), 2, 5),
])
def test_window_rows_equal_single_degree_values(z, lo, hi):
    cfg = PointConfig.random(len(z), seed=1)
    assert oracle_table(cfg, z, lo, hi) == \
        [[t, actual_hilbert(cfg, z, t)] for t in range(lo, hi + 1)]
    assert oracle_table(cfg, z, lo, hi, nu=True) == \
        [[t, actual_hilbert(cfg, z, t), actual_nu(cfg, z, t)] for t in range(lo, hi + 1)]


def test_table_builds_one_matrix_at_top_degree(monkeypatch):
    built = []
    real = oracle._condition_matrix

    def counting(p, points, mults, t, cols):
        built.append(t)
        return real(p, points, mults, t, cols)

    monkeypatch.setattr(oracle, "_condition_matrix", counting)
    cfg = PointConfig.random(5, seed=0)
    for nu in (True, False):
        built.clear()
        oracle_table(cfg, (3, 3, 3, 3, 3), 6, 9, nu=nu)
        assert built == [9]


def test_three_heaviest_points_stay_out_of_the_elimination(monkeypatch):
    # Five triple points in degree 9: 30 conditions on 55 monomials.  The
    # points at [0:0:1], [1:0:0] and [0:1:0] each leave out 6 columns and
    # their 6 rows, so the other two points' 12 rows meet 37 columns.
    shapes = []
    real = oracle._echelon

    def recording(a, p):
        shapes.append(a.shape)
        return real(a, p)

    monkeypatch.setattr(oracle, "_echelon", recording)
    cfg = PointConfig.random(5, seed=0)
    for nu in (True, False):
        shapes.clear()
        oracle_table(cfg, (3, 3, 3, 3, 3), 6, 9, nu=nu)
        assert shapes[0] == (12, 37)
    # With two or three positive points nothing is left to eliminate.
    for z in ((3, 0, 3, 0, 2), (0, 3, 0, 3, 0)):
        shapes.clear()
        oracle_table(cfg, z, 6, 9)
        assert shapes[0][0] == 0


def test_placement_falls_back_to_the_translation():
    # The heaviest point goes to [0:0:1], the next two to [1:0:0] and
    # [0:1:0] (the first one on ties), and the rest into the chart z = 1.
    cfg = PointConfig.random(5, seed=1)
    placed, chart, rest = oracle._place(cfg.points, (2, 3, 3, 1, 3), cfg.prime)
    assert placed == (3, 3, 3) and rest == [2, 1] and len(chart) == 2
    # Collinear heaviest points, or a fourth point on the line through the
    # second and third: only the heaviest is placed, by a translation.
    for points in (((1, 1), (2, 2), (3, 3), (5, 7)), ((5, 5), (1, 2), (2, 4), (3, 6))):
        placed, chart, rest = oracle._place(points, (4, 3, 3, 2), 31991)
        x0, y0 = points[0]
        assert placed == (4, 0, 0) and rest == [3, 3, 2]
        assert chart == [((x - x0) % 31991, (y - y0) % 31991) for x, y in points[1:]]


def test_placement_matches_the_translation_reference():
    # Seeded schemes of n <= 9 points with multiplicities up to 8 at seeds
    # 0-2, on the window alpha - 1..tau + 1 and a wider one, both cut below
    # p.  At p = 7, 13 and 37 the heaviest three are often collinear or a
    # fourth point lies on the line w = 0, and the translation runs.
    rng = random.Random(28)
    fallbacks = 0
    for _ in range(20):
        n = rng.randint(1, 9)
        z = tuple(rng.randint(0, 8) for _ in range(n))
        alpha, tau = find_alpha(z), find_tau(z)
        for p in (7, 13, 37, 31991):
            for seed in (0, 1, 2):
                cfg = PointConfig.random(n, seed=seed, prime=p)
                placed = oracle._place(cfg.points, z, p)[0]
                fallbacks += sum(m > 0 for m in z) >= 3 and placed[1:] == (0, 0)
                for lo, hi in ((alpha - 1, tau + 1), (alpha - 3, tau + 3)):
                    hi = min(hi, p - 1)
                    lo = min(lo, hi)
                    for nu in (False, True):
                        assert oracle_table(cfg, z, lo, hi, nu) == \
                            translation_oracle_table(cfg, z, lo, hi, nu), (z, p, seed, lo, hi)
    assert fallbacks


def test_point_config_validation():
    for _ in range(2):  # the second check reads the cached verdict
        with pytest.raises(ValueError, match="^10 is not prime$"):
            PointConfig(10, 0, ((1, 2), (3, 4)))
    with pytest.raises(ValueError, match="^points must be pairwise distinct$"):
        PointConfig(31991, 0, ((1, 2), (1, 2)))
    cfg = PointConfig.random(5, seed=1)
    assert len(set(cfg.points)) == 5
    assert cfg == PointConfig.random(5, seed=1)
    assert cfg != PointConfig.random(5, seed=2)


def test_random_checks_the_prime_once(monkeypatch):
    # The record checks its prime; random checks it itself only when no
    # draw is possible, to name a bad prime before the point count.
    calls = []
    is_prime = oracle._is_prime
    monkeypatch.setattr(oracle, "_is_prime", lambda p: calls.append(p) or is_prime(p))
    cfg = PointConfig.random(8, seed=1)
    assert calls == [oracle.DEFAULT_PRIME]
    assert cfg == PointConfig(cfg.prime, 1, cfg.points)
    calls.clear()
    with pytest.raises(ValueError, match="^4 is not prime$"):
        PointConfig.random(17, prime=4)
    assert calls == [4]


def test_degree_guards():
    cfg = PointConfig.random(1, seed=0, prime=13)
    with pytest.raises(ValueError):
        actual_hilbert(cfg, (1,), 13)
    with pytest.raises(ValueError):
        actual_hilbert(PointConfig.random(2, seed=0), (1,), 3)


def test_actual_hilbert_examples():
    cfg = PointConfig.random(1, seed=0)
    assert actual_hilbert(cfg, (2,), 1) == 0

    cfg5 = PointConfig.random(5, seed=0)
    assert actual_hilbert(cfg5, (1, 1, 1, 1, 1), 2) == 1

    cfg2 = PointConfig.random(2, seed=0)
    assert actual_hilbert(cfg2, (2, 2), 3) == 4


def test_actual_nu_examples():
    cfg5 = PointConfig.random(5, seed=0)
    assert actual_nu(cfg5, (3, 3, 3, 3, 3), 8) == 2

    cfg1 = PointConfig.random(1, seed=0)
    assert actual_nu(cfg1, (1,), 2) == 0

    cfg8 = PointConfig.random(8, seed=0)
    z = (4, 4, 4, 4, 4, 4, 4, 1)
    h11 = actual_hilbert(cfg8, z, 11)
    h12 = actual_hilbert(cfg8, z, 12)
    assert actual_nu(cfg8, z, 12) == h12 - 3 * h11 + 2


def test_actual_at_least_polynomial():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randrange(1, 7)
        z = [rng.randrange(0, 4) for _ in range(n)]
        cfg = PointConfig.random(n, seed=0)
        for t in range(0, 9):
            assert actual_hilbert(cfg, z, t) >= max(0, hilbert_polynomial(z, t))


def test_point_labeling_invariance():
    # Permuting the multiplicity list against fixed points changes which
    # point carries which multiplicity, but not the dimensions.
    z = (3, 1, 2, 1)
    cfg = PointConfig.random(4, seed=5)
    rng = random.Random(5)
    for _ in range(5):
        perm = list(range(4))
        rng.shuffle(perm)
        zp = tuple(z[i] for i in perm)
        for t in range(0, 8):
            assert actual_hilbert(cfg, z, t) == actual_hilbert(cfg, zp, t)


def _strict_majority(values):
    best = max(set(values), key=values.count)
    assert values.count(best) * 2 > len(values), values
    return best


def _seed_vote(z, lo, hi, nu=False):
    # Per degree, the strict majority over seeds 0-2 of the oracle's last
    # column: dim, or nu when asked for.
    runs = [oracle_table(PointConfig.random(len(z), seed=s), z, lo, hi, nu)
            for s in (0, 1, 2)]
    return {row[0]: _strict_majority([run[i][-1] for run in runs])
            for i, row in enumerate(runs[0])}


def test_majority_vote_matches_expected():
    for z in [(2, 2), (3, 3, 3, 3, 3), (1,) * 9]:
        for t, dim in _seed_vote(z, 0, 9).items():
            assert dim == expected_dim(DivisorClass(t, z)), (z, t)
    assert _seed_vote((3, 3, 3, 3, 3), 8, 8, nu=True) == {8: 2}


def test_prime_override():
    cfg = PointConfig.random(2, seed=0, prime=32003)
    assert cfg.prime == 32003
    assert actual_hilbert(cfg, (2, 2), 3) == 4


def test_prime_above_int64_square_root_rejected(capsys):
    # 2^61 - 1 is prime, but products of its residues overflow int64; the
    # oracle used to print dim I_6 = 0 here instead of the true 1.
    assert MAX_PRIME == 3037000499
    code = main(["oracle", "--mults", "3,3,3,3,3", "--window", "6:9",
                 "--prime", "2305843009213693951"])
    err = capsys.readouterr().err
    assert code == 3 and "isqrt(2^63 - 1)" in err
    with pytest.raises(ValueError, match="overflow"):
        PointConfig.random(2, seed=0, prime=4294967311)
    with pytest.raises(ValueError, match="overflow"):
        rank_mod_p(np.eye(2, dtype=np.int64), 4294967311)


def test_prime_2_pow_31_minus_1_accepted(capsys):
    code = main(["oracle", "--mults", "3,3,3,3,3", "--window", "6:9",
                 "--prime", str(2**31 - 1), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["rows"][0] == [6, 1]


def test_more_points_than_the_affine_plane_holds(capsys):
    # F_2 has 4 affine points: a fifth distinct one cannot be drawn.
    assert main(["oracle", "--uniform", "5:1", "--prime", "2", "--t", "0"]) == 3
    assert "4 points of the affine plane" in capsys.readouterr().err
    assert main(["oracle", "--uniform", "4:1", "--prime", "2", "--t", "0",
                 "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == [[0, 0]]


@pytest.mark.parametrize("uniform, prime", [("2:1", "-5"), ("2:1", "1"), ("17:1", "4")])
def test_bad_prime_named_before_points_are_drawn(capsys, uniform, prime):
    # These used to fail inside randrange or blame the size of "F_1"/"F_4".
    code = main(["oracle", "--uniform", uniform, "--prime", prime, "--t", "0"])
    err = capsys.readouterr().err
    assert code == 3 and err == f"error: {prime} is not prime\n"
