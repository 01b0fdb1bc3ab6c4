"""Reference implementations that only the tests use.

Each one is an independent statement of something the package computes
another way: they check the package, and no command reaches them.
"""

from fractions import Fraction
from math import isqrt

from fatpoints.alpha_bounds import (_ceil_div, _check_uniform_rd, _Lowerings, _prefix_spread_bound,
                                    _Runs, _u_rho, _unloading_min, unloading_alpha)
from fatpoints.lattice import DivisorClass, WeylWord, as_spec, cremona_quad
from fatpoints.report import ALPHA_LOWER, BoundReport, PreconditionError

# alpha(Z) = ceil(c_n * m) for Z = m * (p_1 + ... + p_n), n <= 9.
UNIFORM_ALPHA_SLOPES = {
    1: Fraction(1), 2: Fraction(1), 3: Fraction(3, 2), 4: Fraction(2),
    5: Fraction(2), 6: Fraction(12, 5), 7: Fraction(21, 8),
    8: Fraction(48, 17), 9: Fraction(3),
}


def uniform_alpha_closed_form(n: int, m: int) -> int:
    """ceil(c_n * m) for n <= 9 general points of equal multiplicity m."""
    if n not in UNIFORM_ALPHA_SLOPES:
        raise ValueError(f"closed form only covers 1 <= n <= 9, got n={n}")
    if m < 0:
        raise ValueError("multiplicity must be nonnegative")
    c = UNIFORM_ALPHA_SLOPES[n] * m
    return -((-c.numerator) // c.denominator)


def _apply_perm(f: DivisorClass, perm: tuple[int, ...]) -> DivisorClass:
    if len(perm) != len(f.mults):
        raise ValueError(f"permutation length {len(perm)} != multiplicity length {len(f.mults)}")
    return DivisorClass(f.degree, tuple(f.mults[p] for p in perm))


def apply_word(word: WeylWord, f: DivisorClass) -> DivisorClass:
    """Apply the moves of a word in order."""
    for move in word.moves:
        if move[0] == "perm":
            f = _apply_perm(f, move[1])
        else:
            f = cremona_quad(f)
    return f


def unloading_alpha_formula(n: int, m: int, r: int, d: int) -> BoundReport:
    """Closed form of the uniform unloading bound when 2r >= n + d^2.

    With u >= 0 and 0 < rho <= r defined by m n = u r + rho:
    alpha >= 1 + u d + min(d - 1, ceil(rho / d) - 1).
    """
    _check_uniform_rd(n, m, r, d)
    if 2 * r < n + d * d:
        raise PreconditionError("closed form needs 2r >= n + d^2")
    u, rho = _u_rho(n, m, r)
    value = 1 + u * d + min(d - 1, _ceil_div(rho, d) - 1)
    return BoundReport("unloading-formula", ALPHA_LOWER, value, (("r", r), ("d", d)))


def variant_d_search_loop(z) -> tuple:
    """The family-(d) search as one loop over every r, from a best of 0.

    Scans r over the positive multiplicities, d up to the first value
    with d^2 >= r and 1 <= j <= d^2, and keeps the first maximal
    (r, d, j); for that last d the value is the family-(c) one, recorded
    with j = 1.  A pair is skipped only when its reach bound
    ceil((P[d^2] r + min((r - d^2) r, (n - r) d^2) w[r]) / (r d)) is at
    most the running best.  Returns (value, params).
    """
    z = as_spec(z)
    w, sums = z.positive, z.sums
    n = len(w)
    best, best_r, best_d, best_j = 0, 0, 0, 0
    for r in range(1, n + 1):
        w_r = w[r] if r < n else 0
        d = 1
        while d * d < r:
            dd = d * d
            reach = sums[dd] * r + min((r - dd) * r, (n - r) * dd) * w_r
            if _ceil_div(reach, r * d) > best:
                for j in range(1, dd + 1):
                    value = _prefix_spread_bound(w, sums, r, d, j)
                    if value > best:
                        best, best_r, best_d, best_j = value, r, d, j
            d += 1
        value = _prefix_spread_bound(w, sums, r, d, 1)
        if value > best:
            best, best_r, best_d, best_j = value, r, d, 1
    return best, (("r", best_r), ("d", best_d), ("j", best_j))


def unloading_search_loop(z) -> tuple:
    """The unloading search as one loop over every r, from a best of 0.

    Keeps the first maximal (r, d) over 1 <= r <= n, d^2 <= r.  The d of
    one r are cut to those whose cap min(max(w[0], ceil(P[r] / d)), d E_r),
    E_r = max(w[0], ceil(P[n] / r)), beats the running best.  Returns
    (value, params).
    """
    z = as_spec(z)
    w, sums = z.positive, z.sums
    n = len(w)
    w0 = w[0]
    best, best_r, best_d = 0, 0, 0
    for r in range(1, n + 1):
        low = best // max(w0, _ceil_div(sums[-1], r))
        top = isqrt(r) if w0 > best else min(isqrt(r), (sums[r] - 1) // best)
        if low >= top:
            continue
        seq = _Lowerings(w, r)
        for d in range(low + 1, top + 1):
            value = _unloading_min(seq, d, best)
            if value > best:
                best, best_r, best_d = value, r, d
    best = unloading_alpha(z, best_r, best_d).value
    return best, (("r", best_r), ("d", best_d))


def roe_tau_per_step(z) -> int:
    """The iterated-unloading tau bound, summing the i + 1 largest entries
    afresh on every step of stage i instead of carrying the sum."""
    w = as_spec(z).positive or (0,)
    top = w[0]
    rest = _Runs(w[1:])
    for i in range(1, len(w) - 1):
        while top < rest.top_sum(i + 1) - 1:
            top += 1
            rest.lower(i)
    second = rest.top_sum(1) if len(w) > 1 else 0
    return max(top + second - 1, 0)
