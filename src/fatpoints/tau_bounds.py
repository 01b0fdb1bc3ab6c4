"""Upper bounds on the degree where a fat-point scheme imposes independent
conditions.

All methods bound tau(Z), the least degree from which the Hilbert
function agrees with the Hilbert polynomial, from above.  Most come from
specializing the points onto a curve of low degree (a conic, a cubic, a
curve of degree about sqrt(n)) or from iterated unloading; the modified
unloading variants assume characteristic 0.  Where a bound is stated for
n > 9 points only, smaller n is rejected rather than extrapolated.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import isqrt

from .alpha_bounds import (_ceil_div, _check_rd, _check_uniform_rd, _lowerings, _Runs,
                           _tri_root, _u_rho)
from .hilbert import _least_above
from .lattice import as_spec
from .report import TAU_UPPER, CHAR_ZERO, BoundReport, PreconditionError, fmt_rational


def segre_tau(n: int, m: int) -> BoundReport:
    """tau <= m n / 2 for n > 9 uniform points (specialization to a conic)."""
    _check_uniform_big(n, m)
    return BoundReport("conic-specialization", TAU_UPPER, m * n // 2)


def cubic_tau(n: int, m: int) -> BoundReport:
    """tau <= m n / 3 for n > 9 uniform points (specialization to a cubic)."""
    _check_uniform_big(n, m)
    return BoundReport("cubic-specialization", TAU_UPPER, m * n // 3)


def _check_uniform_big(n: int, m: int) -> None:
    if n <= 9:
        raise PreconditionError("bound is stated for n > 9 points only")
    if m < 1:
        raise PreconditionError("multiplicity must be positive")


def gimigliano_tau(z) -> BoundReport:
    """tau <= m_1 + ... + m_d for the least d with d(d+3) >= 2n.

    Needs d^2 >= n.  Since d(d+3) >= 2n > 2d^2 forces d < 3, that fails
    only at n = 2 and n = 5, where the points lie on a unique line or
    conic C, a (-1)-curve of the blow-up.  C is a fixed component in every
    degree t < (m_1 + ... + m_n) / d, and the sum can fall below tau
    there: at 9,8,7,7,7 it is 17, while tau is 19.  So those n are
    rejected.  At n = 1 the value m_1 is above tau = m_1 - 1.
    """
    w = as_spec(z).positive
    n = len(w)
    if n == 0:
        raise PreconditionError("the empty subscheme needs no bound")
    # The least d with d(d + 3) >= 2n, that is d^2 + 3d + 2 > 2n + 1.
    d = _least_above(2 * n + 1)
    if d * d < n:
        raise PreconditionError(f"bound needs d^2 >= n, got n={n}, d={d}")
    return BoundReport("gimigliano", TAU_UPPER, sum(w[:d]), (("d", d),))


def hirschowitz_tau(z) -> BoundReport:
    """Least d >= m_1 with ceil((d+3)/2) * ceil((d+2)/2) > sum m_i(m_i+1)/2."""
    z = as_spec(z)
    if not z.positive:
        raise PreconditionError("the empty subscheme needs no bound")
    d = z.positive[0]
    while _ceil_div(d + 3, 2) * _ceil_div(d + 2, 2) * 2 <= z.condition_sum:
        d += 1
    return BoundReport("hirschowitz", TAU_UPPER, d)


def sqrt_specialization_tau(n: int, m: int) -> BoundReport:
    """tau <= m ceil(sqrt(n)) + ceil((ceil(sqrt(n)) - 3) / 2) for n >= 9.

    Specialization of the points to a smooth curve of degree
    ceil(sqrt(n)); an equality for square n >= 9 once m is large enough.
    """
    if n < 9:
        raise PreconditionError("bound is stated for n >= 9 points only")
    if m < 0:
        raise PreconditionError("multiplicity must be nonnegative")
    root = isqrt(n)
    if root * root != n:
        root += 1
    value = m * root + _ceil_div(root - 3, 2)
    return BoundReport("sqrt-specialization", TAU_UPPER, value, (("d", root),))


def catalisano_tau(z) -> BoundReport:
    """Upper bound from the conic-specialization refinement.

    Needs at least five positive multiplicities.  Uniform schemes take
    the uniform branch; the general branch segments the sorted
    multiplicities at their strict drops.  One special-case test in the
    reference formulation compares against an undefined count; it is
    resolved as the number of positive multiplicities and flagged.
    """
    z = as_spec(z)
    w = z.positive
    n = len(w)
    if n < 5:
        raise PreconditionError("bound needs at least 5 points of positive multiplicity")
    if z.is_uniform():
        return BoundReport("catalisano", TAU_UPPER, _catalisano_uniform(n, w[0]))
    return BoundReport(
        "catalisano", TAU_UPPER, _catalisano_mixed(w),
        validity=("special-case count read as the number of positive multiplicities",))


def _split_floor(points: int) -> tuple[int, int]:
    # Largest f with f(f+1) <= 2*points, and least r with 2r >= 2*points - f(f+1).
    f = _tri_root(points) + 1
    return f, points - f * (f + 1) // 2


def _catalisano_uniform(n: int, m: int) -> int:
    f, r = _split_floor(n)
    d1 = f - 1 if r == 0 else f
    t = d1 + (m - 1) * f
    if 2 * t + 1 < 5 * m:
        t = _ceil_div(5 * m - 1, 2)
    if t < 2 * m - 1:
        t = 2 * m - 1
    if r == f and n >= 9:
        t = m * d1 + 1
    return t


def _catalisano_mixed(w: tuple[int, ...]) -> int:
    n = len(w)
    # Segments are the runs of equal multiplicities: each ends at a count
    # where the sorted values strictly drop, or at n.
    runs = _Runs(w)
    values = runs.vals
    diffs = [a - b for a, b in zip(values, values[1:] + [0])]
    fs, rs = zip(*(_split_floor(c) for c in accumulate(runs.cnts)))
    t = -1 if rs[-1] == 0 else 0
    d1 = t + fs[-1]
    t += sum(f * v for f, v in zip(fs, diffs))
    top5 = sum(w[:5])
    if 2 * t + 1 < top5:
        t = _ceil_div(top5 - 1, 2)
    if t < w[0] + w[1] - 1:
        t = w[0] + w[1] - 1
    if rs[0] == fs[0] and n >= 9 and w[0] == w[n - 1] and w[0] > 1:
        t = w[0] * d1 + 1
    if rs[0] == 0 and n > 9 and w[0] == w[n - 2] and w[n - 1] == 1:
        t = w[0] * d1 + 1
    return t


def roe_tau(z) -> BoundReport:
    """Iterated-unloading upper bound m_1' + m_2' - 1 (clamped at 0).

    Stage i (i = 2..n-1) subtracts E1 - ... - Ei, resorting and clamping,
    while the class meets E1 - ... - E_{i+1} in less than -1.  The top
    entry stays on top, so it is kept apart from the state of the rest.
    """
    z = as_spec(z)
    if z.n < 2:
        raise PreconditionError("bound needs at least 2 points")
    w = z.positive or (0,)
    top = w[0]
    rest = _Runs(w[1:])
    for i in range(1, len(w) - 1):
        # Each sweep lowers the i largest entries and sums the i + 1
        # largest, so the sum follows the drops that lower(i, 1) returns.
        s = rest.top_sum(i + 1)
        while top < s - 1:
            top += 1
            s -= rest.lower(i, 1)[1]
    second = rest.top_sum(1) if len(w) > 1 else 0
    return BoundReport("roe-unloading", TAU_UPPER, max(top + second - 1, 0))


def modified_unloading_tau(z, r: int, d: int) -> BoundReport:
    """Least t from which the class unloads to a multiplicity-free one.

    Subtracts the degree-d curve through the first r points while the
    degree stays at least d - 2 and the intersection stays at least
    genus - 1 (so no first cohomology appears along the way); succeeds
    when all multiplicities reach zero.  Characteristic 0 only.  With
    g = (d-1)(d-2)/2, the lowering sequence (tops, sums) and K the first
    step with tops[K] = 0, the bound is

        max(0, max over k < K of k d + max(d - 2, ceil((sums[k] + g - 1) / d))).

    Proof.  Degree t succeeds iff the walk takes every step k < K, and
    step k is taken iff deg = t - k d satisfies deg >= d - 2 and
    deg d >= sums[k] + g - 1, i.e. t is at least the k-th term.
    """
    z = as_spec(z)
    _check_rd(r, len(z.positive), d)
    g = (d - 1) * (d - 2) // 2
    seq = _lowerings(z, r)
    tops, sums = seq.tops, seq.sums
    t, k, kd = 0, 0, 0
    while tops[k] > 0:
        t = max(t, kd + d - 2, kd + _ceil_div(sums[k] + g - 1, d))
        k, kd = k + 1, kd + d
        if k == len(tops):
            seq.at(k)
    return BoundReport("modified-unloading", TAU_UPPER, t,
                       (("r", r), ("d", d)), (CHAR_ZERO,))


def modified_unloading_tau_formula_a(n: int, m: int, r: int, d: int) -> BoundReport:
    """Closed form when 2r >= n + d^2: max(ceil((m r + g - 1)/d), (u+1) d - 2)."""
    _check_uniform_rd(n, m, r, d)
    if 2 * r < n + d * d:
        raise PreconditionError("closed form (a) needs 2r >= n + d^2")
    g = (d - 1) * (d - 2) // 2
    u, _ = _u_rho(n, m, r)
    value = max(_ceil_div(m * r + g - 1, d), (u + 1) * d - 2)
    return BoundReport("modified-unloading-formula-a", TAU_UPPER, value,
                       (("r", r), ("d", d)), (CHAR_ZERO,))


def modified_unloading_tau_formula_b(n: int, m: int, r: int, d: int) -> BoundReport:
    """Closed form when r <= d^2: max(ceil((rho + g - 1)/d) + u d, (u+1) d - 2)."""
    _check_uniform_rd(n, m, r, d)
    if r > d * d:
        raise PreconditionError("closed form (b) needs r <= d^2")
    g = (d - 1) * (d - 2) // 2
    u, rho = _u_rho(n, m, r)
    value = max(_ceil_div(rho + g - 1, d) + u * d, (u + 1) * d - 2)
    return BoundReport("modified-unloading-formula-b", TAU_UPPER, value,
                       (("r", r), ("d", d)), (CHAR_ZERO,))


def ran_tau(n: int, m: int, c) -> BoundReport:
    """tau <= -3 + ceil((m+1) max(sqrt(n), n/c)) from a proven alpha >= c m.

    c is an exact rational slope of a proven linear lower-bound family;
    the max is resolved by comparing n against c^2 exactly, and the
    square-root ceiling uses integer arithmetic only.
    """
    if n < 1 or m < 0:
        raise PreconditionError("need n >= 1 and m >= 0")
    c = Fraction(c)
    if c <= 0:
        raise PreconditionError("the slope c must be positive")
    if n * c.denominator ** 2 >= c.numerator ** 2:
        value = -3 + _ceil_div((m + 1) * n * c.denominator, c.numerator)
    else:
        target = (m + 1) * (m + 1) * n
        k = isqrt(target)
        if k * k < target:
            k += 1
        value = -3 + k
    return BoundReport("ran-from-alpha", TAU_UPPER, value, (("c", fmt_rational(c)),))
