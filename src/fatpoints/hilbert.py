"""Expected dimensions and Hilbert-function characters of fat-point ideals.

For Z = m_1 p_1 + ... + m_n p_n at general points of the plane, the
degree-t piece of its ideal is cut out of the (t+1)(t+2)/2 forms of
degree t by sum(m_i (m_i + 1) / 2) vanishing conditions, so the Hilbert
polynomial is P(t) = (t^2 + 3t + 2 - sum(m_i (m_i + 1))) / 2.

The expected dimension e(F) of a class F refines max(0, P): reduce F to
the fundamental domain, drop the class if the terminal degree is
negative, otherwise clamp negative multiplicities, reduce again, and
evaluate max(0, P) on the result.  For n <= 9 points this equals the
actual dimension (Nagata); for n > 9 it is the conjectured value, an
upper bound for the least nonzero degree and a lower bound for the
degree where conditions become independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .lattice import (DivisorClass, FatPointSpec, as_spec, decompose,
                      reduce_fundamental_raw)

EXACT_POINT_LIMIT = 9

# alpha(Z) = ceil(c_n * m) for Z = m * (p_1 + ... + p_n), n <= 9.
UNIFORM_ALPHA_SLOPES = {
    1: Fraction(1), 2: Fraction(1), 3: Fraction(3, 2), 4: Fraction(2),
    5: Fraction(2), 6: Fraction(12, 5), 7: Fraction(21, 8),
    8: Fraction(48, 17), 9: Fraction(3),
}


def exactness_flag(n: int) -> str:
    return "exact" if n <= EXACT_POINT_LIMIT else "shgh-conjectural"


def hilbert_polynomial(z, t: int) -> int:
    """P_Z(t) = (t^2 + 3t + 2 - sum m_i(m_i+1)) / 2; always an integer."""
    z = as_spec(z)
    s = sum(m * (m + 1) for m in z.mults)
    return (t * t + 3 * t + 2 - s) // 2


def expected_dim(f: DivisorClass) -> int:
    """Expected dimension e(F) of the complete linear system of F.

    Reduce to the fundamental domain; negative terminal degree means 0.
    Otherwise clamp negative multiplicities, reduce once more, clamp
    again and evaluate max(0, P) on the result.  Exact for n <= 9.
    """
    return _expected_dim(f.degree, f.mults)


def _expected_dim(d: int, m) -> int:
    # expected_dim on a raw (degree, multiplicities) pair, for the loops
    # that would otherwise build a DivisorClass only to unwrap it.
    d, m = reduce_fundamental_raw(d, m)
    if d < 0:
        return 0
    if m[-1] < 0:
        # Without a negative entry the clamp changes nothing and the
        # terminal class is a fixed point of the second reduction.
        d, m = reduce_fundamental_raw(d, [x if x > 0 else 0 for x in m])
        if d < 0:
            return 0
    s = sum(x * (x + 1) for x in m if x > 0)
    return max(0, (d * d + 3 * d + 2 - s) // 2)


class _FastDims:
    """Per-scheme evaluator of e(F_t(Z)) with an O(1) in-domain shortcut.

    Once t is at least the sum of the three largest multiplicities the
    sorted class is already terminal with nonnegative entries, so e is
    just max(0, P(t)).
    """

    def __init__(self, z: FatPointSpec):
        self.mults = tuple(sorted((m for m in z.mults if m > 0), reverse=True))
        padded = self.mults + (0, 0, 0)
        self.three_largest = padded[0] + padded[1] + padded[2]
        self.condition_sum = sum(m * (m + 1) for m in self.mults)

    def hilbert_poly(self, t: int) -> int:
        return (t * t + 3 * t + 2 - self.condition_sum) // 2

    def e(self, t: int) -> int:
        if t >= self.three_largest:
            return max(0, self.hilbert_poly(t))
        return _expected_dim(t, self.mults)

    def first_nonzero(self) -> int:
        t = 0
        while self.e(t) == 0:
            t += 1
        return t


def _uniform_many(z: FatPointSpec) -> tuple[int, int] | None:
    # (n, m) of a uniform scheme past the exact range, where alpha and tau
    # have closed-form searches on P alone.
    if z.n > EXACT_POINT_LIMIT and z.is_uniform():
        return z.n, z.mults[0]
    return None


def find_alpha(z) -> int:
    """Least degree t >= 0 with e(F_t(Z)) > 0.

    Exact for n <= 9; for n > 9 this is the conjectured value of the
    least degree of a curve through Z, an upper bound unconditionally.
    """
    z = as_spec(z)
    nm = _uniform_many(z)
    if nm is not None:
        return _uniform_alpha_tau(*nm)[0]
    return _FastDims(z).first_nonzero()


def _alpha_tau(z: FatPointSpec) -> tuple[int, int, _FastDims]:
    """(find_alpha(z), find_tau(z), the evaluator of z) with one alpha scan.

    The tau scan warm-starts at max(0, alpha - 1), as find_tau documents.
    """
    dims = _FastDims(z)
    nm = _uniform_many(z)
    if nm is not None:
        return (*_uniform_alpha_tau(*nm), dims)
    alpha = dims.first_nonzero()
    t = max(0, alpha - 1)
    while dims.e(t) != dims.hilbert_poly(t):
        t += 1
    return alpha, t, dims


def _uniform_alpha_tau(n: int, m: int) -> tuple[int, int]:
    # n > 9 uniform, where 2 P(t) = t^2 + 3t + 2 - s: alpha is the least t
    # with P(t) > 0, and tau the least t >= 0 with P(t) >= 0, that is
    # t^2 + 3t + 2 > s - 1.
    s = n * m * (m + 1)
    return _least_above(s), max(_least_above(s - 1), 0)


def _least_above(s: int) -> int:
    # Least t >= -1 with t^2 + 3t + 2 > s.  Since (2t + 3)^2 =
    # 4(t^2 + 3t + 2) + 1 and 2t + 3 >= 1, that holds iff
    # 2t + 3 > isqrt(4s + 1).
    return -1 if s < 0 else (isqrt(4 * s + 1) - 1) // 2


def uniform_alpha_closed_form(n: int, m: int) -> int:
    """ceil(c_n * m) for n <= 9 general points of equal multiplicity m."""
    if n not in UNIFORM_ALPHA_SLOPES:
        raise ValueError(f"closed form only covers 1 <= n <= 9, got n={n}")
    if m < 0:
        raise ValueError("multiplicity must be nonnegative")
    c = UNIFORM_ALPHA_SLOPES[n] * m
    return -((-c.numerator) // c.denominator)


def find_tau(z) -> int:
    """Least degree t >= 0 with e(F_t(Z)) = P_Z(t).

    Exact for n <= 9 (the point where conditions become independent);
    for n > 9 a lower bound equal to the conjectured value.  The search
    warm-starts at max(0, alpha - 1); the result does not depend on the
    start.
    """
    return _alpha_tau(as_spec(z))[1]


@dataclass(frozen=True)
class HilbertTable:
    """Expected ideal dimensions per degree over a window around [alpha, tau]."""

    alpha: int
    tau: int
    rows: tuple[tuple[int, int], ...]
    exactness: str

    def value(self, t: int) -> int:
        for deg, v in self.rows:
            if deg == t:
                return v
        raise KeyError(f"degree {t} outside table window")


def hilbert_table(z, lo: int | None = None, hi: int | None = None) -> HilbertTable:
    """Tabulate e(F_t(Z)) for t in [lo, hi], default [alpha-1, tau+1]."""
    z = as_spec(z)
    alpha, tau, dims = _alpha_tau(z)
    if lo is None:
        lo = alpha - 1
    if hi is None:
        hi = tau + 1
    if lo > hi:
        raise ValueError(f"empty degree window [{lo}, {hi}]")
    rows = tuple((t, dims.e(t)) for t in range(lo, hi + 1))
    return HilbertTable(alpha, tau, rows, exactness_flag(z.n))


def beta_expected(z) -> int:
    """Least t >= alpha where F_t(Z) has no fixed part and a nonzero system.

    This is the expected least degree in which the base locus of the
    linear system becomes zero dimensional.  Equating it with the empty
    fixed part of the semigroup decomposition is conditional on the
    expected dimensions being the true ones, hence exact only for n <= 9.
    """
    z = as_spec(z)
    if z.nonzero_count == 0:
        raise ValueError("beta is undefined for the empty subscheme")
    t = find_alpha(z)
    while True:
        f = z.divisor_class(t)
        dec = decompose(f)
        if dec.in_semigroup and not dec.fixed_part and expected_dim(f) > 0:
            return t
        t += 1
