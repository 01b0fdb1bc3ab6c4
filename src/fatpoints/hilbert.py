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

Two shortcuts let the characters skip most reductions.

*Alpha and tau by bisection.*  On at most 9 positive multiplicities
e(t) = e(F_t(Z)) is dim I_t.  Multiplying by a linear form injects I_t
into I_{t+1}, so "e(t) > 0" holds from alpha on.  And e(t) - P(t) =
deg Z - H_Z(t) never grows, since the Hilbert function of a zero
dimensional scheme never decreases, so "e(t) = P(t)" holds from tau on.
Both searches bisect a bracket known in O(1).  With s = sum m_i(m_i+1)
and T the sum of the three largest multiplicities, every class of degree
t >= T is already in the fundamental domain, so e(t) = max(0, P(t))
there.  Hence alpha lies in [m_1, max(T, least t with P(t) > 0)], since
no curve of degree below m_1 has a point of multiplicity m_1, and tau
lies in [max(0, alpha - 1, least t >= 0 with P(t) >= 0), max(alpha - 1,
T, least t with P(t) >= 0)].  Past 9 positive multiplicities e is only
conjectural, and the searches step forward from m_1 and from the lower
end of that bracket, except on uniform input, where they are closed
forms in P alone; e(t) = 0 below m_1 on any input, and e(t) = P(t) needs
P(t) >= 0 (proofs in ``_alpha_tau``).

*Known values and shared e in tables.*  The same two facts give a table
on at most 9 positive multiplicities its values outside [alpha, tau):
e(t) = 0 for t < alpha (negative t included) and e(t) = P(t) for t >=
tau.  Only the degrees in between are reduced, and ``_e`` keeps each
value on the query's spec (``FatPointSpec.expected_dims``), so a degree
the alpha or tau bisection already evaluated is not reduced again: e is
reduced at most once per degree per query.  Past 9 e is conjectural,
neither fact is proven, and a table evaluates every degree, still
through the same per-spec values.

*Beta from the terminal class.*  decompose() reads membership and the
fixed part off the terminal class (d; m) of the reduction alone, and
the raw and the recorded reductions reach the same sorted terminal
values.  The class is a member with no fixed part iff d >= 0 and no m_i
is negative: at d >= 0 the fundamental domain gives d >= m_1 + m_2 + m_3,
which with m_3 >= 0 rules out the line E0 - E1 - E2 as a fixed part.
Then e is max(0, P) of the terminal class, and P = (F.F - K.F)/2 + 1 is
invariant under the Weyl group, so e >= 2 iff P(t) >= 2 on the original
class.  So beta is the least t >= max(alpha, least t with P(t) >= 2)
whose terminal class has d >= 0 and no negative entry, and every t >= T
qualifies.
"""

from __future__ import annotations

from itertools import count
from math import isqrt

from .lattice import (DivisorClass, FatPointSpec, as_spec, decompose,
                      reduce_fundamental_raw)
from .report import PreconditionError, _Record

EXACT_POINT_LIMIT = 9


def exactness_flag(n: int) -> str:
    return "exact" if n <= EXACT_POINT_LIMIT else "shgh-conjectural"


def hilbert_polynomial(z, t: int) -> int:
    """P_Z(t) = (t^2 + 3t + 2 - sum m_i(m_i+1)) / 2; always an integer."""
    return (t * t + 3 * t + 2 - as_spec(z).condition_sum) // 2


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


def _e(z: FatPointSpec, t: int) -> int:
    # e(F_t(Z)), reduced at most once per degree for the life of the spec:
    # the value is kept in z.expected_dims.  Once t is at least the sum of
    # the three largest multiplicities the sorted class is already
    # terminal with nonnegative entries, so e is just max(0, P(t)).
    w = z.positive
    if t >= sum(w[:3]):
        return max(0, (t * t + 3 * t + 2 - z.condition_sum) // 2)
    dims = z.expected_dims
    e = dims.get(t)
    if e is None:
        e = dims[t] = _expected_dim(t, w)
    return e


def _e_window(z: FatPointSpec, alpha: int, tau: int, lo: int, hi: int) -> list[int]:
    # e(F_t(Z)) for t in [lo, hi], given z's alpha and tau.  On at most 9
    # positive multiplicities e is 0 below alpha and P from tau on (module
    # docstring), so only the degrees in [alpha, tau) go through _e.  Past
    # 9 e is conjectural and every degree does.
    if len(z.positive) > EXACT_POINT_LIMIT:
        return [_e(z, t) for t in range(lo, hi + 1)]
    s = z.condition_sum
    return [0 if t < alpha else _e(z, t) if t < tau else (t * t + 3 * t + 2 - s) // 2
            for t in range(lo, hi + 1)]


def _least_true(holds, lo: int, hi: int) -> int:
    # Least t in [lo, hi] with holds(t), for a predicate that stays true
    # once true and holds at hi: at most ceil(log2(hi - lo + 1)) calls.
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def find_alpha(z) -> int:
    """Least degree t >= 0 with e(F_t(Z)) > 0.

    Exact for n <= 9; for n > 9 this is the conjectured value of the
    least degree of a curve through Z, an upper bound unconditionally.
    """
    return _alpha_tau(as_spec(z), with_tau=False)[0]


def _alpha_tau(z: FatPointSpec, with_tau: bool = True) -> tuple[int, int | None]:
    """(find_alpha(z), find_tau(z)) with one alpha search; tau is None without with_tau.

    On at most 9 positive multiplicities both searches bisect the brackets
    of the module docstring.  Past 9 they are closed forms in P on uniform
    input, and otherwise scans from m_1 and from the lower end of the tau
    bracket, max(0, alpha - 1, least t >= 0 with P(t) >= 0).

    The tau scan may start there.  e(t) >= 0, so e(t) = P(t) needs
    P(t) >= 0; below ``_least_above(s - 1)``, t^2 + 3t + 2 <= s - 1 and
    P(t) < 0.

    The alpha scan may start at m_1, since e(t) = 0 for 0 <= t < m_1.
    Let M be the largest entry of a class (d; m) with d >= 0.

    1. While d < M, the quadratic map keeps that true and strictly lowers
       d.  It applies only when d < m_1 + m_2 + m_3 on the sorted class,
       so k = d - m_1 - m_2 - m_3 < 0 and d' = d + k < d.  Its new first
       entry is m_1 + k, and d' - (m_1 + k) = d - m_1 < 0, so d' is still
       below the largest entry.
    2. Clamping negative entries to 0 keeps the largest entry, which is
       M > d >= 0.
    3. The reduction of (t; w), 0 <= t < m_1, starts with d < M, so it
       ends with d < 0, or with 0 <= d < M for the M of the class it ends
       at; by 2 the same holds for the reduction after the clamp.  So
       ``_expected_dim`` returns 0, or evaluates P on a class with
       0 <= d < M.  There M is a positive entry, so M(M + 1) <= s, the
       sum of x(x + 1) over the positive entries, and
       (d + 1)(d + 2) <= M(M + 1) <= s gives P <= 0 and e = 0.
    """
    w, s = z.positive, z.condition_sum
    if len(w) > EXACT_POINT_LIMIT and z.is_uniform():
        return _uniform_alpha_tau(len(w), w[0])
    top = sum(w[:3])
    if len(w) > EXACT_POINT_LIMIT:
        alpha = next(t for t in count(w[0]) if _e(z, t) > 0)
    else:
        alpha = _least_true(lambda t: _e(z, t) > 0, w[0] if w else 0,
                            max(top, _least_above(s)))
    if not with_tau:
        return alpha, None
    lo = max(0, alpha - 1, _least_above(s - 1))
    if len(w) > EXACT_POINT_LIMIT:
        return alpha, next(t for t in count(lo) if _e(z, t) == hilbert_polynomial(z, t))
    return alpha, _least_true(lambda t: _e(z, t) == hilbert_polynomial(z, t),
                              lo, max(lo, top))


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


def find_tau(z) -> int:
    """Least degree t >= 0 with e(F_t(Z)) = P_Z(t).

    Exact for n <= 9 (the point where conditions become independent);
    for n > 9 a lower bound equal to the conjectured value.  The search
    starts at max(0, alpha - 1, least t >= 0 with P(t) >= 0): e(t) >= 0,
    so no degree with P(t) < 0 has e(t) = P(t).
    """
    return _alpha_tau(as_spec(z))[1]


class HilbertTable(_Record):
    """Expected ideal dimensions per degree over a window around [alpha, tau]."""

    alpha: int
    tau: int
    rows: tuple[tuple[int, int], ...]
    exactness: str


def hilbert_table(z, lo: int | None = None, hi: int | None = None) -> HilbertTable:
    """Tabulate e(F_t(Z)) for t in [lo, hi], default [alpha-1, tau+1]."""
    z = as_spec(z)
    alpha, tau = _alpha_tau(z)
    if lo is None:
        lo = alpha - 1
    if hi is None:
        hi = tau + 1
    if lo > hi:
        raise ValueError(f"empty degree window [{lo}, {hi}]")
    rows = tuple(zip(range(lo, hi + 1), _e_window(z, alpha, tau, lo, hi)))
    return HilbertTable(alpha, tau, rows, exactness_flag(len(z.positive)))


def beta_expected(z) -> int:
    """Least t >= alpha where F_t(Z) has no fixed part and e >= 2.

    This is the expected least degree in which the base locus of the
    linear system becomes zero dimensional.  Equating it with the empty
    fixed part of the semigroup decomposition is conditional on the
    expected dimensions being the true ones, hence exact only for n <= 9.
    Each degree is tested on its terminal class, as the module docstring
    shows; decompose() then checks the degree returned.

    The scan starts at the least t with P(t) >= 2.  On a member without
    fixed part e = max(0, P), so below that degree such a system is
    empty or a single curve, which is its own base locus: at nine points
    of multiplicity m, I_{3m} holds only m times the cubic through them,
    so beta is 3m + 1, not 3m.  P increases for t >= -1, so from there on
    every member without fixed part has e >= 2: a system of dimension at
    least 2 with no fixed curve, whose base locus is finite.  As
    (t + 1)(t + 2) and sum m_i(m_i + 1) are even, P(t) >= 2 iff
    t^2 + 3t + 2 > condition_sum + 2.
    """
    z = as_spec(z)
    if not z.positive:
        raise PreconditionError("beta is undefined for the empty subscheme")
    t = max(find_alpha(z), _least_above(z.condition_sum + 2))
    while t < sum(z.positive[:3]):
        d, m = reduce_fundamental_raw(t, z.mults)
        if d >= 0 and m[-1] >= 0:
            break
        t += 1
    dec = decompose(z.divisor_class(t))
    if not dec.in_semigroup or dec.fixed_part:
        raise RuntimeError(f"beta degree {t} of {list(z.mults)} is not a member "
                           "without fixed part")
    return t
