"""Graded Betti numbers of fat-point ideals on at most 8 general points.

The minimal free resolution 0 -> F1 -> F0 -> I(Z) -> 0 is determined by
the generator counts nu_t and syzygy counts s_t, linked through
nu_t - s_t = (third difference of the Hilbert function at t).  The
generator count in degree t+1 is the cokernel dimension of the
multiplication map mu_t : I_t (x) R_1 -> I_{t+1}, and for up to 8
general points that dimension follows from a case analysis: either some
exceptional curve meets the class too negatively (subtract it; the
kernel dimension is unchanged), or the class is orthogonal to the line
through the first two points (two correction terms), or it sits on one
special ray (kernel r+1, cokernel r), or the map has maximal rank.

One rule peels every fixed curve.  Let C be the first representative
(in the order of ``_EXC_TESTS``) that the sorted class F meets below its
threshold.  If F.C = -a < 0, then since C.C = -1 the class F - jC meets C
in j - a < 0 for every j < a, so each of the a copies is a fixed
component: multiplying by the equation of C maps the system of F - (j+1)C
onto that of F - jC, one to one, and commutes with multiplication by
linear forms, so the kernels of the two multiplication maps correspond.
So F and F - aC have the same h^0, for n <= 8 the same e, and the same
ker mu, and a copies of C come off in one step.  The loop is memoryless:
each pass reads only (d, m) and e, so a later test on F - aC runs on a
class its own rule already covers, as a call on F - aC would.  Clamping
a negative multiplicity -b to 0 is the same rule for E_i, which the
class meets in -b.  After such a step e is kept and the next emptiness
test is skipped.  A C that is no fixed component (0 <= F.C below its
threshold) comes off once, and e is evaluated again.

The table reduces no degree twice.  Its Hilbert values are 0 below
alpha and P from tau on, and only the degrees in [alpha, tau) are
reduced, once each per query and shared with the alpha and tau searches
(``hilbert._e_window``).  ker_mu_dim(F_t) gets e(t) and e(t+1) from those
values: e(t) > 0 from alpha on, so the entry emptiness test reduces
nothing, and while no curve has been subtracted (the degree is still t)
the maximal-rank term 3 e(t) - e(t+1) reduces nothing either.  Inside
the kernel only three things are reduced: a class reached by subtracting
a curve that is no fixed component, the two correction terms, and the
degree-up term after a subtraction.  The six curve tests read prefix
sums of the sorted multiplicities (``_EXC_STEPS``) instead of six 8-term
dot products.

Also here: the classical per-degree generator bounds that the exact
algorithm sharpens, and the predicted resolution shape for quasi-uniform
schemes on 9 or more points (conjectural; callers must label it so).
"""

from __future__ import annotations

from itertools import accumulate

from .hilbert import (_alpha_tau, _e, _e_window, _expected_dim, _least_above,
                      hilbert_polynomial)
from .lattice import DivisorClass, as_spec
from .report import PreconditionError, _Record

MAX_POINTS = 8

# Sorted representatives of the exceptional orbits on 8 points, checked in
# this order against a sorted class, each with the intersection threshold
# below which the curve is subtracted (threshold = smaller of the top
# multiplicity and degree minus it).
_EXC_TESTS: tuple[tuple[DivisorClass, int], ...] = (
    (DivisorClass(6, (3, 2, 2, 2, 2, 2, 2, 2)), 3),
    (DivisorClass(5, (2, 2, 2, 2, 2, 2, 1, 1)), 2),
    (DivisorClass(4, (2, 2, 2, 1, 1, 1, 1, 1)), 2),
    (DivisorClass(3, (2, 1, 1, 1, 1, 1, 1, 0)), 1),
    (DivisorClass(2, (1, 1, 1, 1, 1, 0, 0, 0)), 1),
    (DivisorClass(1, (1, 1, 0, 0, 0, 0, 0, 0)), 0),
)


# The same tests as ker_mu_dim runs them: (C.degree, C.mults, threshold,
# x, i, j) per representative C, in order.  On a sorted class (d; m),
# F.C = C.degree * d - x * m_1 - S_i - S_j, where S_k is the sum of the k
# largest entries (S_0 = 0).  This is Abel summation of C's nonincreasing
# multiplicities c: F.C = C.degree * d - sum over k of (c_k - c_{k+1}) S_k,
# with c_9 = 0.
_EXC_STEPS: tuple[tuple, ...] = tuple(
    (c.degree, c.mults, lam) + sums for (c, lam), sums in zip(
        _EXC_TESTS, ((1, 8, 8), (0, 6, 8), (0, 3, 8), (1, 7, 0), (0, 5, 0), (0, 2, 0))))


def _as8(mults) -> tuple[int, ...]:
    m = tuple(mults)
    if sum(1 for x in m if x != 0) > MAX_POINTS:
        raise PreconditionError("resolution algorithm supports at most 8 points")
    m = tuple(x for x in m if x != 0)
    return m + (0,) * (MAX_POINTS - len(m))


def ker_mu_dim(f: DivisorClass, e: int | None = None, e_next: int | None = None) -> int:
    """Kernel dimension of the multiplication map out of the system of f.

    Case analysis for 8 general points: clamp and sort; an empty system
    has zero kernel; subtract the first exceptional representative C
    the class meets below its threshold and repeat, -F.C copies in one
    step when F.C < 0 (a fixed component) and one otherwise; then
    either the two-term correction (class orthogonal to the line through
    the first two points), the special ray (kernel r+1), or maximal
    rank.

    e and e_next, when given, are the expected dimensions of f and of f
    one degree up, which the caller may already know; they stand in for
    the entry emptiness test and, when no curve was subtracted, for the
    maximal-rank term 3 e - e_next.
    """
    d = f.degree
    m = list(_as8(f.mults))
    here = e  # e of (d, m), kept across fixed components
    while True:
        # Sort, then clamp: the negative entries sit at the end, and 0s there
        # keep the order.
        m = sorted(m, reverse=True)
        if m[-1] < 0:
            m = [x if x > 0 else 0 for x in m]
        if here is None:
            here = _expected_dim(d, m)
        if here == 0:
            return 0
        sums = list(accumulate(m, initial=0))
        for deg, c, lam, x, i, j in _EXC_STEPS:
            meet = deg * d - x * m[0] - sums[i] - sums[j]
            if meet < lam:
                break
        else:
            break
        if meet < 0:
            k = -meet  # -F.C copies of a fixed component: e is kept
        else:
            k, here = 1, None  # c is no fixed component, so e may change
        d -= k * deg
        m = [a - k * b for a, b in zip(m, c)]
    if d - m[0] - m[1] == 0:
        left = _expected_dim(d - 1, [m[0] - 1] + m[1:])
        if m[0] == m[1]:  # the two classes are one up to order
            return 2 * left
        return left + _expected_dim(d - 1, [m[0], m[1] - 1] + m[2:])
    r = m[7]
    if d == 8 * r + 3 and m == [3 * r + 1] * 7 + [r]:
        return r + 1
    # Every subtraction lowers the degree, so d == f.degree means (d, m)
    # is f itself, sorted, and e_next is its e one degree up.
    if e_next is None or d != f.degree:
        e_next = _expected_dim(d + 1, m)
    return max(0, 3 * here - e_next)


class BettiTable(_Record):
    """Rows (t, h, nu, s) of Hilbert values, generator and syzygy counts."""

    alpha: int
    tau: int
    rows: tuple[tuple[int, int, int, int], ...]


def betti_table(z) -> BettiTable:
    """Hilbert values and Betti numbers for t from alpha-2 to tau+2 (n <= 8)."""
    z = as_spec(z)
    mults = _as8(z.mults)
    alpha, tau = _alpha_tau(z)
    degrees = list(range(alpha - 2, tau + 3))
    h = _e_window(z, alpha, tau, alpha - 2, tau + 2)
    # nu at degree t reads the kernel at t - 1, so the top degree's is
    # unused; the kernel at t reads the known e at t and t + 1.
    ker = [0 if t < alpha else ker_mu_dim(DivisorClass(t, mults), h[i], h[i + 1])
           for i, t in enumerate(degrees[:-1])]
    nu = []
    for i, t in enumerate(degrees):
        if i < 2:
            nu.append(0)
        else:
            nu.append(h[i] - 3 * h[i - 1] + ker[i - 1])
    s = []
    for i, t in enumerate(degrees):
        if i < 3:
            s.append(0)
        else:
            s.append(nu[i] - h[i] + 3 * h[i - 1] - 3 * h[i - 2] + h[i - 3])
    rows = tuple(zip(degrees, h, nu, s))
    table = BettiTable(alpha, tau, rows)
    _check_betti(table, z)
    return table


def _check_betti(table: BettiTable, z) -> None:
    # Structural identities that hold for every valid table.
    degrees = [r[0] for r in table.rows]
    h = {r[0]: r[1] for r in table.rows}
    for t, ht, nut, st in table.rows:
        def hv(u: int) -> int:
            if u in h:
                return h[u]
            return 0 if u < table.alpha else hilbert_polynomial(z, u)
        d3 = hv(t) - 3 * hv(t - 1) + 3 * hv(t - 2) - hv(t - 3)
        if nut - st != d3:
            raise RuntimeError(f"nu-s != third difference at degree {t}")
        if t == table.alpha and nut != ht:
            raise RuntimeError("generator count at alpha != Hilbert value")
        if t > table.tau + 1 and nut != 0:
            raise RuntimeError(f"generators above tau+1 at degree {t}")
        if nut < 0 or st < 0:
            raise RuntimeError(f"negative Betti number at degree {t}")
    if sum(r[2] for r in table.rows) > table.alpha + 1:
        raise RuntimeError("total generator count exceeds alpha + 1")


class QuasiUniformResolution(_Record):
    """Predicted resolution 0 -> R[-a-2]^d + R[-a-1]^c -> R[-a-1]^b + R[-a]^a -> I."""

    alpha: int
    a: int
    b: int
    c: int
    d: int
    label: str = "conjectural (quasi-uniform prediction)"


def quasi_uniform_resolution(z) -> QuasiUniformResolution:
    """Predicted resolution shape for a quasi-uniform scheme.

    Requires n >= 9 points, nonincreasing multiplicities with the first
    nine equal.  Uses h(t) = max(P(t), 0); the output is conjectural and
    carries that label.  An all-zero scheme gives the whole ring.
    """
    z = as_spec(z)
    m = z.mults
    if len(m) < 9:
        raise PreconditionError("quasi-uniform requires at least 9 points")
    if any(m[i] < m[i + 1] for i in range(len(m) - 1)):
        raise PreconditionError("quasi-uniform requires nonincreasing multiplicities")
    if m[0] != m[8]:
        raise PreconditionError("quasi-uniform requires the first nine multiplicities equal")
    if all(x == 0 for x in m):
        return QuasiUniformResolution(0, 1, 0, 0, 0)

    def h(t: int) -> int:
        return max(hilbert_polynomial(z, t), 0)

    alpha = _least_above(z.condition_sum)  # the least t with P(t) > 0
    a = h(alpha)
    b = max(h(alpha + 1) - 3 * a, 0)
    c = max(3 * a - h(alpha + 1), 0)
    d = a + b - c - 1
    return QuasiUniformResolution(alpha, a, b, c, d)


class NuBounds(_Record):
    """Per-degree generator-count bounds plus the two total bounds."""

    per_degree: tuple[tuple[int, int, int], ...]  # (t, lower, upper)
    total_simple: int      # alpha + 1
    total_refined: int     # alpha + beta - tau


def classical_nu_bounds(z, alpha: int | None = None, beta: int | None = None,
                        tau: int | None = None) -> NuBounds:
    """Classical bracketing of the generator counts from the Hilbert function.

    With eps_t = 0 below alpha, 1 for alpha <= t < beta and 2 for
    beta <= t <= tau: nu_{t+1} <= (second difference of h at t+1) - eps_t,
    and nu_t >= max(third difference of h at t, 1 if t = beta, 0).
    Degrees covered: alpha to tau + 1.
    """
    from .hilbert import beta_expected
    z = as_spec(z)
    if alpha is None or tau is None:
        found_alpha, found_tau = _alpha_tau(z)
        alpha = found_alpha if alpha is None else alpha
        tau = found_tau if tau is None else tau
    if beta is None:
        beta = beta_expected(z)
    if not (alpha <= beta <= tau + 1):
        raise ValueError(f"inconsistent characters: alpha={alpha}, beta={beta}, tau={tau}")

    def h(t: int) -> int:
        # Each degree is reduced at most once per spec (hilbert._e).
        return 0 if t < alpha else _e(z, t)

    def eps(t: int) -> int:
        if t < alpha:
            return 0
        if t < beta:
            return 1
        if t <= tau:
            return 2
        return 0

    out = []
    for t in range(alpha, tau + 2):
        upper = h(t) - 2 * h(t - 1) + h(t - 2) - eps(t - 1)
        d3 = h(t) - 3 * h(t - 1) + 3 * h(t - 2) - h(t - 3)
        lower = max(d3, 1 if t == beta else 0, 0)
        out.append((t, lower, upper))
    return NuBounds(tuple(out), alpha + 1, alpha + beta - tau)
