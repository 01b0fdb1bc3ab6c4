"""Reference implementations that only the tests use.

Each one is an independent statement of something the package computes
another way: they check the package, and no command reaches them.
"""

from fractions import Fraction

from fatpoints.alpha_bounds import _ceil_div, _check_uniform_rd, _u_rho
from fatpoints.lattice import DivisorClass, WeylWord, cremona_quad
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
