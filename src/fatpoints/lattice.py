"""Divisor-class arithmetic on blow-ups of the projective plane.

Blowing up n points of the plane gives a rational surface whose divisor
class group is free abelian on the class of a line and on the n
exceptional classes.  A class is stored as an integer degree together
with the multiplicities it imposes at the points: the pair
``(d; m_1, ..., m_n)`` stands for ``d*E0 - m_1*E1 - ... - m_n*En``.
The intersection form is ``d*d' - sum(m_i * m_i')``.

The quadratic Cremona map centered at the first three points, together
with permutations of the points, generates a Weyl group acting on this
lattice.  Repeatedly sorting the multiplicities into nonincreasing order
and applying the quadratic map while the degree is smaller than the sum
of the three largest multiplicities reduces any class to a fundamental
domain; every move is recorded in a :class:`WeylWord` so the reduction
can be undone exactly.

On top of the reduction sits the membership test for the subsemigroup
generated by the exceptional classes and the anticanonical class (which
contains every effective class when the points are general), and the
unique splitting of a member into a "moving" part meeting all
exceptional classes nonnegatively plus a fixed combination of mutually
orthogonal exceptional classes.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from itertools import accumulate
from operator import neg
from typing import Sequence

from .report import _Record

Move = tuple
_QUAD: Move = ("quad",)


class DivisorClass(_Record):
    """A lattice element d*E0 - sum(m_i * E_i); ``mults`` may be signed."""

    degree: int
    mults: tuple[int, ...]

    def __init__(self, degree: int, mults: Sequence[int]):
        object.__setattr__(self, "degree", int(degree))
        object.__setattr__(self, "mults", tuple(int(m) for m in mults))

    def padded(self, n: int) -> "DivisorClass":
        """Copy with the multiplicity list zero-extended to length >= n."""
        if len(self.mults) >= n:
            return self
        return DivisorClass(self.degree, self.mults + (0,) * (n - len(self.mults)))

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        n = max(len(self.mults), len(other.mults))
        a, b = self.padded(n), other.padded(n)
        return DivisorClass(a.degree + b.degree,
                            tuple(x + y for x, y in zip(a.mults, b.mults)))

    def __rmul__(self, k: int) -> "DivisorClass":
        return DivisorClass(k * self.degree, tuple(k * m for m in self.mults))

    def __repr__(self) -> str:
        return f"({self.degree}; {','.join(str(m) for m in self.mults)})"


class FatPointSpec(_Record):
    """Multiplicities m_1, ..., m_n of a fat-point subscheme at general points.

    At general points the characters depend only on the multiset of
    positive multiplicities.  Its normal form, ``positive``, with its
    prefix ``sums``, its ``runs`` and ``condition_sum``, is computed here
    on first read and nowhere else.  The spec of one query also carries
    that query's memos, ``lowerings`` and ``expected_dims``; they take no
    part in equality or hashing.
    """

    mults: tuple[int, ...]

    def __init__(self, mults: Sequence[int]):
        mults = tuple(int(m) for m in mults)
        if any(m < 0 for m in mults):
            raise ValueError("fat-point multiplicities must be nonnegative")
        object.__setattr__(self, "mults", mults)

    @property
    def n(self) -> int:
        return len(self.mults)

    @cached_property
    def positive(self) -> tuple[int, ...]:
        """The positive multiplicities, sorted nonincreasing."""
        return tuple(sorted((m for m in self.mults if m > 0), reverse=True))

    @cached_property
    def sums(self) -> tuple[int, ...]:
        """Prefix sums of ``positive``: sums[k] is the sum of its first k entries."""
        return tuple(accumulate(self.positive, initial=0))

    @cached_property
    def runs(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``positive`` as runs of equal values, (values, counts) with values
        decreasing; each run's end is found by bisection, in O(runs log n)."""
        w = self.positive
        values, counts = [], []
        i = 0
        while i < len(w):
            j = bisect_right(w, -w[i], i, key=neg)
            values.append(w[i])
            counts.append(j - i)
            i = j
        return tuple(values), tuple(counts)

    @cached_property
    def condition_sum(self) -> int:
        """sum m_i (m_i + 1), twice the number of conditions the scheme imposes."""
        return sum(m * (m + 1) for m in self.positive)

    @cached_property
    def lowerings(self) -> dict:
        """Lowering sequences of ``positive`` by r, kept by the fixed-r
        unloading methods (``alpha_bounds._lowerings``) for this spec's life."""
        return {}

    @cached_property
    def expected_dims(self) -> dict:
        """e(F_t) by degree t, kept by ``hilbert._e`` for this spec's life."""
        return {}

    def divisor_class(self, t: int) -> DivisorClass:
        """The class t*E0 - sum(m_i * E_i) of degree-t curves through the scheme."""
        return DivisorClass(t, self.mults)

    def is_uniform(self) -> bool:
        """True when all positive multiplicities are equal (and there is at least one)."""
        w = self.positive
        return len(w) > 0 and w[0] == w[-1]


def as_spec(z) -> FatPointSpec:
    """Coerce a FatPointSpec or a plain multiplicity sequence."""
    if isinstance(z, FatPointSpec):
        return z
    return FatPointSpec(z)


def canonical_class(n: int) -> DivisorClass:
    """The canonical class -3*E0 + E1 + ... + En in stored coordinates."""
    return DivisorClass(-3, (-1,) * n)


def intersection(f: DivisorClass, g: DivisorClass) -> int:
    """Intersection number f.g; the shorter multiplicity list is zero-padded."""
    total = f.degree * g.degree
    for a, b in zip(f.mults, g.mults):
        total -= a * b
    return total


def is_exceptional(c: DivisorClass) -> bool:
    """True when c has self-intersection -1 and meets the canonical class in -1."""
    k = canonical_class(len(c.mults))
    return intersection(c, c) == -1 and intersection(c, k) == -1


def clamp_nonneg(f: DivisorClass) -> DivisorClass:
    """Replace negative multiplicities by zero; the degree is untouched."""
    return DivisorClass(f.degree, tuple(m if m > 0 else 0 for m in f.mults))


def _desc_perm(mults: Sequence[int]) -> tuple[int, ...]:
    # Stable: ties keep their original relative order.
    return tuple(sorted(range(len(mults)), key=lambda i: (-mults[i], i)))


def _is_identity(perm: tuple[int, ...]) -> bool:
    return all(p == i for i, p in enumerate(perm))


class WeylWord(_Record):
    """A recorded sequence of lattice moves: slot permutations and quadratic maps.

    Both move kinds are invertible (the quadratic map is an involution),
    so a word can be undone exactly by applying the inverse moves in
    reverse order.
    """

    moves: tuple[Move, ...] = ()


def _apply_perm_inverse(f: DivisorClass, perm: tuple[int, ...]) -> DivisorClass:
    if len(perm) != len(f.mults):
        raise ValueError(f"permutation length {len(perm)} != multiplicity length {len(f.mults)}")
    out = [0] * len(perm)
    for i, p in enumerate(perm):
        out[p] = f.mults[i]
    return DivisorClass(f.degree, tuple(out))


def _quad_raw(d: int, m: list[int]) -> int:
    # In-place quadratic transform on a multiplicity list; returns the new
    # degree: (d; m1,m2,m3,...) goes to (2d-m1-m2-m3; d-m2-m3, d-m1-m3, d-m1-m2, ...).
    m1, m2, m3 = m[0], m[1], m[2]
    m[0] = d - m2 - m3
    m[1] = d - m1 - m3
    m[2] = d - m1 - m2
    return 2 * d - m1 - m2 - m3


def cremona_quad(f: DivisorClass) -> DivisorClass:
    """Quadratic Cremona transform centered at the first three points.

    The map of ``_quad_raw``, on a copy.  Involution; preserves the
    intersection form.  Inputs shorter than three multiplicities are
    zero-padded and the result keeps the padded length.
    """
    f = f.padded(3)
    m = list(f.mults)
    return DivisorClass(_quad_raw(f.degree, m), m)


def reduce_fundamental_raw(degree: int, mults: Sequence[int]) -> tuple[int, list[int]]:
    """Untracked reduction to the fundamental domain (fast path).

    Returns the terminal (degree, sorted multiplicity list).  The loop
    sorts, then applies the quadratic map while degree < m1+m2+m3 and
    degree >= 0; each such step strictly decreases the degree, so it
    terminates.
    """
    m = list(mults)
    if len(m) < 3:
        m += [0] * (3 - len(m))
    m.sort(reverse=True)
    d = degree
    while d < m[0] + m[1] + m[2] and d >= 0:
        d = _quad_raw(d, m)
        m.sort(reverse=True)
    return d, m


def reduce_fundamental(f: DivisorClass) -> tuple[DivisorClass, WeylWord]:
    """Reduce f to the fundamental domain, recording every move.

    The terminal class either has negative degree (not effective) or has
    nonincreasing multiplicities with degree >= m1+m2+m3.  The steps run
    on a (degree, list) pair; the class is built once, at the end.
    """
    f = f.padded(3)
    d, m = f.degree, list(f.mults)
    moves: list[Move] = []
    while True:
        perm = _desc_perm(m)
        if not _is_identity(perm):
            moves.append(("perm", perm))
            m = [m[p] for p in perm]
        if d < 0 or d >= m[0] + m[1] + m[2]:
            return DivisorClass(d, m), WeylWord(tuple(moves))
        moves.append(_QUAD)
        d = _quad_raw(d, m)


def apply_inverse(word: WeylWord, f: DivisorClass) -> DivisorClass:
    """Undo a word: inverse moves in reverse order.

    apply_inverse(word, terminal) recovers the padded input of the
    reduction that produced the word.
    """
    for move in reversed(word.moves):
        if move[0] == "perm":
            f = _apply_perm_inverse(f, move[1])
        else:
            f = cremona_quad(f)
    return f


class Decomposition(_Record):
    """Membership and fixed-part splitting in the exceptional semigroup.

    When ``in_semigroup`` holds, ``original = moving_part + sum(mult * v)``
    over the ``fixed_part`` pairs ``(v, mult)``; each v is an exceptional
    class, the v are mutually orthogonal, and the moving part meets every
    one of them in zero.
    """

    in_semigroup: bool
    moving_part: DivisorClass | None
    fixed_part: tuple[tuple[DivisorClass, int], ...]

    def reconstruct(self) -> DivisorClass | None:
        if not self.in_semigroup:
            return None
        total = self.moving_part
        for v, mult in self.fixed_part:
            total = total + mult * v
        return total


def _check_decomposition(original: DivisorClass, dec: Decomposition) -> None:
    # Diagnostic guard: a violation means the reduction bookkeeping broke.
    rebuilt = dec.reconstruct()
    if rebuilt != original:
        raise RuntimeError(f"decomposition of {original} does not reconstruct: got {rebuilt}")
    parts = [v for v, _ in dec.fixed_part]
    for v in parts:
        if not is_exceptional(v):
            raise RuntimeError(f"fixed component {v} of {original} is not exceptional")
        if intersection(dec.moving_part, v) != 0:
            raise RuntimeError(f"moving part of {original} meets fixed component {v}")
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if intersection(parts[i], parts[j]) != 0:
                raise RuntimeError(f"fixed components of {original} are not orthogonal")


def decompose(f: DivisorClass) -> Decomposition:
    """Test membership in the exceptional semigroup and split off fixed parts.

    Reduce f to the fundamental domain.  Membership fails iff the
    terminal class has negative degree or degree below its largest
    multiplicity.  Otherwise the fixed part collects, in reduced
    coordinates, the class E0-E1-E2 when degree < m1+m2 (with the moving
    part adjusted accordingly) and one E_i for every negative reduced
    multiplicity; everything is mapped back through the inverse of the
    recorded word.  Non-membership is a value, not an error.
    """
    terminal, word = reduce_fundamental(f)
    if terminal.degree < 0 or terminal.degree < terminal.mults[0]:
        return Decomposition(False, None, ())
    size = len(terminal.mults)
    deg = terminal.degree
    m = list(terminal.mults)
    fixed: list[tuple[DivisorClass, int]] = []
    if deg < m[0] + m[1]:
        line = DivisorClass(1, (1, 1) + (0,) * (size - 2))
        fixed.append((apply_inverse(word, line), m[0] + m[1] - deg))
        deg, m[0], m[1] = 2 * deg - m[0] - m[1], deg - m[1], deg - m[0]
    for i, mi in enumerate(m):
        if mi < 0:
            point_class = DivisorClass(0, tuple(-1 if j == i else 0 for j in range(size)))
            fixed.append((apply_inverse(word, point_class), -mi))
    moving = apply_inverse(word, clamp_nonneg(DivisorClass(deg, m)))
    dec = Decomposition(True, moving, tuple(fixed))
    _check_decomposition(f.padded(size), dec)
    return dec
