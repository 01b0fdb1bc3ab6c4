"""Brute-force verification over a prime field.

Instead of trusting the combinatorial expected dimensions, place the
points at seeded random coordinates over F_p and compute actual ranks:

* the dimension of the degree-t piece of the ideal is
  (t+1)(t+2)/2 - rank(M), where M stacks, for each point and each
  partial-derivative order below its multiplicity (and at most t), the
  evaluation of that derivative on the degree-t monomial basis;
* the number of degree-t minimal generators is dim I_t minus the rank
  of the span of x*f, y*f, z*f over a basis f of I_{t-1}.

The matrix columns are ordered by total degree, and an entry does not
depend on t, so the matrix of every degree s <= t is, up to zero rows,
a column prefix of the degree-t one.  `oracle_table` therefore builds and row-reduces one
matrix per degree window, at its top degree: each degree's rank is the
number of pivots inside its prefix.  The heaviest point is first moved
to the origin by a translation, which keeps every dimension and
generator count; there its conditions are, up to units, the unit
vectors of the columns of degree below its multiplicity, so those
columns are pivots without elimination and only the other points'
conditions on the later columns are reduced.  For generator counts, one
back-substitution over the free columns yields the RREF kernel basis of
I_{s-1} for every s in the window; nu_s reduces to the rank of the x*f
and y*f rows on the free columns of degree exactly s, which read only
the degree-(s-1) block of that basis.  Eliminations defer the reduction
mod p while int64 cannot overflow.
`actual_hilbert` and `actual_nu` are windows of a single degree.

Working in the affine chart z = 1 identifies degree-t forms with
polynomials of degree <= t in two variables, so vanishing to order m is
exactly the vanishing of all partials of total order < m.  That reading
needs p larger than every degree queried, hence the degree guard.

Random points are only general with high probability; callers that
compare against expected values should take a majority over a few seeds.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from math import isqrt
from typing import Sequence

import numpy as np

from .lattice import as_spec
from .report import _Record

DEFAULT_PRIME = 31991

# Residues are multiplied in int64, so (p - 1)^2 must fit in 2^63 - 1.
MAX_PRIME = isqrt(2**63 - 1)


def _check_prime_size(p: int) -> None:
    if p > MAX_PRIME:
        raise ValueError(f"prime {p} exceeds {MAX_PRIME} = isqrt(2^63 - 1): "
                         "products of residues would overflow int64")


def _check_prime(p: int) -> None:
    _check_prime_size(p)
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PointConfig(_Record):
    """Seeded point coordinates in the affine chart over F_p."""

    prime: int
    seed: int
    points: tuple[tuple[int, int], ...]

    def __init__(self, prime: int, seed: int, points: tuple[tuple[int, int], ...]):
        _check_prime(prime)
        if len(set(points)) != len(points):
            raise ValueError("points must be pairwise distinct")
        super().__init__(prime, seed, points)

    @classmethod
    def random(cls, n: int, seed: int = 0, prime: int = DEFAULT_PRIME) -> "PointConfig":
        """Draw n distinct affine points from a deterministic seeded stream."""
        _check_prime(prime)
        if n > prime * prime:
            raise ValueError(f"{n} distinct points do not fit in the "
                             f"{prime * prime} points of the affine plane over F_{prime}")
        rng = random.Random(f"fatpoints:{prime}:{seed}")
        seen: set[tuple[int, int]] = set()
        pts: list[tuple[int, int]] = []
        while len(pts) < n:
            p = (rng.randrange(prime), rng.randrange(prime))
            if p not in seen:
                seen.add(p)
                pts.append(p)
        return cls(prime, seed, tuple(pts))


def _budget(p: int) -> int:
    # Rank-1 updates an entry may take between two reductions mod p; the
    # bound is proved in `_echelon`.
    return (2**63 - 1 - p) // max(1, (p - 1) ** 2)


def _echelon(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Forward elimination over F_p with first-nonzero pivoting.

    Returns the reduced matrix and its pivot columns: row i, for i below
    len(pivots), is scaled so its entry in column pivots[i] is 1 and has
    zeros below that entry; every later row is zero.  Every entry is in
    [0, p).

    The reduction mod p is deferred.  Each step reduces only the pivot
    column, whose residues pick the pivot and are the multipliers, and the
    pivot row; the rank-1 update x - c*r of the rows below is left
    unreduced.  Every later step reads and writes only the trailing block
    (rows below the pivot, columns after it), so once `_budget(p)` updates
    have piled up since its last reduction that block is reduced in full.
    No reduction is left for the end: the scan reduces each column from
    the current row down when it reaches it, a pivot row when it takes it,
    and updates touch neither again.

    Overflow bound: c and r are in [0, p), so c*r <= (p-1)^2 < 2^63 for
    p <= MAX_PRIME, and an update lowers an entry by at most (p-1)^2.  An
    entry starts each stretch in [0, p) and takes at most
    budget = (2^63 - 1 - p) // (p-1)^2 updates in it, so it stays in
    [-(2^63 - 1 - p), p), inside int64.  The budget is at least 1 for every
    p <= MAX_PRIME, as p^2 - p + 1 <= 2^63 - 1 there: about 9e9 at
    p = 31991, 9 at 10^9 + 7 and 1 at 3037000493.

    The entries stay congruent mod p to those of eager reduction, every
    pivot test and multiplier reads reduced values, and an update clears
    the pivot column below the pivot exactly, so the result is the same.
    """
    _check_prime_size(p)
    m = np.array(a, dtype=np.int64) % p
    rows, cols = m.shape
    budget, pending = _budget(p), 0
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        m[r:, c] %= p
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        # Scale the pivot row in place, reduced first: its unreduced
        # entries times the inverse could leave int64.
        prow = m[r, c:]
        prow %= p
        prow *= pow(int(prow[0]), -1, p)
        prow %= p
        # Row r was zero in column c if it was swapped, so the rows below
        # the pivot with an entry there are the rest of the scan's hits.
        below = nz[1:] + r
        if below.size:
            if pending == budget:
                m[r + 1:, c + 1:] %= p
                pending = 0
            if below.size == rows - r - 1:
                # Every row below has an entry in column c: update the
                # contiguous slab in place, not a gathered copy.
                slab = m[r + 1:, c:]
                slab -= slab[:, :1] * prow
            else:
                m[below, c:] -= np.outer(m[below, c], prow)
            pending += 1
        pivots.append(c)
    return m, pivots


def _back_substitute(m: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """Free columns of the reduced row echelon form of `_echelon` output.

    Returns the len(pivots) nonzero rows of the RREF, which is unique, cut
    to the free (non-pivot) columns in increasing order; on the pivot
    columns the RREF is the identity.  Row i is zero before its pivot, and
    once the later pivots are cleared it is zero on every pivot column but
    its own; so clearing pivot i upwards changes only free columns and
    takes its multipliers unchanged, and reduced, from the echelon form.
    The reduction mod p is deferred as in `_echelon`: row i is reduced
    before it is used, the rows above it every `_budget(p)` updates.
    """
    free = np.setdiff1d(np.arange(m.shape[1]), pivots)
    tail = m[:len(pivots), free]
    budget, pending = _budget(p), 0
    for i in range(len(pivots) - 1, 0, -1):
        above = np.nonzero(m[:i, pivots[i]])[0]
        if above.size:
            tail[i] %= p
            if pending == budget:
                tail[:i] %= p
                pending = 0
            tail[above] -= np.outer(m[above, pivots[i]], tail[i])
            pending += 1
    tail %= p
    return tail


def rank_mod_p(a: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over F_p."""
    return len(_echelon(a, p)[1])


def nullspace_mod_p(a: np.ndarray, p: int) -> np.ndarray:
    """Basis (as rows) of the right kernel of a over F_p: one row per free
    column of the RREF, 1 there, minus that column of the RREF at the
    pivots, 0 elsewhere."""
    m, pivots = _echelon(a, p)
    free = np.setdiff1d(np.arange(m.shape[1]), pivots)
    basis = np.zeros((free.size, m.shape[1]), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = -_back_substitute(m, pivots, p).T % p
    return basis


def _ncols(t: int) -> int:
    # Monomials of degree <= t in the chart z = 1: a basis of R_t.
    return (t + 1) * (t + 2) // 2 if t >= 0 else 0


def _exponents(t: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponents (a, b) of the columns x^a y^b, a + b <= t, graded: degree d
    takes columns d(d+1)/2 + b for b = 0..d, so the monomials of degree <= s
    are the first _ncols(s) columns for every s <= t."""
    deg = np.repeat(np.arange(t + 1), np.arange(1, t + 2))
    b = np.arange(deg.size) - deg * (deg + 1) // 2
    return deg - b, b


def _condition_matrix(cfg: PointConfig, mults: Sequence[int], t: int,
                      origin: tuple[int, int]) -> np.ndarray:
    """Rows (point, dx, dy) with dx + dy below min(m, t + 1), m the point's
    multiplicity, in that order; the entry in column x^a y^b is the dx-th
    x- and dy-th y-derivative of x^a y^b at the point minus `origin`, mod p.
    Orders above t are left out: every column has degree <= t, so their
    rows would be zero."""
    if t < 0:  # no monomials, so no conditions
        return np.zeros((0, 0), dtype=np.int64)
    p = cfg.prime
    a, b = _exponents(t)
    live = [(pt, min(m, t + 1)) for pt, m in zip(cfg.points, mults) if m > 0]
    if not live:
        return np.zeros((0, a.size), dtype=np.int64)
    depth = max(m for _, m in live)
    e = np.arange(t + 1)
    # falling[k, d] = k (k-1) ... (k-d+1) mod p, which is 0 for d > k.
    falling = np.ones((t + 1, depth), dtype=np.int64)
    for d in range(1, depth):
        falling[:, d] = falling[:, d - 1] * ((e - d + 1) % p) % p
    # powers[i, v, k] = (coordinate v of point i, minus origin)^k mod p.
    powers = np.ones((len(live), 2, t + 1), dtype=np.int64)
    x0, y0 = origin
    coords = np.array([((x - x0) % p, (y - y0) % p) for (x, y), _ in live],
                      dtype=np.int64)
    for k in range(1, t + 1):
        powers[:, :, k] = powers[:, :, k - 1] * coords % p
    # deriv[i, v, d, k] = d-th derivative of (coordinate v)^k at point i.
    shift = np.maximum(e - np.arange(depth)[:, None], 0)
    deriv = falling.T * powers[:, :, shift] % p
    pts, dxs, dys = np.array([(i, dx, dy) for i, (_, m) in enumerate(live)
                              for dx in range(m) for dy in range(m - dx)]).T
    return deriv[pts, 0, dxs][:, a] * deriv[pts, 1, dys][:, b] % p


def oracle_table(cfg: PointConfig, z, lo: int, hi: int, nu: bool = False) -> list[list[int]]:
    """Rows [t, dim I_t], plus nu_t with `nu`, for t in [lo, hi] at the seeded points.

    One condition matrix M = M_hi is built and eliminated per call.  Its
    columns are graded (`_exponents`) and an entry depends on the point,
    (dx, dy) and (a, b) but not on the degree, so M_s, the first
    c_s = (s+1)(s+2)/2 columns of M, is the degree-s matrix for every
    s <= hi up to the zero rows of the derivative orders above s, which
    change neither its rank nor its row space.

    * The heaviest point k (the first one on a tie) is moved to the origin
      and its conditions never enter the elimination.  The translation
      [x:y:z] -> [x - x0 z : y - y0 z : z] by point k = (x0, y0) is a
      graded automorphism of R that fixes z: it maps I(Z)_s onto the
      degree-s piece of the ideal of the translated scheme for every s,
      and so keeps every dim I_s; it maps R_1 onto itself, hence
      R_1 I_{s-1} onto the same product space of the translated ideal,
      and keeps every nu_s = dim I_s - dim R_1 I_{s-1} too.  At
      the origin the row (dx, dy) of point k is dx! dy! times the unit
      vector of column x^dx y^dy, and dx! dy! is invertible mod p as
      dx, dy <= hi < p.  Its rows, the orders dx + dy < min(m_k, hi + 1),
      thus span exactly the unit vectors of the first
      c = c_{min(m_k - 1, hi)} columns; clearing those columns from the
      other points' rows with them leaves the later columns unchanged, so
      M is row-equivalent to [I_c 0; 0 M'], M' the other points' rows on
      the columns from c on.  The pivots of M are 0, ..., c-1 followed by
      c plus the pivots of M', and its RREF is I_c above the RREF of M'
      shifted right by c columns; only M' is eliminated.
    * The pivot columns of an echelon form are the greedy column basis:
      a column is a pivot iff it is not in the span of the columns before
      it.  So rank M_s is the number of pivots below c_s, and
      dim I_s = c_s - rank M_s.
    * nu_t is dim I_t minus the rank of x*f, y*f, z*f over a basis f of
      I_{t-1}.  Back-substituting the echelon form once gives the reduced
      row echelon form R = G M_{hi-1}, G invertible, so the first c_s
      columns of R span the row space of M_s.  Its rows with a pivot below
      c_s are the first rank M_s, and the later rows vanish on those
      columns; so the first rank M_s rows cut to c_s columns are a reduced
      echelon form of M_s, which is unique: they are the RREF of M_s.  One
      back-substitution thus gives the RREF kernel basis of I_{t-1} for
      every t in the window: the row of a free column phi is 1 at phi and
      minus column phi of R at the pivots.
    * The products lie in I_t, and the RREF kernel basis of I_t is the
      identity on the free columns F_t of M_t, so projecting I_t onto F_t
      is injective and the products' rank is the rank of their F_t
      columns.  Pivots of M_{t-1} are the pivots of M_t below c_{t-1}, so
      F_{t-1} = F_t & [0, c_{t-1}), and F_t is F_{t-1} followed by N_t,
      the free columns of degree exactly t.  z keeps a column in the
      graded order, so the z*f rows project to [I_k | 0] on
      (F_{t-1}, N_t), k = dim I_{t-1}.  Clearing the F_{t-1} columns of
      the x*f and y*f rows with them leaves their N_t columns unchanged,
      so the rank is k plus the rank of the 2k x |N_t| matrix of x*f and
      y*f on N_t, and, as dim I_t = k + |N_t|,
      nu_t = |N_t| - rank(x*f, y*f on N_t).  x and y raise the degree of
      a column by one, so that matrix reads only the degree-(t-1) block
      of the kernel basis: there x^a y^b goes to column b of the degree-t
      block under x and to column b + 1 under y.
    * Only free columns are read.  Let g start the first degree block
      that has free columns: every column before g is a pivot, and every
      F_{t-1} is empty unless t - 1 reaches g's degree.  Rows of R whose
      pivot is at or after g are zero before it, and clearing pivot i
      upwards reads only rows i and above; so back-substituting
      R[s:rank M_{hi-1}, g:c_{hi-1}], s the first row with a pivot at or
      after g, gives every entry the degree-(t-1) blocks read.  The first
      c columns are pivots, so g >= c and s >= c, and that block is the
      same block of the echelon form of M', c rows up and c columns left.
    """
    z = as_spec(z)
    if lo > hi:
        raise ValueError(f"empty degree window [{lo}, {hi}]")
    if hi >= cfg.prime:
        raise ValueError(f"degree {hi} not below the field characteristic {cfg.prime}")
    if len(z.mults) != len(cfg.points):
        raise ValueError(f"{len(z.mults)} multiplicities but {len(cfg.points)} points")
    p = cfg.prime
    mults, c, origin = list(z.mults), 0, (0, 0)
    if mults:
        heavy = mults.index(max(mults))
        c, origin = _ncols(min(mults[heavy] - 1, hi)), cfg.points[heavy]
        mults[heavy] = 0
    m, rest = _echelon(_condition_matrix(cfg, mults, hi, origin)[:, c:], p)
    pivots = list(range(c)) + [c + q for q in rest]

    def rank(s: int) -> int:
        return bisect_left(pivots, _ncols(s))

    rows = [[t, _ncols(t) - rank(t)] for t in range(lo, hi + 1)]
    if nu:
        free = np.setdiff1d(np.arange(_ncols(hi)), pivots)
        # Column j has degree d with d(d+1)/2 <= j < (d+1)(d+2)/2.
        g = _ncols((isqrt(8 * int(free[0]) + 1) - 1) // 2 - 1) if free.size else _ncols(hi)
        s, r = bisect_left(pivots, g), rank(hi - 1)
        # m is the echelon form of the block after the first c rows and
        # columns; s >= c and g >= c, while r and c_{hi-1} fall below c
        # only when every column is a pivot.
        red = _back_substitute(m[s - c:max(r - c, 0), g - c:max(_ncols(hi - 1) - c, 0)],
                               [q - g for q in pivots[s:r]], p)
        for row in rows:
            t, dim = row
            k = _ncols(t - 1) - rank(t - 1)
            n = dim - k
            if k and n:
                # The degree-(t-1) block of the kernel basis of I_{t-1}.
                start, i0, i1 = _ncols(t - 2), rank(t - 2), rank(t - 1)
                k0 = start - i0
                block = np.zeros((k, t), dtype=np.int64)
                block[:, np.array(pivots[i0:i1], dtype=np.int64) - start] = \
                    -red[i0 - s:i1 - s, :k].T % p
                block[np.arange(k0, k), free[k0:k] - start] = 1
                prods = np.zeros((2 * k, t + 1), dtype=np.int64)
                prods[:k, :t] = block
                prods[k:, 1:] = block
                n -= rank_mod_p(prods[:, free[k:k + n] - _ncols(t - 1)], p)
            row.append(n)
    return rows


def actual_hilbert(cfg: PointConfig, z, t: int) -> int:
    """dim I(Z)_t at the seeded points: (t+1)(t+2)/2 - rank of the conditions."""
    return oracle_table(cfg, z, t, t)[0][1]


def actual_nu(cfg: PointConfig, z, t: int) -> int:
    """Number of degree-t minimal generators at the seeded points."""
    return oracle_table(cfg, z, t, t, nu=True)[0][2]
