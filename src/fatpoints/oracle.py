"""Brute-force verification over a prime field.

Instead of trusting the combinatorial expected dimensions, place the
points at seeded random coordinates over F_p and compute actual ranks:

* the dimension of the degree-t piece of the ideal is
  (t+1)(t+2)/2 - rank(M), where M stacks, for each point and each
  partial-derivative order below its multiplicity (and at most t), the
  evaluation of that derivative on the degree-t monomial basis;
* the number of degree-t minimal generators is dim I_t minus the rank
  of the span of x*f, y*f, z*f over a basis f of I_{t-1}.

`oracle_table` first moves the three heaviest points to the coordinate
vertices [0:0:1], [1:0:0] and [0:1:0] by a projective change of
coordinates, which keeps every dimension and generator count (only the
heaviest, by a translation to the origin, when the three are collinear
or another point lands on the line through the second and third).  At a
vertex the conditions say that the coefficients of some monomials
vanish, so those columns are left out and those points' rows never
enter the elimination; only the other points' conditions on the
remaining columns are reduced.  A monomial x^a y^b z^(s-a-b) with
a + b >= m1 survives in degree s exactly when its join degree
J = max(a + b, a + m2, b + m3) is at most s, and an entry does not
depend on s, so with the columns sorted by J the matrix of every degree
s is, up to zero rows, a column prefix of the top degree's.  One matrix
is therefore built and row-reduced per degree window: each degree's
rank is the number of pivots inside its prefix.  For generator counts,
one back-substitution over the free columns yields the RREF kernel
basis of I_{s-1} for every s in the window; nu_s reduces to the rank of
the x*f and y*f rows on the free columns of join degree exactly s,
which read only the join-degree-(s-1) block of that basis.
Eliminations defer the reduction mod p while int64 cannot overflow.
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
        if prime < 2 or n > prime * prime:
            # No draw is possible: a bad prime is named before the count.
            # Any other prime is checked once, by __init__.
            _check_prime(prime)
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


def _free(pivots: list[int], cols: int) -> np.ndarray:
    """The non-pivot columns of range(cols), in increasing order."""
    free = np.ones(cols, dtype=bool)
    free[pivots] = False
    return np.flatnonzero(free)


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
    tail = m[:len(pivots), _free(pivots, m.shape[1])]
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
    free = _free(pivots, m.shape[1])
    basis = np.zeros((free.size, m.shape[1]), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = -_back_substitute(m, pivots, p).T % p
    return basis


def _exponents(t: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponents (a, b) of the columns x^a y^b, a + b <= t, graded: degree d
    takes columns d(d+1)/2 + b for b = 0..d, so the monomials of degree <= s
    are the first (s+1)(s+2)/2 columns for every s <= t."""
    deg = np.repeat(np.arange(t + 1), np.arange(1, t + 2))
    b = np.arange(deg.size) - deg * (deg + 1) // 2
    return deg - b, b


def _condition_matrix(p: int, points: Sequence[tuple[int, int]], mults: Sequence[int],
                      t: int, cols: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Rows (point, dx, dy) with dx + dy below min(m, t + 1), m the point's
    multiplicity, in that order; the entry in column x^a y^b is the dx-th
    x- and dy-th y-derivative of x^a y^b at the point, mod p.  The columns
    are the exponents `cols` = (a, b), each of degree a + b <= t, such as
    all of them in graded order, `_exponents(t)`.  Orders above t are
    left out: every column has degree <= t, so their rows would be
    zero."""
    if t < 0:  # no monomials, so no conditions
        return np.zeros((0, 0), dtype=np.int64)
    a, b = cols
    live = [(pt, min(m, t + 1)) for pt, m in zip(points, mults) if m > 0]
    if not live:
        return np.zeros((0, a.size), dtype=np.int64)
    depth = max(m for _, m in live)
    e = np.arange(t + 1)
    # falling[k, d] = k (k-1) ... (k-d+1) mod p, which is 0 for d > k.
    falling = np.ones((t + 1, depth), dtype=np.int64)
    for d in range(1, depth):
        falling[:, d] = falling[:, d - 1] * ((e - d + 1) % p) % p
    # powers[i, v, k] = (coordinate v of point i)^k mod p.
    powers = np.ones((len(live), 2, t + 1), dtype=np.int64)
    coords = np.array([pt for pt, _ in live], dtype=np.int64) % p
    for k in range(1, t + 1):
        powers[:, :, k] = powers[:, :, k - 1] * coords % p
    # deriv[i, v, d, k] = d-th derivative of (coordinate v)^k at point i.
    shift = np.maximum(e - np.arange(depth)[:, None], 0)
    deriv = falling.T * powers[:, :, shift] % p
    pts, dxs, dys = np.array([(i, dx, dy) for i, (_, m) in enumerate(live)
                              for dx in range(m) for dy in range(m - dx)]).T
    return deriv[pts, 0, dxs][:, a] * deriv[pts, 1, dys][:, b] % p


def _cross(u: Sequence[int], v: Sequence[int]) -> tuple[int, int, int]:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _place(points: Sequence[tuple[int, int]], mults: Sequence[int],
           p: int) -> tuple[tuple[int, ...], list[tuple[int, int]], list[int]]:
    """Move the three heaviest positive points to the coordinate vertices.

    Returns ((m1, m2, m3), chart, rest): the multiplicities placed at
    [0:0:1], [1:0:0] and [0:1:0], and the chart coordinates (u/w, v/w) and
    multiplicities of the other positive points, in their order.

    P1, P2, P3 are the heaviest positive points, the first one on ties,
    as vectors (x, y, 1).  B = [P2 | P3 | P1] sends the vertices to them,
    so A = adj B = det B * B^-1 sends P1, P2, P3 to the vertices as
    projective points; the rows of adj B are the cross products of B's
    columns, in Python ints mod p.  A slot with no positive point keeps
    its vertex as B's column.  If det B = 0 or some other positive point
    lands on the line w = 0, that of P2 and P3, only P1 is placed:
    B = [e1 | e2 | P1], A is the translation by -P1 with w = 1 everywhere,
    and m2 = m3 = 0.
    """
    live = [i for i, m in enumerate(mults) if m > 0]
    heavy = sorted(live, key=lambda i: -mults[i])[:3]
    for placed in (heavy, heavy[:1]):
        cols = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        for slot, i in zip((2, 0, 1), placed):
            cols[slot] = (*points[i], 1)
        adj = (_cross(cols[1], cols[2]), _cross(cols[2], cols[0]), _cross(cols[0], cols[1]))
        rest = [i for i in live if i not in placed]
        images = [[(r[0] * x + r[1] * y + r[2]) % p for r in adj]
                  for x, y in (points[i] for i in rest)]
        # adj[0] . cols[0] is det B; the translation always passes.
        if sum(r * c for r, c in zip(adj[0], cols[0])) % p and all(w for _, _, w in images):
            break
    chart = []
    for u, v, w in images:
        inv = pow(w, -1, p)
        chart.append((u * inv % p, v * inv % p))
    return tuple(([mults[i] for i in placed] + [0, 0, 0])[:3]), chart, [mults[i] for i in rest]


def oracle_table(cfg: PointConfig, z, lo: int, hi: int, nu: bool = False) -> list[list[int]]:
    """Rows [t, dim I_t], plus nu_t with `nu`, for t in [lo, hi] at the seeded points.

    One condition matrix M is built and eliminated per call, at the top
    degree hi.

    * `_place` takes a projective change of coordinates A that sends the
      three heaviest positive points to [0:0:1], the origin of the chart
      z = 1, [1:0:0] and [0:1:0] with multiplicities m1, m2, m3, and the
      other positive points into the chart.  The substitution by A^-1 is
      a graded automorphism of R: it maps I(Z)_s onto the degree-s piece
      of the ideal of the moved scheme for every s, and so keeps every
      dim I_s; it maps R_1 onto itself, hence R_1 I_{s-1} onto the same
      product space of the moved ideal, and keeps every
      nu_s = dim I_s - dim R_1 I_{s-1} too.  It maps a fat point to one
      of the same multiplicity.
    * Write a degree-s form as the sum of c_ab x^a y^b z^(s-a-b).  At a
      vertex, vanishing to order m is the vanishing of the coefficients of
      the monomials of degree below m in the local coordinates: at
      [0:0:1], in x and y, the c_ab with a + b < m1; at [1:0:0], in y and
      z, those with s - a < m2; at [0:1:0], in x and z, those with
      s - b < m3.  So I_s is the forms supported on the columns
      C_s = {x^a y^b : a + b >= m1, J(a, b) <= s}, with
      J(a, b) = max(a + b, a + m2, b + m3) >= a + b, that meet the other
      points' conditions.  Those are the rows (point, dx, dy) of
      `_condition_matrix`: in the chart z = 1 a degree-s form is a
      polynomial of degree <= s in x and y, and the entry of a row at
      column x^a y^b does not depend on s.  The columns of M are C_hi,
      graded and then sorted stably by J, so for every s <= hi the set
      C_s is a prefix of c_s = |C_s| columns and M_s, the first c_s
      columns of M, is the degree-s matrix up to the zero rows of the
      orders above s, which change neither its rank nor its row space.
      The placed points' conditions are the columns left out, and none of
      their rows enters the elimination.  Placing only P1, at the origin,
      is the case m2 = m3 = 0, where J is the degree.
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
      the free columns with J = t.  z keeps x^a y^b, so the z*f rows
      project to [I_k | 0] on (F_{t-1}, N_t), k = dim I_{t-1}.  Clearing
      the F_{t-1} columns of the x*f and y*f rows with them leaves their
      N_t columns unchanged, so the rank is k plus the rank of the
      2k x |N_t| matrix of x*f and y*f on N_t, and, as
      dim I_t = k + |N_t|, nu_t = |N_t| - rank(x*f, y*f on N_t).
    * At column x^a y^b, x*f reads f at its x-source x^(a-1) y^b and y*f
      at its y-source x^a y^(b-1), and a source outside C_{t-1} reads 0.
      Each term of J drops by at most 1 from a column to a source, so a
      source of an N_t column has J = t - 1 or lies outside C_{t-1}: the
      matrix reads only the J = t - 1 block of the kernel basis.  There
      the row of a free column phi of an earlier block is 0, since it is 1
      at phi alone and row i of R is 0 before its pivot, so only the free
      columns of the block have rows.
    * Only the blocks J = t - 1, t in [lo, hi], that hold a free column
      are read.  Let g start the block of J = max(J(first free column),
      lo - 1): each of those blocks starts at or after g.  Rows of R whose
      pivot is at or after g are zero before it, and clearing pivot i
      upwards reads only rows i and above; so back-substituting
      R[s:rank M_{hi-1}, g:c_{hi-1}], s the first row with a pivot at or
      after g, gives every entry the blocks read.  Starting at the first
      free column itself would leave out the rows of the pivots before it
      in its block, and those pivots are sources.
    """
    z = as_spec(z)
    if lo > hi:
        raise ValueError(f"empty degree window [{lo}, {hi}]")
    if hi >= cfg.prime:
        raise ValueError(f"degree {hi} not below the field characteristic {cfg.prime}")
    if len(z.mults) != len(cfg.points):
        raise ValueError(f"{len(z.mults)} multiplicities but {len(cfg.points)} points")
    p = cfg.prime
    (m1, m2, m3), chart, rest = _place(cfg.points, z.mults, p)
    # A multiplicity above hi + 1 drops no more columns than hi + 1; the clip keeps
    # J inside int64.
    m1, m2, m3 = (min(m, hi + 1) for m in (m1, m2, m3))
    a, b = _exponents(hi)
    join = np.maximum(a + b, np.maximum(a + m2, b + m3))
    keep = np.flatnonzero((a + b >= m1) & (join <= hi))
    keep = keep[np.argsort(join[keep], kind="stable")]
    a, b, join = a[keep], b[keep], join[keep]
    # c_s = |C_s| for lo - 2 <= s <= hi.
    sizes = np.searchsorted(join, np.arange(lo - 2, hi + 1), side="right").tolist()
    m, pivots = _echelon(_condition_matrix(p, chart, rest, hi, (a, b)), p)

    def size(s: int) -> int:
        return sizes[s - lo + 2]

    def rank(s: int) -> int:
        return bisect_left(pivots, size(s))

    rows = [[t, size(t) - rank(t)] for t in range(lo, hi + 1)]
    if nu:
        free = _free(pivots, join.size)
        top, r = size(hi - 1), rank(hi - 1)
        g = size(max(int(join[free[0]]), lo - 1) - 1) if free.size else top
        s = bisect_left(pivots, g)
        f = g - s  # the free columns before g
        red = _back_substitute(m[s:r, g:top], [q - g for q in pivots[s:r]], p)
        # pos[a, b] is the column of x^a y^b, or -1; the padding row and
        # column answer the sources a - 1 = -1 and b - 1 = -1.
        pos = np.full((hi + 2, hi + 2), -1, dtype=np.int64)
        pos[a, b] = np.arange(join.size)
        for row in rows:
            t, dim = row
            c0, c1, i0, i1 = size(t - 2), size(t - 1), rank(t - 2), rank(t - 1)
            k0, k = c0 - i0, c1 - i1
            n = dim - k
            if k > k0 and n:
                # The J = t - 1 block of the kernel rows of the block's free
                # columns, with a zero column last for the sources outside it.
                width = c1 - c0
                block = np.zeros((k - k0, width + 1), dtype=np.int64)
                block[:, np.array(pivots[i0:i1], dtype=np.int64) - c0] = \
                    -red[i0 - s:i1 - s, k0 - f:k - f].T % p
                block[np.arange(k - k0), free[k0:k] - c0] = 1
                new = free[k:k + n]
                src = np.stack((pos[a[new] - 1, b[new]], pos[a[new], b[new] - 1])) - c0
                src[(src < 0) | (src >= width)] = width
                # Rows x*f and y*f in turn on the columns N_t.
                n -= rank_mod_p(block[:, src].reshape(-1, n), p)
            row.append(n)
    return rows


def actual_hilbert(cfg: PointConfig, z, t: int) -> int:
    """dim I(Z)_t at the seeded points: (t+1)(t+2)/2 - rank of the conditions."""
    return oracle_table(cfg, z, t, t)[0][1]


def actual_nu(cfg: PointConfig, z, t: int) -> int:
    """Number of degree-t minimal generators at the seeded points."""
    return oracle_table(cfg, z, t, t, nu=True)[0][2]
