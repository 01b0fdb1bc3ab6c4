"""Brute-force verification over a prime field.

Instead of trusting the combinatorial expected dimensions, place the
points at seeded random coordinates over F_p and compute actual ranks:

* the dimension of the degree-t piece of the ideal is
  (t+1)(t+2)/2 - rank(M), where M stacks, for each point and each
  partial-derivative order below its multiplicity, the evaluation of
  that derivative on the degree-t monomial basis;
* the number of degree-t minimal generators is dim I_t minus the rank
  of the span of x*f, y*f, z*f over a basis f of I_{t-1}.

`oracle_table` walks a window of degrees, building and eliminating each
matrix once; `actual_hilbert` and `actual_nu` walk a single degree.

Working in the affine chart z = 1 identifies degree-t forms with
polynomials of degree <= t in two variables, so vanishing to order m is
exactly the vanishing of all partials of total order < m.  That reading
needs p larger than every degree queried, hence the degree guard.

Random points are only general with high probability; callers that
compare against expected values should take a majority over a few seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .lattice import FatPointSpec, as_spec

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


@dataclass(frozen=True)
class PointConfig:
    """Seeded point coordinates in the affine chart over F_p."""

    prime: int
    seed: int
    points: tuple[tuple[int, int], ...]

    def __post_init__(self):
        _check_prime(self.prime)
        if len(set(self.points)) != len(self.points):
            raise ValueError("points must be pairwise distinct")

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


def _echelon(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Forward elimination over F_p with first-nonzero pivoting.

    Returns the reduced matrix and its pivot columns: row i, for i below
    len(pivots), is scaled so its entry in column pivots[i] is 1 and has
    zeros below that entry; every later row is zero.
    """
    _check_prime_size(p)
    m = np.array(a, dtype=np.int64) % p
    rows, cols = m.shape
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        m[r] = m[r] * pow(int(m[r, c]), -1, p) % p
        below = np.nonzero(m[r + 1:, c])[0] + r + 1
        if below.size:
            m[below] = (m[below] - np.outer(m[below, c], m[r])) % p
        pivots.append(c)
    return m, pivots


def _kernel(m: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """Kernel basis from `_echelon` output.  Back-substitution in place gives
    the reduced row echelon form, which is unique, so the basis is too."""
    red = m[:len(pivots)]
    for i in range(len(pivots) - 1, 0, -1):
        c = pivots[i]
        above = np.nonzero(red[:i, c])[0]
        if above.size:
            red[above] = (red[above] - np.outer(red[above, c], red[i])) % p
    free = sorted(set(range(m.shape[1])) - set(pivots))
    basis = np.zeros((len(free), m.shape[1]), dtype=np.int64)
    basis[range(len(free)), free] = 1
    basis[:, pivots] = -red[:, free].T % p
    return basis


def rank_mod_p(a: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over F_p."""
    return len(_echelon(a, p)[1])


def nullspace_mod_p(a: np.ndarray, p: int) -> np.ndarray:
    """Basis (as rows) of the right kernel of a over F_p."""
    return _kernel(*_echelon(a, p), p)


def _monomials(t: int) -> list[tuple[int, int]]:
    # Exponents (a, b) with a + b <= t, indexing the chart z = 1 basis of R_t.
    return [(a, b) for a in range(t + 1) for b in range(t + 1 - a)]


def _condition_matrix(cfg: PointConfig, z: FatPointSpec, t: int) -> np.ndarray:
    if t < 0:  # no monomials, so no conditions
        return np.zeros((0, 0), dtype=np.int64)
    p = cfg.prime
    monos = _monomials(t)
    ncols = len(monos)
    amax = t
    falling = np.zeros((amax + 1, amax + 1), dtype=np.int64)
    falling[:, 0] = 1
    for k in range(amax + 1):
        for d in range(1, k + 1):
            falling[k, d] = falling[k, d - 1] * (k - d + 1) % p
    rows = []
    for (x, y), mult in zip(cfg.points, z.mults):
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


def _products(basis: np.ndarray, t: int) -> np.ndarray:
    # z*f, x*f and y*f for each row f of a basis over the degree t-1 monomials.
    index = {mono: i for i, mono in enumerate(_monomials(t))}
    src = _monomials(t - 1)
    k = basis.shape[0]
    prods = np.zeros((3 * k, len(index)), dtype=np.int64)
    for block, (da, db) in enumerate(((0, 0), (1, 0), (0, 1))):
        prods[block * k:(block + 1) * k, [index[(a + da, b + db)] for a, b in src]] = basis
    return prods


def oracle_table(cfg: PointConfig, z, lo: int, hi: int, nu: bool = False) -> list[list[int]]:
    """Rows [t, dim I_t], plus nu_t with `nu`, for t in [lo, hi] at the seeded points.

    Each degree's condition matrix is built and eliminated once.  dim I_t
    is its column count minus its rank.  nu_t, the number of degree-t
    minimal generators, is dim I_t minus the rank of x*f, y*f, z*f over
    the basis f of I_{t-1} that the previous degree left behind; the
    products lie in I_t automatically.  With `nu` the walk starts at
    lo - 1, so it builds hi - lo + 2 matrices.
    """
    z = as_spec(z)
    if lo > hi:
        raise ValueError(f"empty degree window [{lo}, {hi}]")
    if hi >= cfg.prime:
        raise ValueError(f"degree {hi} not below the field characteristic {cfg.prime}")
    if len(z.mults) != len(cfg.points):
        raise ValueError(f"{len(z.mults)} multiplicities but {len(cfg.points)} points")
    rows, basis = [], None
    for t in range(lo - 1 if nu else lo, hi + 1):
        m, pivots = _echelon(_condition_matrix(cfg, z, t), cfg.prime)
        dim = m.shape[1] - len(pivots)
        if t >= lo:
            gens = [dim - rank_mod_p(_products(basis, t), cfg.prime)] if nu else []
            rows.append([t, dim] + gens)
        if nu and t < hi:
            basis = _kernel(m, pivots, cfg.prime)
    return rows


def actual_hilbert(cfg: PointConfig, z, t: int) -> int:
    """dim I(Z)_t at the seeded points: (t+1)(t+2)/2 - rank of the conditions."""
    return oracle_table(cfg, z, t, t)[0][1]


def actual_nu(cfg: PointConfig, z, t: int) -> int:
    """Number of degree-t minimal generators at the seeded points."""
    return oracle_table(cfg, z, t, t, nu=True)[0][2]


def hilbert_majority(z, t: int, seeds=(0, 1, 2), prime: int = DEFAULT_PRIME) -> int:
    """actual_hilbert by majority vote over several seeds.

    Random points can fail to be general; the vote makes a single bad
    draw harmless.  Disagreement across all seeds raises.
    """
    return _seed_vote(actual_hilbert, z, t, seeds, prime)


def nu_majority(z, t: int, seeds=(0, 1, 2), prime: int = DEFAULT_PRIME) -> int:
    """actual_nu by majority vote over several seeds."""
    return _seed_vote(actual_nu, z, t, seeds, prime)


def _seed_vote(oracle, z, t: int, seeds, prime: int) -> int:
    z = as_spec(z)
    values = [oracle(PointConfig.random(z.n, seed=s, prime=prime), z, t) for s in seeds]
    best = max(set(values), key=values.count)
    if values.count(best) * 2 <= len(values):
        raise RuntimeError(f"no majority among oracle runs: {values}")
    return best
