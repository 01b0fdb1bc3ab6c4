"""Brute-force verification over a prime field.

Instead of trusting the combinatorial expected dimensions, place the
points at seeded random coordinates over F_p and compute actual ranks:

* the dimension of the degree-t piece of the ideal is
  (t+1)(t+2)/2 - rank(M), where M stacks, for each point and each
  partial-derivative order below its multiplicity, the evaluation of
  that derivative on the degree-t monomial basis;
* the number of degree-t minimal generators is dim I_t minus the rank
  of the span of x*f, y*f, z*f over a basis f of I_{t-1}.

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
        _check_prime_size(self.prime)
        if not _is_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")
        if len(set(self.points)) != len(self.points):
            raise ValueError("points must be pairwise distinct")

    @classmethod
    def random(cls, n: int, seed: int = 0, prime: int = DEFAULT_PRIME) -> "PointConfig":
        """Draw n distinct affine points from a deterministic seeded stream."""
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


def rank_mod_p(a: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over F_p; first-nonzero pivoting."""
    _check_prime_size(p)
    m = np.array(a, dtype=np.int64) % p
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        inv = pow(int(m[r, c]), -1, p)
        m[r] = m[r] * inv % p
        below = np.nonzero(m[r + 1:, c])[0]
        if below.size:
            idx = below + r + 1
            m[idx] = (m[idx] - np.outer(m[idx, c], m[r])) % p
        r += 1
    return r


def nullspace_mod_p(a: np.ndarray, p: int) -> np.ndarray:
    """Basis (as rows) of the right kernel of a over F_p."""
    _check_prime_size(p)
    m = np.array(a, dtype=np.int64) % p
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        inv = pow(int(m[r, c]), -1, p)
        m[r] = m[r] * inv % p
        others = np.nonzero(m[:, c])[0]
        others = others[others != r]
        if others.size:
            m[others] = (m[others] - np.outer(m[others, c], m[r])) % p
        pivots.append(c)
        r += 1
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-int(m[i, c])) % p
    return basis


def _monomials(t: int) -> list[tuple[int, int]]:
    # Exponents (a, b) with a + b <= t, indexing the chart z = 1 basis of R_t.
    return [(a, b) for a in range(t + 1) for b in range(t + 1 - a)]


def _condition_matrix(cfg: PointConfig, z: FatPointSpec, t: int) -> np.ndarray:
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


def _check_degree(cfg: PointConfig, z: FatPointSpec, t: int) -> None:
    if t >= cfg.prime:
        raise ValueError(f"degree {t} not below the field characteristic {cfg.prime}")
    if len(z.mults) != len(cfg.points):
        raise ValueError(f"{len(z.mults)} multiplicities but {len(cfg.points)} points")


def actual_hilbert(cfg: PointConfig, z, t: int) -> int:
    """dim I(Z)_t at the seeded points: (t+1)(t+2)/2 - rank of the conditions."""
    z = as_spec(z)
    _check_degree(cfg, z, t)
    if t < 0:
        return 0
    total = (t + 1) * (t + 2) // 2
    m = _condition_matrix(cfg, z, t)
    return total - rank_mod_p(m, cfg.prime)


def _ideal_basis(cfg: PointConfig, z: FatPointSpec, t: int) -> np.ndarray:
    if t < 0:
        return np.zeros((0, 0), dtype=np.int64)
    m = _condition_matrix(cfg, z, t)
    if m.shape[0] == 0:
        return np.eye(m.shape[1], dtype=np.int64)
    return nullspace_mod_p(m, cfg.prime)


def actual_nu(cfg: PointConfig, z, t: int) -> int:
    """Number of degree-t minimal generators at the seeded points.

    dim I_t minus the rank of the image of multiplication by the three
    coordinates applied to a basis of I_{t-1}; the products lie in I_t
    automatically.
    """
    z = as_spec(z)
    _check_degree(cfg, z, t)
    if t < 0:
        return 0
    h_t = actual_hilbert(cfg, z, t)
    basis = _ideal_basis(cfg, z, t - 1)
    if basis.shape[0] == 0:
        return h_t
    src = _monomials(t - 1)
    dst_index = {mono: i for i, mono in enumerate(_monomials(t))}
    ncols = len(dst_index)
    k = basis.shape[0]
    prods = np.zeros((3 * k, ncols), dtype=np.int64)
    for j, (a, b) in enumerate(src):
        col_z = dst_index[(a, b)]
        col_x = dst_index[(a + 1, b)]
        col_y = dst_index[(a, b + 1)]
        prods[0:k, col_z] = basis[:, j]
        prods[k:2 * k, col_x] = basis[:, j]
        prods[2 * k:3 * k, col_y] = basis[:, j]
    return h_t - rank_mod_p(prods, cfg.prime)


def hilbert_majority(z, t: int, seeds=(0, 1, 2), prime: int = DEFAULT_PRIME) -> int:
    """actual_hilbert by majority vote over several seeds.

    Random points can fail to be general; the vote makes a single bad
    draw harmless.  Disagreement across all seeds raises.
    """
    z = as_spec(z)
    values = [actual_hilbert(PointConfig.random(z.n, seed=s, prime=prime), z, t)
              for s in seeds]
    return _majority(values)


def nu_majority(z, t: int, seeds=(0, 1, 2), prime: int = DEFAULT_PRIME) -> int:
    """actual_nu by majority vote over several seeds."""
    z = as_spec(z)
    values = [actual_nu(PointConfig.random(z.n, seed=s, prime=prime), z, t)
              for s in seeds]
    return _majority(values)


def _majority(values: list[int]) -> int:
    best = max(set(values), key=values.count)
    if values.count(best) * 2 <= len(values):
        raise RuntimeError(f"no majority among oracle runs: {values}")
    return best
