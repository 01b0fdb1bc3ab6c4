"""Reference implementations that only the tests use.

Each one is an independent statement of something the package computes
another way: they check the package, and no command reaches them.
"""

import argparse
from bisect import bisect_left
from fractions import Fraction
from itertools import groupby
from math import isqrt

import numpy as np

from fatpoints.alpha_bounds import (_ceil_div, _check_uniform_rd, _modified_x, _prefix_spread_bound,
                                    _Runs, _u_rho)
from fatpoints.cli import _parse_mults, _parse_weights
from fatpoints.hilbert import expected_dim, find_alpha, hilbert_polynomial
from fatpoints.lattice import DivisorClass, WeylWord, as_spec, cremona_quad, reduce_fundamental_raw
from fatpoints.oracle import (DEFAULT_PRIME, _back_substitute, _condition_matrix, _echelon,
                              _exponents)
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


def variant_d_search_loop(z) -> tuple:
    """The family-(d) search as one loop over every r, from a best of 0.

    Scans r over the positive multiplicities, d up to the first value
    with d^2 >= r and 1 <= j <= d^2, and keeps the first maximal
    (r, d, j); for that last d the value is the family-(c) one, recorded
    with j = 1.  A pair is skipped only when its reach bound
    ceil((P[d^2] r + min((r - d^2) r, (n - r) d^2) w[r]) / (r d)) is at
    most the running best.  Returns (value, params).
    """
    z = as_spec(z)
    w, sums = z.positive, z.sums
    n = len(w)
    best, best_r, best_d, best_j = 0, 0, 0, 0
    for r in range(1, n + 1):
        w_r = w[r] if r < n else 0
        d = 1
        while d * d < r:
            dd = d * d
            reach = sums[dd] * r + min((r - dd) * r, (n - r) * dd) * w_r
            if _ceil_div(reach, r * d) > best:
                for j in range(1, dd + 1):
                    value = _prefix_spread_bound(w, sums, r, d, j)
                    if value > best:
                        best, best_r, best_d, best_j = value, r, d, j
            d += 1
        value = _prefix_spread_bound(w, sums, r, d, 1)
        if value > best:
            best, best_r, best_d, best_j = value, r, d, 1
    return best, (("r", best_r), ("d", best_d), ("j", best_j))


def runs_state(w):
    """A ``_Runs`` of w (sorted nonincreasing), its positive entries
    grouped here by ``itertools.groupby`` rather than by
    ``FatPointSpec.runs``, so that a fault in that builder cannot hide on
    both sides of a comparison."""
    runs = [(v, len(list(g))) for v, g in groupby(w) if v > 0]
    return _Runs([v for v, _ in runs], [c for _, c in runs])


class RunsLowerings:
    """The lowering sequence of w for r, every step one ``_Runs.lower``
    pass on any input: at(k) is (tops[k], sums[k]), the largest entry and
    the sum of the r largest after k lowerings."""

    def __init__(self, w, r):
        self.state, self.r = runs_state(w), r
        self.tops, self.sums = [w[0] if w else 0], [self.state.top_sum(r)]

    def at(self, k):
        while len(self.tops) <= k:
            top, drop = self.state.lower(self.r)
            self.tops.append(top)
            self.sums.append(self.sums[-1] - drop)
        return self.tops[k], self.sums[k]


def unloading_walk(seq, d, best=-1):
    """min over k of k d + max(tops[k], ceil(sums[k] / d)) on a
    ``RunsLowerings``, walked until k d reaches the running minimum, or
    until the minimum is at most best."""
    low = max(seq.tops[0], _ceil_div(seq.sums[0], d))
    k = 1
    while k * d < low and low > best:
        top, s = seq.at(k)
        low = min(low, k * d + max(top, _ceil_div(s, d)))
        k += 1
    return low


def unloading_search_loop(z) -> tuple:
    """The unloading search as one loop over every r, from a best of 0.

    Keeps the first maximal (r, d) over 1 <= r <= n, d^2 <= r.  The d of
    one r are cut to those whose cap min(max(w[0], ceil(P[r] / d)), d E_r),
    E_r = max(w[0], ceil(P[n] / r)), beats the running best.  Every pair
    walks a ``RunsLowerings``.  Returns (value, params).
    """
    z = as_spec(z)
    w, sums = z.positive, z.sums
    n = len(w)
    w0 = w[0]
    best, best_r, best_d = 0, 0, 0
    for r in range(1, n + 1):
        low = best // max(w0, _ceil_div(sums[-1], r))
        top = isqrt(r) if w0 > best else min(isqrt(r), (sums[r] - 1) // best)
        if low >= top:
            continue
        seq = RunsLowerings(w, r)
        for d in range(low + 1, top + 1):
            value = unloading_walk(seq, d, best)
            if value > best:
                best, best_r, best_d = value, r, d
    return best, (("r", best_r), ("d", best_d))


def modified_alpha_walk(z, r, d) -> int:
    """The modified unloading alpha bound, min over k of k d + x_k, walked
    over every step of a ``RunsLowerings`` until k d reaches the running
    minimum."""
    seq, g = RunsLowerings(as_spec(z).positive, r), (d - 1) * (d - 2) // 2
    low, k = _modified_x(*seq.at(0), d, g), 1
    while k * d < low:
        low = min(low, k * d + _modified_x(*seq.at(k), d, g))
        k += 1
    return low


def modified_tau_walk(z, r, d) -> int:
    """The modified unloading tau bound, max(0, max over k < K of
    k d + max(d - 2, ceil((sums[k] + g - 1) / d))), walked over every step
    of a ``RunsLowerings`` until the top entry is 0."""
    seq, g = RunsLowerings(as_spec(z).positive, r), (d - 1) * (d - 2) // 2
    t, k = 0, 0
    while seq.at(k)[0] > 0:
        t = max(t, k * d + d - 2, k * d + _ceil_div(seq.sums[k] + g - 1, d))
        k += 1
    return t


def semigroup_scan_from_alpha(z) -> int:
    """The semigroup-membership bound scanned down from find_alpha(z):
    one past the first degree whose class does not reduce to a member."""
    z = as_spec(z)
    t = find_alpha(z)
    while t >= 0:
        d, m = reduce_fundamental_raw(t, z.mults)
        if d < 0 or d < m[0]:
            break
        t -= 1
    return t + 1


def roe_alpha_runs(z) -> int:
    """The iterated-unloading alpha bound, every stage a loop of
    ``_Runs.lower`` sweeps on any input, the sum carried by the drops."""
    w = as_spec(z).positive or (0,)
    top = w[0]
    rest = runs_state(w[1:])
    for i in range(2, len(w)):
        s = rest.top_sum(i)
        while top < s:
            top += 1
            s -= rest.lower(i)[1]
    return top


def roe_tau_runs(z) -> int:
    """The iterated-unloading tau bound, every stage a loop of
    ``_Runs.lower`` sweeps on any input, the sum carried by the drops."""
    w = as_spec(z).positive or (0,)
    top = w[0]
    rest = runs_state(w[1:])
    for i in range(1, len(w) - 1):
        s = rest.top_sum(i + 1)
        while top < s - 1:
            top += 1
            s -= rest.lower(i, 1)[1]
    second = rest.top_sum(1) if len(w) > 1 else 0
    return max(top + second - 1, 0)


def roe_tau_per_step(z) -> int:
    """The iterated-unloading tau bound, summing the i + 1 largest entries
    afresh on every step of stage i instead of carrying the sum."""
    w = as_spec(z).positive or (0,)
    top = w[0]
    rest = runs_state(w[1:])
    for i in range(1, len(w) - 1):
        while top < rest.top_sum(i + 1) - 1:
            top += 1
            rest.lower(i)
    second = rest.top_sum(1) if len(w) > 1 else 0
    return max(top + second - 1, 0)


def hirschowitz_tau_loop(z) -> int:
    """The Hirschowitz tau bound, stepping d up from m_1 one at a time."""
    z = as_spec(z)
    d = z.positive[0]
    while _ceil_div(d + 3, 2) * _ceil_div(d + 2, 2) * 2 <= z.condition_sum:
        d += 1
    return d


def tau_scan_from_alpha(z) -> int:
    """The expected tau, by a scan over every degree from max(0, alpha - 1)
    up to the first with e(t) = P(t), each e reduced afresh."""
    z = as_spec(z)
    t = max(0, find_alpha(z) - 1)
    while expected_dim(z.divisor_class(t)) != hilbert_polynomial(z, t):
        t += 1
    return t


def report_json(block: dict, rep: BoundReport) -> dict:
    """A report as the dict its --json text serializes, with the input
    block first; canonical_json of these is the text of a report."""
    params = {}
    for k, v in rep.params:
        params[k] = list(v) if isinstance(v, tuple) else v
    return {
        "input": block,
        "method": rep.method,
        "direction": rep.direction,
        "value": rep.value,
        "params": params,
        "validity": list(rep.validity),
    }


def translation_oracle_table(cfg, z, lo, hi, nu=False):
    """`oracle.oracle_table` with only the heaviest point placed, by a
    translation to the origin: the columns stay in graded order, the
    first c = (m+1)m/2 of them (m the heaviest multiplicity, at most
    hi + 1) are that point's pivots, and only the other points' rows on
    the later columns are eliminated; nu_t reads the degree-(t-1) block of
    the kernel basis of every free column of degree below t, and ranks
    it with `_echelon`, not the package's `rank_mod_p`, so the two nu
    eliminations are checked against each other."""
    def ncols(t):
        return (t + 1) * (t + 2) // 2 if t >= 0 else 0

    z = as_spec(z)
    p = cfg.prime
    mults, c, (x0, y0) = list(z.mults), 0, (0, 0)
    if mults:
        heavy = mults.index(max(mults))
        c, (x0, y0) = ncols(min(mults[heavy] - 1, hi)), cfg.points[heavy]
        mults[heavy] = 0
    moved = [((x - x0) % p, (y - y0) % p) for x, y in cfg.points]
    m, rest = _echelon(_condition_matrix(p, moved, mults, hi, _exponents(hi))[:, c:], p)
    pivots = list(range(c)) + [c + q for q in rest]

    def rank(s):
        return bisect_left(pivots, ncols(s))

    rows = [[t, ncols(t) - rank(t)] for t in range(lo, hi + 1)]
    if nu:
        free = np.setdiff1d(np.arange(ncols(hi)), pivots)
        # Column j has degree d with d(d+1)/2 <= j < (d+1)(d+2)/2.
        g = ncols((isqrt(8 * int(free[0]) + 1) - 1) // 2 - 1) if free.size else ncols(hi)
        s, r = bisect_left(pivots, g), rank(hi - 1)
        red = _back_substitute(m[s - c:max(r - c, 0), g - c:max(ncols(hi - 1) - c, 0)],
                               [q - g for q in pivots[s:r]], p)
        for row in rows:
            t, dim = row
            k = ncols(t - 1) - rank(t - 1)
            n = dim - k
            if k and n:
                start, i0, i1 = ncols(t - 2), rank(t - 2), rank(t - 1)
                k0 = start - i0
                block = np.zeros((k, t), dtype=np.int64)
                block[:, np.array(pivots[i0:i1], dtype=np.int64) - start] = \
                    -red[i0 - s:i1 - s, :k].T % p
                block[np.arange(k0, k), free[k0:k] - start] = 1
                prods = np.zeros((2 * k, t + 1), dtype=np.int64)
                prods[:k, :t] = block
                prods[k:, 1:] = block
                n -= len(_echelon(prods[:, free[k:k + n] - ncols(t - 1)], p)[1])
            row.append(n)
    return rows


def _parse_uniform(text: str) -> tuple[int, int]:
    try:
        n, m = text.split(":")
        return int(n), int(m)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N:M, got {text!r}")


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}")


# argparse reads "-3:-1" or "-1,2" as an option, so a negative number at
# the start of an N:M, LO:HI or comma-separated value needs the = form.
_MULTS_HELP = "comma-separated multiplicities m1,m2,...; write a negative m1 as --mults=m1,m2,..."
_UNIFORM_HELP = ("N general points of equal multiplicity M; "
                 "write a negative N as --uniform=N:M")
_WINDOW_HELP = "degree window; write a negative LO as --window=LO:HI"
_WEIGHTS_HELP = ("full nef weight vector a0,a1,...,an (rationals allowed); "
                 "write a negative a0 as --weights=a0,a1,...")


def _add_input_args(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--mults", type=_parse_mults, help=_MULTS_HELP)
    g.add_argument("--uniform", type=_parse_uniform, metavar="N:M", help=_UNIFORM_HELP)
    p.add_argument("--json", action="store_true", help="structured output")


def reference_parser() -> argparse.ArgumentParser:
    """The command line's parser written out call by call, without the
    handlers: its help, usage errors and namespaces (func aside) are the
    ones `cli._parser` builds from its table."""
    top = argparse.ArgumentParser(
        prog="fatpoints",
        description="numerical characters of fat-point subschemes of the plane")
    sub = top.add_subparsers(dest="command", required=True)

    for name, help_text in [("alpha", "least degree of a curve through the scheme"),
                            ("tau", "least degree of independent conditions"),
                            ("beta", "least degree with zero-dimensional base locus"),
                            ("psi", "semigroup-membership lower bound on alpha")]:
        p = sub.add_parser(name, help=help_text)
        _add_input_args(p)

    p = sub.add_parser("hilb", help="expected Hilbert-function table")
    _add_input_args(p)
    p.add_argument("--window", type=_parse_window, metavar="LO:HI", help=_WINDOW_HELP)

    p = sub.add_parser("res", help="Betti numbers for up to 8 points")
    _add_input_args(p)

    p = sub.add_parser("decomp", help="semigroup decomposition of one class")
    _add_input_args(p)
    p.add_argument("--t", type=int, help="degree of the class")

    p = sub.add_parser("bounds", help="run the full bound suite")
    _add_input_args(p)
    p.add_argument("--r", type=int, help="curve passes through the first r points")
    p.add_argument("--d", type=int, help="degree of the unloading curve")
    p.add_argument("--j", type=int, help="tail width for the prefix-spread family")
    p.add_argument("--weights", type=_parse_weights, help=_WEIGHTS_HELP)

    p = sub.add_parser("oracle", help="finite-field interpolation oracle")
    _add_input_args(p)
    degrees = p.add_mutually_exclusive_group()
    degrees.add_argument("--window", type=_parse_window, metavar="LO:HI", help=_WINDOW_HELP)
    degrees.add_argument("--t", type=int, help="single degree")
    p.add_argument("--nu", action="store_true", help="also report generator counts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    return top
