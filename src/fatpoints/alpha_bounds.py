"""Lower bounds on the least degree of a curve through a fat-point scheme.

Every method certifies that no curve of degree t passes through
Z = m_1 p_1 + ... + m_n p_n for all t below the reported value.

* Testing against a nef class: if a nonincreasing weight vector
  a_0 >= a_1 >= ... >= a_n >= 0 satisfies a_0 d^2 >= a_1 + ... + a_r and
  r a_0 >= a_1 + ... + a_n, then alpha >= (sum a_i m_i) / (a_0 d).  Four
  canned weight families (a)-(d) cover the useful specializations.

* Unloading: repeatedly subtract the degree-d curve through the first r
  points while the class meets it negatively (keeping the multiplicities
  sorted and clamped); if the degree drops below the top multiplicity the
  original class was not effective.  The bound is the first degree the
  procedure fails to rule out, which has a closed form as a minimum over
  the lowering steps (proof in ``unloading_alpha``).

* Iterated unloading: subtract the classes E1-E2-...-Ei for i = 3..n in
  turn while they meet the class negatively; the final top multiplicity
  is a lower bound for alpha.

* Modified unloading: same skeleton as unloading but the subtraction is
  allowed whenever the restriction to the curve can have no sections
  (t < d with (t+1)(t+2)/2 conditions exhausted, or the intersection at
  most genus - 1), which is valid in characteristic 0 only.  Its bound
  is also a closed-form minimum over the lowering steps (proof in
  ``modified_unloading_alpha``).

* Semigroup membership: the least t whose class lands in the semigroup
  generated by exceptional classes and the anticanonical class.

Every unloading procedure runs over one multiplicity state, runs of
equal values lowered without re-sorting, and one lowering step is one
pass over those runs that also yields the drop of the sum of the r
largest entries.  Those with a fixed r take their bound in one walk over
its lowering sequence, which depends only on the multiplicities and r.
The sequence is kept on the ``FatPointSpec`` by r, so plain and modified
unloading and the modified unloading tau bound of one query share it,
and each step is lowered once per query.

Both parameter searches start their running best one below the value of
a seed pair and skip every pair whose proven cap cannot beat it, which
still reports the first maximal pair (proof in either search).  The
unloading search seeds from the family (a) and (b) pairs and bounds
every (r, d) by an O(1) cap (the lowering sequence of r empties after a
number of steps known in closed form): at 9000 points of multiplicity 13
it walks 4,908 of the 564,799 pairs, builds a lowering sequence for
2,788 of the 9,000 values of r and lowers 27,962 steps, against 87,729
from a best of 0.  It reads the kept sequence of an r when there is
one, and keeps only the one of the r it reports, which
``unloading_alpha`` would keep anyway.  The family-(d) search seeds one
pair per d near r = d sqrt(n), j = d^2, and sweeps r with one next r
per d, moved past the r that a per-d interval and a cap over all j rule
out: there it computes 143 family-(d) values, 94 of them seeds, where a
scan of every r computes 9,168 and tests about 565,000 pairs.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from heapq import heappop, heapreplace
from math import gcd, isqrt
from operator import neg
from typing import Sequence

from .hilbert import find_alpha
from .lattice import FatPointSpec, as_spec, reduce_fundamental_raw
from .report import ALPHA_LOWER, CHAR_ZERO, BoundReport, PreconditionError, fmt_rational


def _ceil_div(a: int, b: int) -> int:
    # ceil(a / b) for integers with b != 0.
    return -((-a) // b)


def _check_rd(r: int, n: int, d: int) -> None:
    # The degree-d curve through the first r of n points.
    if not 1 <= r <= n:
        raise PreconditionError(f"need 1 <= r <= n, got r={r}, n={n}")
    if d < 1:
        raise PreconditionError("d must be positive")


def _check_uniform_rd(n: int, m: int, r: int, d: int) -> None:
    # The uniform closed forms stand for the vector methods on m * (p_1 +
    # ... + p_n), which count the positive multiplicities: none at m = 0.
    _check_rd(r, n if m > 0 else 0, d)


# ---------------------------------------------------------------------------
# Nef-class tests


def nef_test_bound(z, weights: Sequence, r: int, d: int) -> BoundReport:
    """alpha >= ceil(sum(a_i m_i) / (a_0 d)) for an admissible weight vector.

    ``weights`` is the full vector (a_0, a_1, ..., a_n), n the number of
    positive multiplicities, which a_1, ..., a_n meet sorted first, so zero
    padding changes nothing; rational entries are cleared to integers by
    the common denominator before checking the admissibility inequalities.
    """
    z = as_spec(z)
    n = len(z.positive)
    a = [Fraction(w) for w in weights]
    if len(a) > n + 1:
        raise PreconditionError(f"weight vector longer than n+1 = {n + 1}")
    a += [Fraction(0)] * (n + 1 - len(a))
    lcm = 1
    for w in a:
        lcm = lcm * w.denominator // gcd(lcm, w.denominator)
    ints = [int(w * lcm) for w in a]
    if all(w == 0 for w in ints):
        raise PreconditionError("weights must not be all zero")
    if any(w < 0 for w in ints):
        raise PreconditionError("weights must be nonnegative")
    if any(ints[i] < ints[i + 1] for i in range(n)):
        raise PreconditionError("weights must be nonincreasing")
    _check_rd(r, n, d)
    if ints[0] * d * d < sum(ints[1:r + 1]):
        raise PreconditionError("weights violate a0*d^2 >= a1+...+ar")
    if r * ints[0] < sum(ints[1:]):
        raise PreconditionError("weights violate r*a0 >= a1+...+an")
    value = _ceil_div(sum(w * x for w, x in zip(ints[1:], z.positive)), ints[0] * d)
    return BoundReport("nef-test", ALPHA_LOWER, value,
                       (("r", r), ("d", d),
                        ("weights", tuple(fmt_rational(w) for w in a))))


def nef_variant_bound(z, variant: str, r: int, d: int, j: int | None = None) -> BoundReport:
    """The four canned weight families for the nef test.

    (a) r^2 >= n d^2:  alpha >= mean * n * d / r
    (b) r^2 <= n d^2:  alpha >= mean * r / d
    (c) d^2 >= r:      alpha >= (m_1 + ... + m_r) / d
    (d) d^2 < r, 0 <= j <= d^2: prefix weights 1 spread over a tail of
        weight j/(r - d^2 + j), with a fractional last slot.
    n counts the positive multiplicities, which are sorted first.
    """
    z = as_spec(z)
    w = z.positive
    n = len(w)
    _check_rd(r, n, d)
    total = sum(w)
    if variant == "a":
        if r * r < n * d * d:
            raise PreconditionError("variant (a) needs r^2 >= n*d^2")
        value = _ceil_div(total * d, r)
    elif variant == "b":
        if r * r > n * d * d:
            raise PreconditionError("variant (b) needs r^2 <= n*d^2")
        value = _ceil_div(total * r, n * d)
    elif variant == "c":
        if d * d < r:
            raise PreconditionError("variant (c) needs d^2 >= r")
        value = _ceil_div(sum(w[:r]), d)
    elif variant == "d":
        if d * d >= r:
            raise PreconditionError("variant (d) needs d^2 < r")
        if j is None:
            raise PreconditionError("variant (d) needs j")
        if not 0 <= j <= d * d:
            raise PreconditionError("variant (d) needs 0 <= j <= d^2")
        value = _prefix_spread_bound(w, z.sums, r, d, j)
    else:
        raise PreconditionError(f"unknown variant {variant!r}")
    params = [("r", r), ("d", d)]
    if variant == "d":
        params.append(("j", j))
    return BoundReport(f"nef-{variant}", ALPHA_LOWER, value, tuple(params))


def _prefix_spread_bound(w: Sequence[int], sums: Sequence[int], r: int, d: int, j: int) -> int:
    """Weight family (d) in integers; sums[k] = w[0] + ... + w[k-1].

    The first d^2 - j weights are 1, the next q + j (q = r - d^2) are
    j/(q+j), and one fractional slot of weight q - j*m_cut/(q+j) follows,
    m_cut = floor(q(q+j)/j); everything is cleared over d(q+j).  When
    d^2 >= r the family degenerates to (c), ceil((m_1 + ... + m_r)/d),
    for every j.
    """
    n = len(w)
    dd = d * d
    if dd >= r:
        return _ceil_div(sums[r], d)
    if j == 0:
        return _ceil_div(sums[dd], d)
    q = r - dd
    qj = q + j
    m_cut = (q * qj) // j
    stop = m_cut + r
    num = sums[dd - j] * qj + (sums[min(stop, n)] - sums[dd - j]) * j
    if stop < n:
        num += w[stop] * (q * qj - j * m_cut)
    return _ceil_div(num, d * qj)


def _spread_cap(w: Sequence[int], sums: Sequence[int], r: int, d: int) -> int:
    """A cap on the family-(d) bound of (r, d), d^2 < r, over 1 <= j <= d^2.

    It is ceil((F(1) + S(d^2)) / d), F(j) the weighted sum of the first r
    entries under the weights of j and S(j) that of the entries from r
    on.  Proof.  Write q = r - d^2 and A_j(k) for the sum of the first k
    weights of j, entries 0-indexed.  The first r weights are d^2 - j
    ones and q + j of j/(q+j), so A_j(k) = min(k, d^2 - (r-k) j/(q+j))
    for k <= r.  From r on come m_cut weights j/(q+j) and a fractional
    slot, q in all, so A_j(k) = min(d^2 + (k-r) j/(q+j), r) for k >= r.
    Since j/(q+j) rises in j, A_j(k) falls in j for k <= r and rises in
    j for k >= r.  Abel summation, with w nonincreasing and w[n] = 0,
    gives

        F(j) = d^2 w[r-1] + sum_{0<k<r} A_j(k) (w[k-1] - w[k]),
        S(j) = sum_{r<k<=n} (A_j(k) - d^2) (w[k-1] - w[k]),

    with every w[k-1] - w[k] >= 0 and A_j(r) = d^2 for all j: F falls
    in j and S rises in j, so every j has F(j) + S(j) <= F(1) + S(d^2).
    """
    n, dd = len(w), d * d
    q = r - dd
    m_cut = q * r // dd
    stop = m_cut + r
    # S(d^2) = tail / r: weight d^2/r on entries r..stop-1, then the slot.
    tail = (sums[min(stop, n)] - sums[r]) * dd
    if stop < n:
        tail += w[stop] * (q * r - dd * m_cut)
    # F(1) = (sums[d^2 - 1] q + sums[r]) / (q + 1): d^2 - 1 ones, then
    # weight 1/(q+1) on entries d^2 - 1..r-1.
    head = sums[dd - 1] * q + sums[r]
    return _ceil_div(head * r + tail * (q + 1), d * (q + 1) * r)


def _reach_interval(w: Sequence[int], sums: Sequence[int], d: int, best: int) -> tuple[int, int]:
    """The r > d^2 whose family-(d) reach bound with w[r] <= w[d^2] beats best.

    Returned as (lo, hi), empty when lo > hi; d^2 < n.  With
    k = best d - P[d^2] and W = w[d^2], the reach bound of
    ``best_variant_d_search`` beats best only if
    min((r - d^2) r, (n - r) d^2) W > k r.  For k < 0 that admits every r
    up to n.  Otherwise it needs (r - d^2) W > k, so
    r >= d^2 + floor(k / W) + 1, and (n - r) d^2 W > k r, so
    r <= ceil(n d^2 W / (k + d^2 W)) - 1.
    """
    n, dd = len(w), d * d
    k = best * d - sums[dd]
    if k < 0:
        return dd + 1, n
    top = dd * w[dd]
    return dd + k // w[dd] + 1, min(n, (n * top - 1) // (k + top))


def best_variant_d_search(z) -> BoundReport:
    """Maximum of the family-(d) bound over all r, d and j.

    The domain is r over the positive multiplicities, d up to the first
    value with d^2 >= r, and 1 <= j <= d^2, scanned r first, then d, then
    j; ties keep the first (smallest) parameters.  For that last d the
    value is the family-(c) one, ceil(P[r] / d), the same for every j,
    so only j = 1 can be recorded.  P is ``sums``, w the entries,
    0-indexed.

    Seeded strict scan.  Let s be the value of any pair in the domain.
    Starting the running best at s - 1 instead of 0, with the strict
    comparison value > best, still reports the first maximal pair in
    scan order: s is at most the maximum M, every pair before the first
    M-pair is below M, so that pair is recorded, and nothing after it
    beats M.  A pair whose proven cap is at most the running best cannot
    be recorded, so it is skipped.  The seeds are (r_d, d, d^2) with
    r_d = min(n, max(d^2 + 1, isqrt(d^2 n))) for every d^2 < n: on
    uniform input the optimum sits near r = d sqrt(n), j = d^2.

    Caps.  With q = r - d^2 and w nonincreasing, the family-(d) weights
    of any j satisfy:

    * the first r weights lie in [0, 1] and sum to d^2, so they
      contribute at most m_1 + ... + m_{d^2} = P[d^2];
    * every weight past r sits on an entry at most w[r] (or no entry
      when r = n), is at most j/(q+j) <= d^2/(q+d^2) = d^2/r, and all of
      them sum to at most q over n - r slots, so together they weigh at
      most min(q, (n-r) d^2 / r) and contribute at most that times w[r].

    Hence every j gives at most the reach bound
    ceil((P[d^2] r + min(q r, (n-r) d^2) w[r]) / (r d)).  With
    w[r] <= w[d^2] it beats best only for the r of ``_reach_interval``,
    and ``_spread_cap`` bounds the pairs inside it more tightly.  A
    family-(c) pair beats best iff P[r] > best d, and P rises, so in the
    block of one d, (d-1)^2 < r <= d^2, only the r from
    ``bisect_right(sums, best * d)`` on can win.

    Sweep.  A heap holds one next r for each d with d^2 < n and one for
    family (c), keyed (r, d); a family-(c) key has d^2 >= r, so each r's
    family-(c) pair comes after its family-(d) pairs, and popping the
    least key walks the scan order.  A popped key is moved on to the
    next r its cap admits under the current best, so the state is
    O(sqrt n) and no list of all pairs is built.
    """
    z = as_spec(z)
    w, sums = z.positive, z.sums
    n = len(w)
    if n == 0:
        raise PreconditionError("the empty subscheme has no bound parameters")
    top_d = isqrt(n - 1)  # the d with d^2 < n
    best = 0
    for d in range(1, top_d + 1):
        dd = d * d
        r = min(n, max(dd + 1, isqrt(dd * n)))
        best = max(best, _prefix_spread_bound(w, sums, r, d, dd) - 1)
    best_r, best_d, best_j = 0, 0, 0
    heap = [(1, 1)] + [(d * d + 1, d) for d in range(1, top_d + 1)]  # sorted: a heap
    while heap:
        r, d = heap[0]
        if d * d >= r:
            # Family (c): record this r if it wins, then find the next
            # one, block by block.
            if sums[r] > best * d:
                best, best_r, best_d, best_j = _ceil_div(sums[r], d), r, d, 1
            r += 1
            while r <= n:
                d = isqrt(r - 1) + 1
                end = min(d * d, n) + 1
                r = bisect_right(sums, best * d, r, end)
                if r < end:
                    break
            last = n
        else:
            # Family (d) at this d: run the j of r only if the interval
            # and the cap admit it, then move on to the next admitted r.
            lo, last = _reach_interval(w, sums, d, best)
            if lo <= r <= last and _spread_cap(w, sums, r, d) > best:
                for j in range(1, d * d + 1):
                    value = _prefix_spread_bound(w, sums, r, d, j)
                    if value > best:
                        best, best_r, best_d, best_j = value, r, d, j
            r = max(r + 1, lo)
        if r <= last:
            heapreplace(heap, (r, d))
        else:
            heappop(heap)
    return BoundReport("nef-d", ALPHA_LOWER, best,
                       (("r", best_r), ("d", best_d), ("j", best_j)))


def best_rd_a(n: int) -> tuple[int, int]:
    """(r, d) with r <= n and r^2 >= n d^2 maximizing n d / r (smallest d on ties)."""
    if n < 1:
        raise PreconditionError("n must be positive")
    root = isqrt(n)
    r, d = (root if root * root == n else root + 1), 1
    for cand_d in range(1, root + 1):
        cand_r = isqrt(cand_d * cand_d * n - 1) + 1  # least r with r^2 >= d^2 n
        if cand_r * d < cand_d * r:
            r, d = cand_r, cand_d
    return r, d


def best_rd_b(n: int) -> tuple[int, int]:
    """(r, d) with r <= n and r^2 <= n d^2 maximizing r / d (smallest d on ties)."""
    if n < 1:
        raise PreconditionError("n must be positive")
    root = isqrt(n)
    top = root if root * root == n else root + 1
    r, d = (root if root * root == n else root - 1), 1
    for cand_d in range(1, top + 1):
        cand_r = min(isqrt(cand_d * cand_d * n), n)  # largest r with r^2 <= d^2 n
        if cand_r * d > cand_d * r:
            r, d = cand_r, cand_d
    return r, d


# ---------------------------------------------------------------------------
# Unloading

# The degree-d curve through the first r (sorted) points is subtracted
# while a procedure's test allows it; sorting and clamping in between
# realize the consecutive-difference and last-point subtractions
# implicitly.


class _Runs:
    # A list sorted nonincreasing and nonnegative, as runs of equal
    # positive values.  top_sum(r) is the sum of the r largest entries;
    # lower(r, e) lowers them by one, clamps at 0 and returns the new
    # largest (0 once all are zero) with the drop of top_sum(r + e), e 0
    # or 1, in O(runs) and with no re-sort.
    #
    # The drop.  If at most r entries are positive, every one of them is
    # lowered and the r + e largest include all of them, so top_sum(r + e)
    # drops by their number.  Otherwise let the boundary run, of value v,
    # hold the r-th largest entry or, when the first r end a run, the next
    # one: `inside` of its entries lie in the first r and `outside` >= 1
    # past them.  The runs above it drop by one and stay at least v, so
    # the new r + e largest are those r - inside entries, then the outside
    # entries still at v, then the lowered ones at v - 1, of which at most
    # inside are needed since outside >= e; every later entry is at most
    # v - 1.  That takes min(inside + e, outside) entries at v in place of
    # ones at v - 1, so top_sum(r + e) drops by
    # r + e - min(inside + e, outside).
    __slots__ = ("vals", "cnts")

    def __init__(self, w: Sequence[int]):
        # A run ends at the first smaller entry, found by bisection, so a
        # build costs O(runs log n) rather than O(n).
        self.vals, self.cnts = [], []
        i = 0
        while i < len(w) and w[i] > 0:
            j = bisect_right(w, -w[i], i, key=neg)
            self.vals.append(w[i])
            self.cnts.append(j - i)
            i = j

    def top_sum(self, r: int) -> int:
        s = 0
        for v, c in zip(self.vals, self.cnts):
            if r <= c:
                return s + r * v
            s += c * v
            r -= c
        return s

    def lower(self, r: int, e: int = 0) -> tuple[int, int]:
        vals, cnts = self.vals, self.cnts
        drop = r + e
        # Whole runs 0..j-1 drop by one, which keeps them above run j.
        j = 0
        while j < len(vals) and r >= cnts[j]:
            vals[j] -= 1
            r -= cnts[j]
            j += 1
        if j < len(vals):
            # Run j is the boundary run, r of its entries inside.
            drop -= min(r + e, cnts[j] - r)
            if r:
                # r entries of run j drop below the rest of it.
                cnts[j] -= r
                if j + 1 < len(vals) and vals[j + 1] == vals[j] - 1:
                    cnts[j + 1] += r
                elif vals[j] > 1:
                    vals.insert(j + 1, vals[j] - 1)
                    cnts.insert(j + 1, r)
            if j and vals[j - 1] == vals[j]:
                del vals[j]
                cnts[j - 1] += cnts.pop(j)
        else:
            # Only the positive entries were lowered, r short of the ask.
            drop -= r + e
            if vals and not vals[-1]:
                del vals[-1], cnts[-1]
        return (vals[0] if vals else 0), drop


class _Lowerings:
    """The lowering sequence of w (sorted nonincreasing) for one r.

    at(k) is (tops[k], sums[k]): the largest entry and the sum of the r
    largest after the r largest were lowered by one (clamped at 0) k
    times.  Each step is one ``_Runs.lower`` pass, and sums[k + 1] is
    sums[k] less the drop that pass returns: r - min(inside, outside),
    the entries of the boundary run inside and outside the first r, when
    more than r entries are positive, else the number of positive entries
    (proof at ``_Runs``).  So only sums[0] is summed.  The lists grow only through
    at(), so every reader of the sequence lowers each step once; the hot
    walks index them directly and call at() when they reach the end.
    ``_lowerings`` keeps one sequence per r on the spec for its fixed-r
    readers.
    """

    __slots__ = ("tops", "sums", "_state", "_r")

    def __init__(self, w: Sequence[int], r: int):
        self._state, self._r = _Runs(w), r
        self.tops, self.sums = [w[0] if w else 0], [self._state.top_sum(r)]

    def at(self, k: int) -> tuple[int, int]:
        tops, sums, state, r = self.tops, self.sums, self._state, self._r
        while len(tops) <= k:
            top, drop = state.lower(r)
            tops.append(top)
            sums.append(sums[-1] - drop)
        return tops[k], sums[k]


def _lowerings(z: FatPointSpec, r: int) -> _Lowerings:
    # The lowering sequence of z's positive multiplicities for r, built
    # once per spec: the fixed-r methods of one query share it, and the
    # parameter search reads it.  It lives as long as z does.
    seq = z.lowerings.get(r)
    if seq is None:
        seq = z.lowerings[r] = _Lowerings(z.positive, r)
    return seq


def _unloading_min(seq: _Lowerings, d: int, best: int = -1) -> int:
    # min over k of k d + max(tops[k], ceil(sums[k] / d)), walked until
    # k d reaches the running minimum; returns early, with a value at
    # most best, once the running minimum is at most best.
    tops, sums = seq.tops, seq.sums
    low = max(tops[0], -(-sums[0] // d))
    k, kd = 1, d
    while kd < low and low > best:
        if k == len(tops):
            seq.at(k)
        term = -(-sums[k] // d)
        if term < tops[k]:
            term = tops[k]
        if term + kd < low:
            low = term + kd
        k, kd = k + 1, kd + d
    return low


def unloading_alpha(z, r: int, d: int) -> BoundReport:
    """First degree the unloading procedure fails to rule out.

    Degree t unloads by subtracting the degree-d curve through the r
    largest points while t - k d >= tops[k] and (t - k d) d < sums[k]
    (tops, sums: the lowering sequence); it is ruled out when the degree
    drops below the top multiplicity.  The bound has the closed form

        min over k >= 0 of k d + max(tops[k], ceil(sums[k] / d)).

    Proof.  Step k is passed iff L_k <= t <= U_k, with
    L_k = k d + tops[k] and U_k = k d + ceil(sums[k] / d) - 1; the walk
    stops at the first step not passed, and t is ruled out there iff
    t < L_k.  L_k never decreases, since a lowering drops the top entry
    by at most 1 and d >= 1.  So t fails iff some k has L_k <= t and
    U_k < t: then L_j <= t for every j <= k, so the walk stops at k or
    earlier without ruling t out.  The least such t is
    min_k max(L_k, U_k + 1).  Every term is at least k d, so the walk
    ends once k d reaches the running minimum.
    """
    z = as_spec(z)
    _check_rd(r, len(z.positive), d)
    value = _unloading_min(_lowerings(z, r), d)
    return BoundReport("unloading", ALPHA_LOWER, value, (("r", r), ("d", d)))


def _u_rho(n: int, m: int, r: int) -> tuple[int, int]:
    # m*n = u*r + rho with 0 < rho <= r.
    u = _ceil_div(m * n, r) - 1
    return u, m * n - u * r


def best_unloading_search(z) -> BoundReport:
    """Maximum of the unloading bound over 1 <= r <= n, d^2 <= r.

    The pairs are scanned r first, then d, and ties keep the first
    (smallest) parameters.  Every pair is bounded by a cap computed in
    O(1), and a pair whose cap is at most the running best cannot win
    the strict comparison, so it is skipped.

    Seeded strict scan.  Let s be the value of any pair in the domain.
    Starting the running best at s - 1 instead of 0, with the strict
    comparison value > best, still reports the first maximal pair in
    scan order: s is at most the maximum M, every pair before the first
    M-pair is below M, so that pair is recorded, and nothing after it
    beats M.  A cap at most the running best still proves that a pair
    cannot be recorded.  The seeds are the pairs of weight families (a)
    and (b), ``best_rd_a(n)`` and ``best_rd_b(n)``, when d^2 <= r; the
    (b) pair at d = ceil(sqrt(n)) lies outside the domain.  On the 42
    bounds-uniform benchmark queries the best seed equals the maximum
    37 times and is 1 below it 5 times.  A seed reads the sequence that
    a fixed-r method kept on the spec (in a ``bounds`` query,
    ``modified_unloading_alpha`` keeps both), else builds one that is
    not kept; the scan reuses it.

    Lemma.  Let w be sorted nonincreasing with sum T.  Lowering its r
    largest entries by one (clamped at 0) empties it after exactly
    E_r = max(w[0], ceil(T / r)) steps.  Proof: a step lowers the top
    entry by at most 1 and T by at most r, so M = max(w[0], ceil(T / r))
    drops by at most 1.  It drops by exactly 1 while w is not empty: if
    at most r entries are positive, all of them drop and T <= r w[0]
    before and T <= r (w[0] - 1) after; otherwise T drops by exactly r,
    and the top drops by 1 unless more than r entries equal w[0], when
    T >= (r + 1) w[0] makes ceil(T / r) > w[0] the maximum.  M is 0
    exactly when w is empty, which takes M steps.

    Cap.  With P[r] the sum of the r largest entries, the closed form of
    ``unloading_alpha`` has the term max(w[0], ceil(P[r] / d)) at k = 0
    and the term d E_r at k = E_r, where everything is 0, so

        V(r, d) <= min(max(w[0], ceil(P[r] / d)), d E_r).

    The first argument does not rise with d and the second rises, so the
    d with cap > best form one interval: d > best // E_r, d^2 <= r and,
    when w[0] <= best, d <= (P[r] - 1) // best.  An r whose interval is
    empty builds no lowering sequence.  One sequence per r serves its
    surviving d: the one a fixed-r method kept on the spec if there is
    one, else a new one that is not kept, since keeping a sequence for
    every r would hold them all at once.  A pair stops as soon as its
    running minimum is at most the best (at once, if its k = 0 term is,
    so the interval is not narrowed after a win), and a pair that beats
    the best ran its walk to the end, so the walk gives its value.  The
    reported pair is recomputed once by ``unloading_alpha``, which keeps
    the sequence of its r; it is handed the one the search walked.
    """
    z = as_spec(z)
    w, sums = z.positive, z.sums
    n = len(w)
    if n == 0:
        raise PreconditionError("the empty subscheme has no bound parameters")
    w0 = w[0]
    kept, seeds = z.lowerings, {}
    best = 0
    for r, d in (best_rd_a(n), best_rd_b(n)):
        if d * d <= r:
            seq = seeds[r] = seeds.get(r) or kept.get(r) or _Lowerings(w, r)
            best = max(best, _unloading_min(seq, d) - 1)
    best_r, best_d, best_seq = 0, 0, None
    for r in range(1, n + 1):
        low = best // max(w0, _ceil_div(sums[-1], r))
        top = isqrt(r) if w0 > best else min(isqrt(r), (sums[r] - 1) // best)
        if low >= top:
            continue
        seq = seeds.get(r) or kept.get(r) or _Lowerings(w, r)
        for d in range(low + 1, top + 1):
            value = _unloading_min(seq, d, best)
            if value > best:
                best, best_r, best_d, best_seq = value, r, d, seq
    kept.setdefault(best_r, best_seq)
    best = unloading_alpha(z, best_r, best_d).value
    return BoundReport("best-unloading", ALPHA_LOWER, best,
                       (("r", best_r), ("d", best_d)))


# ---------------------------------------------------------------------------
# Iterated unloading


def roe_alpha(z) -> BoundReport:
    """Iterated unloading: final top multiplicity after the stage-i sweeps.

    Stage i (i = 3..n) subtracts E1 - E2 - ... - Ei while the class meets
    it negatively, i.e. raises the top multiplicity by one and lowers the
    next i-1; no curve of degree below the final top multiplicity passes
    through the scheme.  The top entry stays on top, so it is kept apart
    from the state of the rest.
    """
    w = as_spec(z).positive or (0,)
    top = w[0]
    rest = _Runs(w[1:])
    for i in range(2, len(w)):
        # Each sweep lowers the same i entries it sums, so the sum follows
        # the drops that lower returns.
        s = rest.top_sum(i)
        while top < s:
            top += 1
            s -= rest.lower(i)[1]
    return BoundReport("roe-unloading", ALPHA_LOWER, top)


# ---------------------------------------------------------------------------
# Modified unloading (characteristic 0)


def _tri_root(s: int) -> int:
    # Largest S >= -1 with (S+1)(S+2) <= 2s, for s >= 0.
    return (isqrt(8 * s + 1) - 3) // 2


def _modified_x(seq: _Lowerings, k: int, d: int, g: int) -> int:
    # x_k of modified_unloading_alpha: the least x >= tops[k] outside
    # I_k = [d - 2, U_k] and J_k = [0, min(d - 1, S_k)].
    top, s = seq.at(k)
    u = (s + g - 1) // d
    j = min(d - 1, _tri_root(s))
    x = top
    while True:
        if d - 2 <= x <= u:
            x = u + 1
        elif 0 <= x <= j:
            x = j + 1
        else:
            return x


def modified_unloading_alpha(z, r: int, d: int) -> BoundReport:
    """Unloading with the relaxed no-sections test; valid in characteristic 0.

    Degree t unloads like ``unloading_alpha`` but subtracts the degree-d
    curve at step k whenever the restriction to it can have no sections:
    deg = t - k d lies in I_k = [d - 2, U_k], the intersection at most
    genus - 1, or in J_k = [0, min(d - 1, S_k)], deg < d with the r points
    exhausting all (deg+1)(deg+2)/2 conditions.  Here g = (d-1)(d-2)/2,
    U_k = floor((sums[k] + g - 1) / d) and S_k is the largest S >= -1 with
    (S+1)(S+2) <= 2 sums[k].  t is ruled out when the walk stops with
    deg < tops[k].  The bound has the closed form

        min over k >= 0 of k d + x_k,

    x_k the least integer >= tops[k] outside I_k and J_k.

    Proof.  A degree t not ruled out stops at some k with
    t - k d >= tops[k] outside I_k and J_k, so t >= k d + x_k.
    Conversely t = k d + x_k is not ruled out: its walk stops at some
    j <= k, since x_k lies outside I_k and J_k, and a lowering drops the
    top entry by at most 1 with d >= 1, so
    t - j d >= tops[k] + (k - j) d >= tops[j].  Every term is at least
    k d, so the walk ends once k d reaches the running minimum.
    """
    z = as_spec(z)
    _check_rd(r, len(z.positive), d)
    g = (d - 1) * (d - 2) // 2
    seq = _lowerings(z, r)
    low = _modified_x(seq, 0, d, g)
    k, kd = 1, d
    while kd < low:
        term = kd + _modified_x(seq, k, d, g)
        if term < low:
            low = term
        k, kd = k + 1, kd + d
    return BoundReport("modified-unloading", ALPHA_LOWER, low,
                       (("r", r), ("d", d)), (CHAR_ZERO,))


def modified_unloading_alpha_formula_a(n: int, m: int, r: int, d: int) -> BoundReport:
    """Closed form when 2n >= 2r >= n + d^2: alpha >= 1 + s + u d.

    u and rho split m n = u r + rho with 0 < rho <= r; s is the largest
    integer with (s+1)(s+2) <= 2 rho, capped at d - 1.
    """
    _check_uniform_rd(n, m, r, d)
    if not (2 * n >= 2 * r >= n + d * d):
        raise PreconditionError("closed form (a) needs 2n >= 2r >= n + d^2")
    u, rho = _u_rho(n, m, r)
    s = min(_tri_root(rho), d - 1)
    return BoundReport("modified-unloading-formula-a", ALPHA_LOWER, 1 + s + u * d,
                       (("r", r), ("d", d)), (CHAR_ZERO,))


def modified_unloading_alpha_formula_b(n: int, m: int, r: int, d: int) -> BoundReport:
    """Closed form when d(d+1)/2 <= r <= min(n, d^2).

    alpha >= 1 + min(floor((m r + g - 1) / d), s + u d) with
    g = (d-1)(d-2)/2 and u, rho, s as in form (a).
    """
    _check_uniform_rd(n, m, r, d)
    if not (d * (d + 1) // 2 <= r <= min(n, d * d)):
        raise PreconditionError("closed form (b) needs d(d+1)/2 <= r <= min(n, d^2)")
    g = (d - 1) * (d - 2) // 2
    u, rho = _u_rho(n, m, r)
    s = min(_tri_root(rho), d - 1)
    value = 1 + min((m * r + g - 1) // d, s + u * d)
    return BoundReport("modified-unloading-formula-b", ALPHA_LOWER, value,
                       (("r", r), ("d", d)), (CHAR_ZERO,))


# ---------------------------------------------------------------------------
# Semigroup membership and the square-root reference value


def _in_semigroup(t: int, mults) -> bool:
    d, m = reduce_fundamental_raw(t, mults)
    return d >= 0 and d >= m[0]


def semigroup_alpha_bound(z, alpha: int | None = None) -> BoundReport:
    """Least t whose class lies in the exceptional semigroup.

    Scans downward from the expected least nonzero degree, whose class is
    always a member, and returns one past the first failure.  A caller
    that already has that degree (``find_alpha(z)``) passes it as alpha.
    """
    z = as_spec(z)
    if not z.positive:
        raise PreconditionError("the empty subscheme is everywhere effective")
    t = find_alpha(z) if alpha is None else alpha
    while t >= 0 and _in_semigroup(t, z.mults):
        t -= 1
    return BoundReport("semigroup-membership", ALPHA_LOWER, t + 1)


def nagata_reference(n: int, m: int) -> BoundReport:
    """The conjectural reference line floor(m sqrt(n)) + 1 for n > 9 uniform.

    Not a proven bound; reported for comparison with the proven methods.
    """
    if n < 1 or m < 1:
        raise PreconditionError("need n >= 1 and m >= 1")
    value = isqrt(m * m * n) + 1
    return BoundReport("nagata-reference", ALPHA_LOWER, value,
                       (), ("conjectural reference, not a proven bound",))
