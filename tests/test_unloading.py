"""The unloading procedures against a plain sort-and-clamp reference.

Every procedure runs over ``alpha_bounds._Runs``, a copy of the spec's
runs of equal values (``FatPointSpec.runs``).  Those with a fixed r take
closed forms over the lowering sequence ``alpha_bounds._Lowerings`` of
the spec, in the three walks that live beside it in ``alpha_bounds``
(``_unloading_min``, ``_modified_min`` and ``_modified_max``, the last
for the tau bound); each seeds with its terms at k = 0 and at the step
E_r at which the sequence empties (``_Lowerings.empty``), and a
balanced sequence takes its steps
from the one closed form ``_balanced_top_sum``.  Both iterated
unloading bounds run on one stage routine, ``alpha_bounds._roe``.  The
references below re-sort a Python list on every step and scan the
degrees upward instead, and share no code with the library; both must
agree on every input, including zeros, uniform vectors with and without
trailing zeros, and n <= 2.
The parameter search skips every pair whose proven cap cannot beat the
running best; the cap is checked against the bound, and the search
against a copy of itself without the cap.
"""

import json
import random
from itertools import groupby
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fatpoints import alpha_bounds as ab
from fatpoints import cli
from fatpoints import tau_bounds as tb
from fatpoints.lattice import FatPointSpec
from fatpoints.report import PreconditionError
from references import (RunsLowerings, modified_alpha_walk, modified_tau_walk, roe_alpha_runs,
                        roe_tau_per_step, roe_tau_runs, unloading_alpha_formula)


def _lowered(v, r):
    # The r largest entries lowered by one, clamped at 0 and re-sorted.
    return sorted((max(x - 1, 0) if i < r else x for i, x in enumerate(v)),
                  reverse=True)


def _unloading_certifies_ref(t, v, r, d):
    deg = t
    while deg * d - sum(v[:r]) < 0 and deg >= v[0]:
        deg -= d
        v = _lowered(v, r)
    return deg < v[0]


def _no_sections_ref(deg, s, d, g):
    # The restriction to the degree-d curve has no sections: the
    # intersection is at most genus - 1, or deg < d and the r points
    # (s conditions) exhaust all (deg+1)(deg+2)/2 of them.
    if deg * d - s < g and deg >= d - 2:
        return True
    return 0 <= deg < d and (deg + 1) * (deg + 2) <= 2 * s


def _hr_certifies_ref(t, v, r, d, g):
    deg = t
    while _no_sections_ref(deg, sum(v[:r]), d, g):
        deg -= d
        v = _lowered(v, r)
    return deg < v[0]


def _hr_tau_succeeds_ref(t, v, r, d, g):
    deg = t
    while deg * d - sum(v[:r]) >= g - 1 and deg >= d - 2 and v[0] > 0:
        deg -= d
        v = _lowered(v, r)
    return v[0] == 0


def _roe_step(w, i):
    # E1 - ... - E(i+1) subtracted: the top rises, the next i drop.
    w = [w[0] + 1] + [x - 1 if k <= i else x for k, x in enumerate(w) if k]
    return sorted((max(x, 0) for x in w), reverse=True)


def _roe_alpha_ref(z):
    w = list(z) + [0, 0, 0] if len(z) < 3 else list(z)
    w = sorted(w, reverse=True)
    for i in range(2, len(w)):
        while w[0] - sum(w[1:i + 1]) < 0:
            w = _roe_step(w, i)
    return w[0]


def _roe_tau_ref(z):
    w = sorted(z, reverse=True)
    for i in range(1, len(w) - 1):
        while w[0] - sum(w[1:i + 2]) < -1:
            w = _roe_step(w, i)
    return max(w[0] + w[1] - 1, 0)


def _capped_s_ref(rho, cap):
    # Largest s >= 0 with (s+1)(s+2) <= 2*rho, capped; rho >= 1 makes s=0 valid.
    s = 0
    while (s + 2) * (s + 3) <= 2 * rho and s < cap:
        s += 1
    return min(s, cap)


def _first_t(holds):
    t = 0
    while holds(t):
        t += 1
    return t


_mixed = st.lists(st.integers(0, 12), min_size=1, max_size=12)
_uniform = st.builds(lambda n, m, zeros: [m] * n + [0] * zeros,
                     st.integers(1, 12), st.integers(1, 12), st.integers(0, 3))
_zeros = st.builds(lambda n: [0] * n, st.integers(1, 5))
_short = st.lists(st.integers(0, 30), min_size=1, max_size=2)
_vectors = st.one_of(_mixed, _uniform, _zeros, _short).flatmap(st.permutations)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_mixed, _uniform),
       st.lists(st.integers(0, 13), min_size=1, max_size=40))
def test_state_matches_sort_and_clamp(mults, steps):
    w = sorted(mults, reverse=True)
    for form in (w, w + [0]):
        state = ab._Runs(*FatPointSpec(form).runs)
        ref = form
        for r in steps:
            r = min(r, len(form))
            before = sum(ref[:r])
            ref = _lowered(ref, r)
            assert state.lower(r) == (ref[0], before - sum(ref[:r])), (form, steps)
            for k in range(len(ref) + 1):
                assert state.top_sum(k) == sum(ref[:k]), (form, steps, k)


@st.composite
def _tied_runs_and_r(draw):
    # A few runs of equal values, 1s among them, some zeros past them, and
    # an r that splits a run, ends one, or reaches the positive count or
    # past it.
    values = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4, unique=True))
    counts = draw(st.lists(st.integers(1, 5), min_size=len(values), max_size=len(values)))
    w = [v for v, c in sorted(zip(values, counts), reverse=True) for _ in range(c)]
    positive = len(w)
    w += [0] * draw(st.integers(0, 2))
    ends = [sum(counts[:i + 1]) for i in range(len(counts))]
    r = draw(st.one_of(st.integers(1, positive), st.sampled_from(ends),
                       st.integers(positive, positive + 3)))
    return w, r


@settings(max_examples=300, deadline=None)
@given(_tied_runs_and_r(), st.integers(1, 6))
@example(([3, 3, 3, 2], 2), 1)  # a tie across the boundary: one stays at 3
@example(([1, 1, 1], 2), 1)  # the lowered 1s become 0, one 1 stays
@example(([2, 1, 0], 3), 2)  # r past the positive count
def test_lower_returns_the_drop_of_the_top_sum(case, steps):
    w, r = case
    state, ref = ab._Runs(*FatPointSpec(w).runs), w
    for _ in range(steps):
        before = sum(ref[:r])
        ref = _lowered(ref, r)
        assert state.lower(r) == (ref[0], before - sum(ref[:r])), (w, r)


@settings(max_examples=300, deadline=None)
@given(_tied_runs_and_r(), st.integers(1, 6))
@example(([3, 3, 3, 2], 2), 1)  # inside 2, outside 1: top_sum(3) drops by 3 - 1
@example(([3, 3, 2, 2], 2), 1)  # the first r end a run
@example(([2, 1, 0], 3), 2)  # r past the positive count
def test_lower_returns_the_drop_of_the_next_top_sum(case, steps):
    w, r = case
    state, ref = ab._Runs(*FatPointSpec(w).runs), w
    for _ in range(steps):
        before = sum(ref[:r + 1])
        ref = _lowered(ref, r)
        assert state.lower(r, 1) == (ref[0], before - sum(ref[:r + 1])), (w, r)


def _lowerings(z, r):
    # The lowering sequence of z for r; an r past the positive count
    # lowers every positive entry, as r = that count does.
    z = FatPointSpec(z)
    return ab._Lowerings(z, min(r, len(z.positive)))


def _step(seq, k):
    # Step k of a lowering sequence: over its runs when it is mixed, from
    # the closed form when it is balanced (it has no runs to step).
    if seq.total is None:
        return seq.at(k)
    return ab._balanced_top_sum(seq.total - k * seq.r, seq.n, seq.r)


@settings(max_examples=150, deadline=None)
@given(_vectors, st.lists(st.integers(0, 40), max_size=8))
def test_lowering_sequence_matches_repeated_lowering(z, reads):
    # Reads out of order first, then every k <= 40 in order.
    v0 = sorted(z, reverse=True)
    for r in range(1, len(z) + 1):
        seq = _lowerings(z, r)
        expected, v = [], v0
        for _ in range(41):
            expected.append((v[0], sum(v[:r])))
            v = _lowered(v, r)
        for k in reads + list(range(41)):
            assert _step(seq, k) == expected[k], (z, r, k)


def _r_ranges(z):
    # The r a fixed-r procedure accepts, 1 up to the positive count, and
    # the r past it up to len(z), which it rejects: zeros are no points.
    positive = sum(1 for x in z if x)
    return range(1, positive + 1), range(positive + 1, len(z) + 1)


def _rejects_past_the_positive_count(procedure, z, d):
    for r in _r_ranges(z)[1]:
        with pytest.raises(PreconditionError):
            procedure(z, r, d)


@settings(max_examples=150, deadline=None)
@given(_vectors, st.integers(1, 4))
def test_unloading_matches_reference(z, d):
    v = sorted(z, reverse=True)
    for r in _r_ranges(z)[0]:
        value = _first_t(lambda t: _unloading_certifies_ref(t, v, r, d))
        assert ab.unloading_alpha(z, r, d).value == value, (z, r, d)
    _rejects_past_the_positive_count(ab.unloading_alpha, z, d)


@settings(max_examples=150, deadline=None)
@given(_vectors, st.integers(1, 4), st.integers(0, 40))
def test_early_stopped_minimum_decides_against_best(z, d, best):
    # Exact when the bound beats best, and at most best otherwise.
    v = sorted(z, reverse=True)
    for r in range(1, len(z) + 1):
        value = _first_t(lambda t: _unloading_certifies_ref(t, v, r, d))
        got = ab._unloading_min(_lowerings(z, r), d, best)
        if value > best:
            assert got == value, (z, r, d, best)
        else:
            assert got <= best, (z, r, d, best)


@settings(max_examples=150, deadline=None)
@given(_vectors, st.integers(1, 8))
def test_modified_unloading_alpha_matches_reference(z, d):
    v = sorted(z, reverse=True)
    g = (d - 1) * (d - 2) // 2
    for r in _r_ranges(z)[0]:
        value = _first_t(lambda t: _hr_certifies_ref(t, v, r, d, g))
        assert ab.modified_unloading_alpha(z, r, d).value == value, (z, r, d)
    _rejects_past_the_positive_count(ab.modified_unloading_alpha, z, d)


@settings(max_examples=150, deadline=None)
@given(_vectors, st.integers(1, 8))
def test_modified_unloading_tau_matches_reference(z, d):
    v = sorted(z, reverse=True)
    g = (d - 1) * (d - 2) // 2
    for r in _r_ranges(z)[0]:
        value = _first_t(lambda t: not _hr_tau_succeeds_ref(t, v, r, d, g))
        assert tb.modified_unloading_tau(z, r, d).value == value, (z, r, d)
    _rejects_past_the_positive_count(tb.modified_unloading_tau, z, d)


_tops_over_balanced = st.builds(lambda top, ups, downs, m: [top] + [m + 1] * ups + [m] * downs,
                                st.integers(1, 40), st.integers(0, 8), st.integers(0, 8),
                                st.integers(0, 12))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_vectors, _tops_over_balanced))
def test_balanced_total_holds_exactly_when_entries_differ_by_at_most_one(z):
    # On the whole vector and on the rest past its top entry, grouped
    # into runs here.
    w = FatPointSpec(z).positive
    for v in (w, w[1:]):
        runs = [(x, len(list(g))) for x, g in groupby(v)]
        expected = sum(v) if v and v[0] - v[-1] <= 1 else None
        assert ab._balanced_total([x for x, _ in runs], [c for _, c in runs]) == expected, v


def test_tri_root_matches_capped_loop():
    for s in range(3000):
        root = ab._tri_root(s)
        assert root >= -1, s
        assert (root + 1) * (root + 2) <= 2 * s < (root + 2) * (root + 3), s
        if s:
            for cap in range(80):
                assert min(root, cap) == _capped_s_ref(s, cap), (s, cap)


@settings(max_examples=200, deadline=None)
@given(_vectors)
def test_roe_alpha_matches_reference(z):
    assert ab.roe_alpha(z).value == _roe_alpha_ref(z), z


@settings(max_examples=200, deadline=None)
@given(_vectors)
def test_roe_tau_matches_reference(z):
    if len(z) >= 2:
        assert tb.roe_tau(z).value == _roe_tau_ref(z), z


@settings(max_examples=200, deadline=None)
@given(_vectors)
def test_roe_tau_matches_the_per_step_sum(z):
    if len(z) >= 2:
        assert tb.roe_tau(z).value == roe_tau_per_step(z), z


def test_roe_matches_the_references_on_pool_sized_vectors():
    # roe_alpha against the sort-and-clamp reference, roe_tau against the
    # per-step sum: both run on one stage loop.
    rng = random.Random(40)
    cases = [[m] * n for n, m in [(50, 7), (120, 3), (97, 13), (200, 15)]]
    cases += [[rng.randint(1, 11) for _ in range(rng.randint(10, 100))] for _ in range(60)]
    cases += [[step * (length - i) for i in range(length)]
              for length, step in ((9, 10), (9, 6), (10, 8), (10, 4), (11, 6), (12, 6),
                                   (12, 3), (14, 4))]
    for z in cases:
        assert ab.roe_alpha(z).value == _roe_alpha_ref(z), z
        assert tb.roe_tau(z).value == roe_tau_per_step(z), z


def test_roe_matches_reference_on_large_uniform():
    # Long enough for the counters to wrap many times.
    for n, m in [(50, 7), (120, 3), (97, 13)]:
        z = [m] * n
        assert ab.roe_alpha(z).value == _roe_alpha_ref(z), (n, m)
        assert tb.roe_tau(z).value == _roe_tau_ref(z), (n, m)


def test_fixed_r_procedures_match_reference_on_large_uniform():
    for n, m in [(50, 7), (120, 3), (97, 13)]:
        z = [m] * n
        for r in (n // 3, n // 2 + 5, n - 1, n):
            for d in (1, 2, 5):
                g = (d - 1) * (d - 2) // 2
                assert ab.unloading_alpha(z, r, d).value \
                    == _first_t(lambda t: _unloading_certifies_ref(t, z, r, d)), (n, m, r, d)
                assert ab.modified_unloading_alpha(z, r, d).value \
                    == _first_t(lambda t: _hr_certifies_ref(t, z, r, d, g)), (n, m, r, d)
                assert tb.modified_unloading_tau(z, r, d).value \
                    == _first_t(lambda t: not _hr_tau_succeeds_ref(t, z, r, d, g)), \
                    (n, m, r, d)


def _cap(w, r, d):
    # Proven cap on the unloading bound of (r, d), w sorted nonincreasing:
    # the closed form's terms at k = 0 and at the step that empties w.
    steps = max(w[0], -(-sum(w) // r))
    return min(max(w[0], -(-sum(w[:r]) // d)), d * steps)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_mixed, _uniform, _zeros, _short), st.data())
def test_lowering_empties_after_the_lemma_count_and_caps_bound_each_pair(z, data):
    w = sorted(z, reverse=True)
    r = data.draw(st.one_of(st.just(len(w)), st.integers(1, len(w))))
    steps = max(w[0], -(-sum(w) // r))
    seq = _lowerings(w, r)
    assert seq.empty == steps, (w, r)
    assert _step(seq, steps) == (0, 0), (w, r)
    if steps:
        assert _step(seq, steps - 1)[0] > 0, (w, r)
    for d in range(1, isqrt(r) + 1):
        # The closed form of the pair: w may hold zeros, which
        # unloading_alpha rejects past the positive count.
        assert ab._unloading_min(seq, d) <= _cap(w, r, d), (w, r, d)
    # The d with cap > best form the interval the search computes.
    for best in range(1, 3 * steps + 2):
        top = isqrt(r)
        if w[0] <= best:
            top = min(top, (sum(w[:r]) - 1) // best)
        beating = [d for d in range(1, isqrt(r) + 1) if _cap(w, r, d) > best]
        assert beating == list(range(best // max(steps, 1) + 1, top + 1)), (w, r, best)


def test_the_emptying_step_seeds_the_walks_on_mixed_input():
    # (3, 3, 1, 1) with r = 3 empties at E = 3, and at d = 1 the term
    # E d = 3 is below every earlier one (7, 6 and 4): the seed is the
    # value of both alpha walks.
    z = (3, 3, 1, 1)
    seq = _lowerings(z, 3)
    assert seq.total is None and seq.empty == 3
    assert [seq.at(k) for k in range(4)] == [(3, 7), (2, 5), (1, 2), (0, 0)]
    assert ab.unloading_alpha(z, 3, 1).value == 3
    assert ab.modified_unloading_alpha(z, 3, 1).value == modified_alpha_walk(z, 3, 1) == 3
    assert tb.modified_unloading_tau(z, 3, 1).value == modified_tau_walk(z, 3, 1)


def _search_before_cap(z):
    # The search without the cap: every r builds a lowering sequence and
    # every d with d^2 <= r walks it until it cannot beat the best.
    spec = FatPointSpec(z)
    w = spec.positive
    best, best_r, best_d = 0, 0, 0
    for r in range(1, len(w) + 1):
        seq = ab._Lowerings(spec, r)
        d = 1
        while d * d <= r:
            if ab._unloading_min(seq, d, best) > best:
                best, best_r, best_d = ab.unloading_alpha(w, r, d).value, r, d
            d += 1
    return best, (("r", best_r), ("d", best_d))


def test_capped_search_matches_the_search_before_the_cap():
    rng = random.Random(20260)
    for i in range(6000):
        n = rng.randint(1, 32)
        top = rng.choice((1, 2, 4, 11, 30))
        z = [rng.randint(0, top) for _ in range(n)]
        if i % 5 == 0:
            z = [top] * n + z[:i % 4]
        if any(z):
            got = ab.best_unloading_search(z)
            assert (got.value, got.params) == _search_before_cap(z), z


def test_one_state_build_per_call(monkeypatch):
    builds = []

    class Counted(ab._Runs):
        __slots__ = ()

        def __init__(self, values, counts):
            builds.append(sum(counts))
            super().__init__(values, counts)

    monkeypatch.setattr(ab, "_Runs", Counted)
    z = [9] * 20 + [4] * 15 + [0] * 3
    for procedure in (ab.unloading_alpha, ab.modified_unloading_alpha,
                      tb.modified_unloading_tau):
        builds.clear()
        assert procedure(z, 12, 3).value > 9  # the walks read many steps
        assert len(builds) == 1, procedure.__name__

    # The search builds one state for each seed r, the r of the family
    # (a) and (b) pairs with d^2 <= r, then one for each other r where
    # some d <= isqrt(r) has a cap above the running best, which starts
    # one below the best seed value; unloading_alpha reads the reported
    # pair's state from the search.
    lowered, scans = [], []
    lowerings, unloading_alpha = ab._Lowerings, ab.unloading_alpha

    def counted_lowerings(z, r):
        lowered.append(r)
        return lowerings(z, r)

    monkeypatch.setattr(ab, "_Lowerings", counted_lowerings)
    monkeypatch.setattr(ab, "unloading_alpha",
                        lambda *args: scans.append(args[1:]) or unloading_alpha(*args))
    for mults in (z, [7] * 40 + [0]):
        w = FatPointSpec(mults).positive
        seeds = [(r, d) for r, d in (ab.best_rd_a(len(w)), ab.best_rd_b(len(w)))
                 if d * d <= r]
        best = max(unloading_alpha(w, r, d).value for r, d in seeds) - 1
        capped = list(dict.fromkeys(r for r, _ in seeds))
        for r in range(1, len(w) + 1):
            if r not in capped and any(_cap(w, r, d) > best for d in range(1, isqrt(r) + 1)):
                capped.append(r)
            best = max([best] + [unloading_alpha(w, r, d).value
                                 for d in range(1, isqrt(r) + 1)])
        assert 0 < len(capped) < len(w)
        lowered.clear()
        scans.clear()
        builds.clear()
        rep = ab.best_unloading_search(mults)
        assert rep.value == best
        assert scans == [(rep.params[0][1], rep.params[1][1])]
        assert lowered == capped
        # A uniform vector's sequences are closed forms with no state.
        assert len(builds) == (0 if len(set(w)) == 1 else len(capped))


def test_one_bounds_query_builds_each_fixed_r_sequence_once(monkeypatch, capsys):
    # The fixed-r methods of one query keep their lowering sequences on
    # its spec and share them; the search reads a kept sequence and keeps
    # none of its own.
    built, kept_after_search = [], []
    build, search = ab._Lowerings.__init__, ab.best_unloading_search

    def counted_build(seq, z, r):
        built.append(r)
        build(seq, z, r)

    def watched_search(z):
        rep = search(z)
        kept_after_search.append((rep, set(z.lowerings)))
        return rep

    monkeypatch.setattr(ab._Lowerings, "__init__", counted_build)
    monkeypatch.setattr(ab, "best_unloading_search", watched_search)
    rng = random.Random(17)
    mults = [rng.randint(1, 11) for _ in range(60)] + [0, 0]
    assert cli.main(["bounds", "--mults", ",".join(map(str, mults)), "--json"]) == 0
    capsys.readouterr()
    n = sum(1 for x in mults if x)
    (ra, _), (rb, _) = ab.best_rd_a(n), ab.best_rd_b(n)
    assert built.count(ra) == 1 and built.count(rb) == 1, (ra, rb, built)
    [(rep, kept)] = kept_after_search
    # The reported pair is recomputed by unloading_alpha, which keeps the
    # sequence of its r, handed over by the search.
    best_r = rep.params[0][1]
    assert built.count(best_r) == 1, (best_r, built)
    assert kept == {ra, rb, best_r}, (kept, ra, rb, best_r)
    assert set(built) - kept, "the search visited no r of its own"


def _balanced(rng, n, m):
    # A sorted vector of n entries m and m - 1, with zeros when m = 1.
    top = rng.randint(0, n)
    return [m] * top + [m - 1] * (n - top)


def test_balanced_closed_form_matches_the_runs_at_every_step():
    rng = random.Random(2024)
    for i in range(400):
        n, m = rng.randint(1, 2000), rng.randint(0, 20)
        w = [m] * n if i % 2 else _balanced(rng, n, max(m, 1))
        r = rng.randint(1, n)
        seq, ref = _lowerings(w, r), RunsLowerings(w, r)
        # Zero points are not balanced: they have no runs.
        assert seq.total == (sum(w) or None), (n, m, r)
        steps = max(w[0], -(-sum(w) // r))
        for k in range(steps + 2):
            assert _step(seq, k) == ref.at(k), (n, m, r, k)


def _full_min(seq, d):
    # The closed form of unloading_alpha over every step up to the one
    # that empties the sequence.
    k = 0
    while seq.at(k)[0] > 0:
        k += 1
    return min(j * d + max(seq.tops[j], -(-seq.sums[j] // d)) for j in range(k + 1))


def test_windowed_min_matches_the_full_walk_on_uniform_vectors():
    # Every r and d^2 <= r of every uniform (n, m) with n <= 40; past that
    # a seeded sample of (n, r), since the full walk over the runs costs
    # about m n^1.5 steps per (n, m).  Each pair is also checked with a
    # best just below and at its value, where the walk may stop early.
    rng = random.Random(300)
    grid = [(n, range(1, n + 1)) for n in range(1, 41)]
    grid += [(n, rng.sample(range(1, n + 1), 25)) for n in rng.sample(range(41, 301), 4)]
    for n, rs in grid:
        for m in range(16):
            w = [m] * n
            for r in rs:
                seq, ref = _lowerings(w, r), RunsLowerings(w, r)
                for d in range(1, isqrt(r) + 1):
                    value = _full_min(ref, d)
                    assert ab._unloading_min(seq, d) == value, (n, m, r, d)
                    assert ab._unloading_min(seq, d, value - 1) == value, (n, m, r, d)
                    assert ab._unloading_min(seq, d, value) <= value, (n, m, r, d)
                    if m and 2 * r >= n + d * d:
                        assert unloading_alpha_formula(n, m, r, d).value == value, (n, m, r, d)


def test_windowed_min_matches_the_full_walk_on_balanced_vectors():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 200)
        w = _balanced(rng, n, rng.randint(1, 12))
        r = rng.randint(1, n)
        seq, ref = _lowerings(w, r), RunsLowerings(w, r)
        for d in range(1, isqrt(r) + 1):
            assert ab._unloading_min(seq, d) == _full_min(ref, d), (w, r, d)


def test_uniform_unloading_lowers_no_runs(monkeypatch):
    lowered = []
    lower = ab._Runs.lower
    monkeypatch.setattr(ab._Runs, "lower", lambda *args: lowered.append(args[1:]) or lower(*args))
    for mults in ([13] * 2000, [7] * 40 + [0], [1] * 9, [3] * 30 + [2] * 12):
        rep = ab.best_unloading_search(mults)
        r, d = (v for _, v in rep.params)
        assert ab.unloading_alpha(mults, r, d).value == rep.value
        assert ab.unloading_alpha(mults, r // 2 + 1, 1).value > 0
    assert lowered == []
    # A mixed vector still lowers its runs.
    ab.unloading_alpha([5, 4, 4, 1], 2, 1)
    assert lowered


# The iterated unloading stages of a balanced rest and both modified
# unloading bounds of a balanced sequence are taken in closed form; here
# they meet the walks they replace, every stage or step one pass of the
# runs (``tests/references.py``).


def test_roe_alpha_matches_the_runs_on_every_uniform_scheme_to_300_points():
    for n in range(1, 301):
        for m in range(1, 16):
            z = FatPointSpec([m] * n)
            assert ab.roe_alpha(z).value == roe_alpha_runs(z), (n, m)


def test_roe_tau_matches_the_runs_on_every_uniform_scheme_to_300_points():
    for n in range(2, 301):
        for m in range(1, 16):
            z = FatPointSpec([m] * n)
            assert tb.roe_tau(z).value == roe_tau_runs(z), (n, m)


def _slope_zero_rds():
    # (n, r, d) with n d^2 = r^2, where both windows' lines are flat.
    return [(4, 2, 1), (4, 4, 2), (9, 6, 2), (9, 9, 3), (16, 4, 1), (25, 10, 2),
            (36, 12, 2), (49, 21, 3), (100, 30, 3), (100, 100, 10)]


def test_modified_unloading_matches_the_walks_on_a_uniform_grid():
    rng = random.Random(77)
    grid = [(n, m, r) for n in (1, 2, 3, 5, 8, 10, 17, 40, 64, 99, 120)
            for m in (1, 2, 5, 13) for r in {1, 2, n // 2 + 1, n - 1, n, rng.randint(1, n)}
            if 1 <= r <= n]
    grid += [(n, m, r) for n, r, _ in _slope_zero_rds() for m in (1, 3, 8)]
    for n, m, r in grid:
        z = FatPointSpec([m] * n)
        for d in range(1, isqrt(n) + 4):
            assert ab.modified_unloading_alpha(z, r, d).value \
                == modified_alpha_walk(z, r, d), (n, m, r, d)
            assert tb.modified_unloading_tau(z, r, d).value \
                == modified_tau_walk(z, r, d), (n, m, r, d)


def _top_over_balanced(rng):
    # An arbitrary top over a balanced rest (values m and m - 1), padded
    # with zeros and shuffled.
    n, m = rng.randint(0, 80), rng.randint(1, 14)
    ups = rng.randint(0, n)
    z = [rng.randint(1, 40)] + [m] * ups + [m - 1] * (n - ups) + [0] * rng.randint(0, 3)
    rng.shuffle(z)
    return z


def test_roe_and_modified_unloading_match_the_runs_on_a_top_over_a_balanced_rest():
    rng = random.Random(2025)
    for _ in range(1500):
        z = _top_over_balanced(rng)
        assert ab.roe_alpha(z).value == roe_alpha_runs(z), z
        if len(z) >= 2:
            assert tb.roe_tau(z).value == roe_tau_runs(z), z
        positive = sum(1 for x in z if x)
        r, d = rng.randint(1, positive), rng.randint(1, 12)
        assert ab.modified_unloading_alpha(z, r, d).value == modified_alpha_walk(z, r, d), z
        assert tb.modified_unloading_tau(z, r, d).value == modified_tau_walk(z, r, d), z


def test_balanced_closed_forms_at_the_edges(capsys):
    # At most two positive entries: the rest is one entry or none.  Then
    # a first run of one entry and of more, over a balanced rest and over
    # a mixed one: the rest is the spec's runs less one entry of the first.
    for z in [(0,), (7,), (5, 0), (5, 3), (3, 3), (4, 5), (0, 0, 7), (1, 1), (9, 0, 2),
              (9, 4, 4, 3), (4, 9, 0, 4, 3), (5, 5, 4), (0, 5, 4, 5), (7, 7, 7, 6, 6, 0),
              (9, 5, 2), (2, 0, 9, 5, 5), (6, 6, 2, 6, 1), (8, 8, 3, 0, 3, 1, 8)]:
        assert ab.roe_alpha(z).value == roe_alpha_runs(z), z
        if len(z) >= 2:
            assert tb.roe_tau(z).value == roe_tau_runs(z), z
        for r in _r_ranges(z)[0]:
            for d in range(1, 5):
                assert ab.modified_unloading_alpha(z, r, d).value \
                    == modified_alpha_walk(z, r, d), (z, r, d)
                assert tb.modified_unloading_tau(z, r, d).value \
                    == modified_tau_walk(z, r, d), (z, r, d)
    assert cli.main(["bounds", "--mults", "5,0,0", "--json"]) == 0
    found = {(d["direction"], d["method"]): d["value"]
             for d in json.loads(capsys.readouterr().out)}
    assert found["alpha-lower", "roe-unloading"] == roe_alpha_runs((5, 0, 0)) == 5
    # The suite asks roe_tau only of two positive entries or more.
    assert ("tau-upper", "roe-unloading") not in found
    assert tb.roe_tau((5, 0, 0)).value == roe_tau_runs((5, 0, 0)) == 4
    # m = 1: the rest of ten simple points empties at stage 4 of 9, and
    # the stages after it are never visited.
    assert ab._roe_balanced(1, 9, 9, 0) == (4, 0)
    for n in range(2, 60):
        assert ab.roe_alpha([1] * n).value == roe_alpha_runs([1] * n), n
        assert tb.roe_tau([1] * n).value == roe_tau_runs([1] * n), n
    # r = n, d <= 2 (every step has tops[k] >= d - 2), n d^2 = r^2, and
    # minima at a step with tops[k] < d - 2, which the line does not bound.
    cases = [(n, n, d) for n in (1, 6, 30, 121) for d in (1, 2, 3, 11)]
    cases += [(n, r, d) for n in (7, 50) for r in (1, n // 3, n) for d in (1, 2)]
    cases += _slope_zero_rds() + [(26, 25, 5), (27, 26, 5)]
    for n, r, d in cases:
        for m in (1, 2, 13):
            z = FatPointSpec([m] * n)
            assert ab.modified_unloading_alpha(z, r, d).value \
                == modified_alpha_walk(z, r, d), (n, m, r, d)
            assert tb.modified_unloading_tau(z, r, d).value \
                == modified_tau_walk(z, r, d), (n, m, r, d)


def test_balanced_input_lowers_no_runs_and_reads_only_the_first_step(monkeypatch):
    # On a balanced rest the iterated unloading builds no runs; on a
    # balanced sequence both modified unloading bounds read its first
    # step from the lists and take the windowed steps from the closed
    # form, so the lists never grow.
    built = []

    class Counted(ab._Runs):
        __slots__ = ()

        def __init__(self, values, counts):
            built.append(sum(counts))
            super().__init__(values, counts)

    monkeypatch.setattr(ab, "_Runs", Counted)
    for mults in ([13] * 2000, [40] + [3] * 30 + [2] * 12, [1, 1], [9, 2]):
        ab.roe_alpha(mults)
        tb.roe_tau(mults + [0])
    for mults in ([13] * 2000, [7] * 40 + [0], [3] * 30 + [2] * 12):
        z = FatPointSpec(mults)
        n = len(z.positive)
        for r, d in (ab.best_rd_a(n), ab.best_rd_b(n), (1, 1), (n, 2)):
            ab.modified_unloading_alpha(z, r, d)
            tb.modified_unloading_tau(z, r, d)
            assert len(z.lowerings[r].tops) == 1, (mults, r, d)
    assert built == []
    # A mixed rest still steps its runs.
    ab.roe_alpha([5, 4, 4, 1])
    assert built == [3]
