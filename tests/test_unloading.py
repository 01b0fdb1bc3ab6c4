"""The unloading procedures against a plain sort-and-clamp reference.

Every procedure runs over ``alpha_bounds._Runs``, which holds the
multiplicities as runs of equal values; those with a fixed r read its
lowering sequence ``alpha_bounds._Lowerings``, and plain and modified
unloading take closed forms over it.  The references below re-sort a
Python list on every step and scan the degrees upward instead, and share
no code with the library; both must agree on every input, including
zeros, uniform vectors with and without trailing zeros, and n <= 2.
The parameter search skips every pair whose proven cap cannot beat the
running best; the cap is checked against the bound, and the search
against a copy of itself without the cap.
"""

import random
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fatpoints import alpha_bounds as ab
from fatpoints import cli
from fatpoints import tau_bounds as tb
from fatpoints.lattice import FatPointSpec
from fatpoints.report import PreconditionError
from references import roe_tau_per_step


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
        state = ab._Runs(form)
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
    state, ref = ab._Runs(w), w
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
    state, ref = ab._Runs(w), w
    for _ in range(steps):
        before = sum(ref[:r + 1])
        ref = _lowered(ref, r)
        assert state.lower(r, 1) == (ref[0], before - sum(ref[:r + 1])), (w, r)


@settings(max_examples=150, deadline=None)
@given(_vectors, st.lists(st.integers(0, 40), max_size=8))
def test_lowering_sequence_matches_repeated_lowering(z, reads):
    # Reads out of order first, then every k <= 40 in order.
    v0 = sorted(z, reverse=True)
    w = FatPointSpec(z).positive
    for r in range(1, len(z) + 1):
        seq = ab._Lowerings(w, min(r, len(w)))
        expected, v = [], v0
        for _ in range(41):
            expected.append((v[0], sum(v[:r])))
            v = _lowered(v, r)
        for k in reads + list(range(41)):
            assert seq.at(k) == expected[k], (z, r, k)


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
    w = FatPointSpec(z).positive
    for r in range(1, len(z) + 1):
        value = _first_t(lambda t: _unloading_certifies_ref(t, v, r, d))
        got = ab._unloading_min(ab._Lowerings(w, min(r, len(w))), d, best)
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


def test_roe_tau_matches_the_per_step_sum_on_pool_sized_vectors():
    rng = random.Random(40)
    cases = [[m] * n for n, m in [(50, 7), (120, 3), (97, 13), (200, 15)]]
    cases += [[rng.randint(1, 11) for _ in range(rng.randint(10, 100))] for _ in range(60)]
    cases += [[step * (length - i) for i in range(length)]
              for length, step in ((9, 10), (9, 6), (10, 8), (10, 4), (11, 6), (12, 6),
                                   (12, 3), (14, 4))]
    for z in cases:
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
    seq = ab._Lowerings(w, r)
    assert seq.at(steps) == (0, 0), (w, r)
    if steps:
        assert seq.at(steps - 1)[0] > 0, (w, r)
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


def _search_before_cap(z):
    # The search without the cap: every r builds a lowering sequence and
    # every d with d^2 <= r walks it until it cannot beat the best.
    w = FatPointSpec(z).positive
    best, best_r, best_d = 0, 0, 0
    for r in range(1, len(w) + 1):
        seq = ab._Lowerings(w, r)
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

        def __init__(self, w):
            builds.append(len(w))
            super().__init__(w)

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

    def counted_lowerings(w, r):
        lowered.append(r)
        return lowerings(w, r)

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
        assert len(builds) == len(capped)


def test_one_bounds_query_builds_each_fixed_r_sequence_once(monkeypatch, capsys):
    # The fixed-r methods of one query keep their lowering sequences on
    # its spec and share them; the search reads a kept sequence and keeps
    # none of its own.
    built, kept_after_search = [], []
    build, search = ab._Lowerings.__init__, ab.best_unloading_search

    def counted_build(seq, w, r):
        built.append(r)
        build(seq, w, r)

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
