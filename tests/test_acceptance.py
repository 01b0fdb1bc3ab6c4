"""Acceptance gate: every criterion at its stated tolerance (exact unless
noted).  Each test prints one PASS line; any failure fails the suite.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
import time

import pytest

from fatpoints import alpha_bounds as ab
from fatpoints import cli
from fatpoints import tau_bounds as tb
from fatpoints.hilbert import expected_dim, find_alpha, find_tau, hilbert_table
from fatpoints.lattice import (DivisorClass, FatPointSpec, apply_inverse,
                               cremona_quad, decompose, intersection,
                               is_exceptional, reduce_fundamental)
from fatpoints.oracle import PointConfig, oracle_table
from fatpoints.report import PreconditionError
from fatpoints.resolution import (betti_table, classical_nu_bounds,
                                  ker_mu_dim, quasi_uniform_resolution)
from references import uniform_alpha_closed_form, unloading_alpha_formula

Z90 = (90, 80, 70, 60, 50, 40, 40, 40, 30, 20, 10)


def _ok(name):
    print(f"PASS {name}")


# ---------------------------------------------------------------------------
# 1. Paper-pinned golden values (exact match, zero tolerance)


def test_golden_mixed_scheme():
    assert ab.semigroup_alpha_bound(Z90).value == 179
    assert ab.roe_alpha(Z90).value == 162
    assert ab.best_variant_d_search(Z90).value == 173
    _ok("golden: mixed 11-point scheme (semigroup 179, iterated 162, family-d 173)")


def test_golden_22_points():
    u = [3] * 22
    assert ab.nef_variant_bound(u, "a", 19, 4).value == 14
    assert ab.nef_variant_bound(u, "b", 14, 3).value == 14
    assert ab.unloading_alpha(u, 19, 4).value == 15
    assert ab.best_rd_a(22) == (19, 4)
    assert ab.best_rd_b(22) == (14, 3)
    _ok("golden: 22 triple points (nef 14/14, unloading 15, best r,d)")


def test_golden_large_uniform_runtimes():
    for n, m, r, d, roe, hr, alpha, nag in [
        (1000, 13, 981, 31, 421, 424, 426, 412),
        (9000, 13, 8918, 94, 1274, 1267, 1279, 1234),
    ]:
        z = [m] * n
        start = time.monotonic()
        assert ab.roe_alpha(z).value == roe
        assert ab.modified_unloading_alpha(z, r, d).value == hr
        assert find_alpha(z) == alpha
        assert ab.nagata_reference(n, m).value == nag
        elapsed = time.monotonic() - start
        assert elapsed < 60, f"n={n} took {elapsed:.1f}s"
    _ok("golden: uniform n=1000/9000 (roe, modified unloading, alpha, reference)")


def _bounds_json(args):
    out = io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(out):
        code = cli.main(["bounds", *args, "--json"])
    assert code == 0
    return out.getvalue(), time.monotonic() - start


def test_golden_bounds_suite_uniform_1000_runtime():
    out, elapsed = _bounds_json(["--uniform", "1000:13"])
    assert elapsed < 10, f"bounds --uniform 1000:13 took {elapsed:.1f}s"
    found = {doc["method"]: (doc["value"], doc["params"]) for doc in json.loads(out)}
    assert found["nef-d"] == (412, {"r": 253, "d": 8, "j": 64})
    assert found["best-unloading"] == (415, {"r": 510, "d": 16})
    # The whole document, byte for byte: every method's value and parameters.
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "2be1720a14734732961370e71a6befdd5b4a39c2fb874d74497165c801b0afe5"
    _ok(f"golden: bounds --uniform 1000:13 in {elapsed:.2f}s (nef-d 412, unloading 415)")


def test_golden_bounds_suite_mixed_200_bytes():
    rng = random.Random(2024)
    mults = ",".join(str(rng.randint(1, 11)) for _ in range(200))
    out, elapsed = _bounds_json(["--mults", mults])
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "5d015628119e191019041f50688d699e06acf08b37707ea0fa153435493a5d86"
    _ok(f"golden: bounds on a seeded mixed n=200 vector in {elapsed:.2f}s")


def test_golden_bounds_suite_uniform_9000_bytes_and_unloading_runtime():
    out, elapsed = _bounds_json(["--uniform", "9000:13"])
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "89c5049718451392d486f928c6899edbf513b616b6d7406384f4ab97458b2f7d"
    # The cap skips every r that cannot beat the running best; walking
    # every r took about 2 s (one CPU, Python 3.11.7).
    start = time.monotonic()
    rep = ab.best_unloading_search([13] * 9000)
    search = time.monotonic() - start
    assert (rep.value, rep.params) == (1245, (("r", 4594), ("d", 48)))
    assert search < 0.6, f"best_unloading_search([13]*9000) took {search:.2f}s"
    _ok(f"golden: bounds --uniform 9000:13 in {elapsed:.2f}s "
        f"(unloading search {search:.3f}s)")


def test_golden_bounds_fixed_r1_d1_bytes_and_modified_tau_runtime():
    # r = 1, d = 1 lowers one point at a time: the modified unloading
    # tau bound is a maximum over about 5200 steps, of which its window
    # evaluates only the last.
    out, _ = _bounds_json(["--uniform", "400:13", "--r", "1", "--d", "1"])
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "57847b319448a7d613be40cacab95e74c3205dbea04cb6a7b12a58c1aedbebff"
    start = time.monotonic()
    assert tb.modified_unloading_tau([13] * 400, 1, 1).value == 5199
    elapsed = time.monotonic() - start
    assert elapsed < 0.5, f"modified_unloading_tau([13]*400, 1, 1) took {elapsed:.2f}s"
    _ok(f"golden: bounds --uniform 400:13 --r 1 --d 1 (modified tau in {elapsed:.3f}s)")


def test_golden_iterated_unloading_runtime_at_100000_points():
    # The rest of a uniform scheme stays balanced, so the stages are
    # closed forms and only the 504 that sweep are visited: about 2-4 ms
    # each, where stepping all 99,998 stages over the runs took about
    # 35-60 ms (one CPU, Python 3.11.7).
    z = FatPointSpec([13] * 100000)
    assert z.positive
    for method, value in ((ab.roe_alpha, 4260), (tb.roe_tau, 4270)):
        start = time.monotonic()
        assert method(z).value == value
        elapsed = time.monotonic() - start
        assert elapsed < 0.025, f"{method.__name__}([13]*100000) took {elapsed:.3f}s"
    _ok("golden: iterated unloading at 100000 points of multiplicity 13 (4260, 4270)")


def test_golden_square_counts():
    for m in range(1, 11):
        assert find_alpha([m] * 16) == 4 * m + 1
        assert find_tau([m] * 16) == 4 * m + 1
        assert find_alpha([m] * 25) == 5 * m + 1
    _ok("golden: square families n=16 (alpha=tau=4m+1) and n=25 (alpha=5m+1)")


def test_golden_uniform_closed_form_exhaustive():
    for n in range(1, 10):
        for m in range(0, 51):
            assert uniform_alpha_closed_form(n, m) == find_alpha([m] * n), (n, m)
    _ok("golden: closed-form alpha slopes match search, n <= 9, m <= 50")


def test_golden_five_triple_points():
    assert {t: nu for t, _, nu, _ in betti_table((3, 3, 3, 3, 3)).rows}[8] == 2
    assert (8, 1, 3) in classical_nu_bounds((3, 3, 3, 3, 3)).per_degree
    _ok("golden: five triple points (nu_8 = 2 between classical bounds 1, 3)")


def test_golden_eight_point_special_ray():
    z = (4, 4, 4, 4, 4, 4, 4, 1)
    f11 = DivisorClass(11, z)
    assert ker_mu_dim(f11) == 2
    h11 = expected_dim(f11)
    h12 = expected_dim(DivisorClass(12, z))
    table = betti_table(z)
    assert {t: nu for t, _, nu, _ in table.rows}[12] == h12 - 3 * h11 + 2 == 1
    _ok("golden: special ray at 8 points (kernel 2, cokernel 1)")


def test_golden_quasi_uniform_resolution():
    r = quasi_uniform_resolution([5] * 20)
    assert (r.alpha, r.a, r.b, r.c, r.d) == (24, 25, 0, 24, 0)
    _ok("golden: quasi-uniform 20 points of multiplicity 5 -> (24, 25, 0, 24, 0)")


# ---------------------------------------------------------------------------
# 2. Oracle equivalence (statistical, >= 3 seeds, prime 31991)


def _nonincreasing_tuples(max_mult, max_len):
    for length in range(1, max_len + 1):
        yield from itertools.combinations_with_replacement(
            range(max_mult, 0, -1), length)


def _check_with_vote(z, cells, nu):
    """Every (t, expected) cell against the oracle at seed 0; a cell seed 0
    misses passes if at least two of seeds 1-3 give its expected value.
    Each seed's table covers all the cells' degrees in one oracle_table call."""
    lo, hi = min(t for t, _ in cells), max(t for t, _ in cells)

    def table(seed):
        rows = oracle_table(PointConfig.random(len(z), seed=seed), z, lo, hi, nu=nu)
        return {row[0]: row[-1] for row in rows}

    first = table(0)
    missed = [(t, expected) for t, expected in cells if first[t] != expected]
    if missed:
        others = [table(s) for s in (1, 2, 3)]
        for t, expected in missed:
            votes = [other[t] for other in others]
            assert votes.count(expected) >= 2, (z, t, expected, votes)
    return len(cells)


def test_oracle_hilbert_equivalence_grid():
    cells = 0
    for z in _nonincreasing_tuples(4, 9):
        window = range(0, find_tau(z) + 3)
        cells += _check_with_vote(
            z, [(t, expected_dim(DivisorClass(t, z))) for t in window], nu=False)
    print(f"PASS oracle: expected = actual Hilbert values on {cells} cells "
          "(n <= 9, mults <= 4)")


def test_oracle_nu_equivalence_grid():
    cells = 0
    for z in _nonincreasing_tuples(3, 8):
        table = betti_table(z)
        cells += _check_with_vote(
            z, [(t, nu) for t, _, nu, _ in table.rows if t >= 0], nu=True)
    print(f"PASS oracle: generator counts match on {cells} cells "
          "(n <= 8, mults <= 3)")


def test_golden_oracle_nine_tens_bytes_and_runtime():
    # One elimination and the generator counts of four degrees: 0.43 s
    # before the deferred reduction and the degree-t counts, 0.20-0.32 s
    # after, with a 495 x 528 matrix; 0.13 s once the heaviest point sits
    # at the origin, and the matrix is 440 x 473; 0.07 s (0.15-0.18 s
    # before, same series) once the three heaviest sit at the coordinate
    # vertices, and the matrix is 330 x 363 (best of 5 CPU in process,
    # 2 cores, Python 3.11.7).
    argv = ["oracle", "--mults", "10,10,10,10,10,10,10,10,10", "--window", "28:31",
            "--nu", "--json"]
    out = io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    elapsed = time.monotonic() - start
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == \
        "1d807177d1c2ebe8ccac6bbf2d7bceb332beba903c86fa80422e93b3326d27e5"
    assert elapsed < 2.5, f"oracle on nine 10-fold points took {elapsed:.2f}s"
    _ok(f"golden: oracle --mults 10 x 9 --window 28:31 --nu in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. Property suites (>= 10^4 cases total)


def _random_class(rng, max_len=9, signed=True):
    n = rng.randrange(0, max_len + 1)
    lo = -8 if signed else 0
    return DivisorClass(rng.randrange(-10, 40),
                        [rng.randrange(lo, 10) for _ in range(n)])


def test_property_quad_involution_and_isometry():
    rng = random.Random(100)
    cases = 0
    for _ in range(5000):
        f = _random_class(rng)
        g = _random_class(rng, max_len=len(f.mults))
        n = max(len(f.mults), len(g.mults), 3)
        f, g = f.padded(n), g.padded(n)
        assert cremona_quad(cremona_quad(f)) == f
        assert intersection(cremona_quad(f), cremona_quad(g)) == intersection(f, g)
        cases += 2
    print(f"PASS properties: quad involution and isometry ({cases} cases)")


def test_property_reduce_round_trip():
    rng = random.Random(101)
    cases = 0
    for _ in range(2500):
        f = _random_class(rng)
        terminal, word = reduce_fundamental(f)
        assert apply_inverse(word, terminal) == f.padded(3)
        if terminal.degree >= 0:
            assert terminal.degree >= sum(terminal.mults[:3])
        cases += 1
    print(f"PASS properties: reduction round trip ({cases} cases)")


def test_property_decomposition():
    rng = random.Random(102)
    cases = members = 0
    for _ in range(2500):
        f = _random_class(rng)
        dec = decompose(f)  # reconstruction + orthogonality asserted inside
        if dec.in_semigroup:
            members += 1
            assert dec.reconstruct() == f.padded(max(3, len(f.mults)))
            for v, mult in dec.fixed_part:
                assert mult > 0 and is_exceptional(v)
        cases += 1
    assert members > 100
    print(f"PASS properties: semigroup decomposition ({cases} cases, "
          f"{members} members)")


def test_property_betti_invariants():
    rng = random.Random(103)
    rows = 0
    for _ in range(120):
        n = rng.randrange(1, 9)
        z = tuple(rng.randrange(0, 5) for _ in range(n))
        table = betti_table(z)  # all four invariants asserted internally
        assert sum(r[2] for r in table.rows) <= table.alpha + 1
        rows += len(table.rows)
    print(f"PASS properties: Betti-table invariants ({rows} rows checked)")


def test_property_dominance_laws():
    rng = random.Random(104)
    cases = 0
    for _ in range(400):
        n = rng.randrange(2, 13)
        uniform = rng.random() < 0.5
        if uniform:
            z = [rng.randrange(0, 6)] * n
        else:
            z = [rng.randrange(0, 6) for _ in range(n)]
        if sum(z) == 0:
            continue
        # r counts positive multiplicities only, as every method's check does.
        r = rng.randrange(1, sum(1 for m in z if m) + 1)
        d = rng.randrange(1, 5)
        unl = ab.unloading_alpha(z, r, d).value
        assert ab.modified_unloading_alpha(z, r, d).value >= unl
        cases += 1
        for variant in "abcd":
            try:
                if variant == "d":
                    nef = ab.nef_variant_bound(z, variant, r, d,
                                               j=rng.randrange(0, d * d + 1)).value
                else:
                    nef = ab.nef_variant_bound(z, variant, r, d).value
            except ValueError:
                continue
            assert unl >= nef, (z, r, d, variant)
            cases += 1
    # Formula/algorithm agreement wherever the side conditions hold.
    for _ in range(400):
        n = rng.randrange(2, 22)
        # m >= 1: on m = 0 the algorithms have no point for the curve to pass.
        m = rng.randrange(1, 6)
        d = rng.randrange(1, 6)
        r = rng.randrange(1, n + 1)
        z = [m] * n
        if 2 * r >= n + d * d:
            assert unloading_alpha_formula(n, m, r, d).value \
                == ab.unloading_alpha(z, r, d).value
            cases += 1
        if 2 * n >= 2 * r >= n + d * d:
            assert ab.modified_unloading_alpha_formula_a(n, m, r, d).value \
                == ab.modified_unloading_alpha(z, r, d).value
            cases += 1
        if d * (d + 1) // 2 <= r <= min(n, d * d):
            assert ab.modified_unloading_alpha_formula_b(n, m, r, d).value \
                == ab.modified_unloading_alpha(z, r, d).value
            cases += 1
        if 2 * r >= n + d * d:
            assert tb.modified_unloading_tau_formula_a(n, m, r, d).value \
                == tb.modified_unloading_tau(z, r, d).value
            cases += 1
        if r <= d * d:
            assert tb.modified_unloading_tau_formula_b(n, m, r, d).value \
                == tb.modified_unloading_tau(z, r, d).value
            cases += 1
    # Closed form (b) with d = ceil(sqrt(n)), r = n dominates the bare
    # square specialization.
    from math import isqrt
    for n in range(9, 60):
        d = isqrt(n)
        if d * d != n:
            d += 1
        for m in range(0, 5):
            if m == 0:  # no point for the curve to pass: the closed form rejects it
                with pytest.raises(PreconditionError):
                    tb.modified_unloading_tau_formula_b(n, m, n, d)
                continue
            assert tb.modified_unloading_tau_formula_b(n, m, n, d).value \
                <= tb.sqrt_specialization_tau(n, m).value
            cases += 1
    print(f"PASS properties: dominance and formula agreement ({cases} cases)")


def test_property_sandwich_laws():
    rng = random.Random(105)
    cases = 0
    shgh_notes = []
    for _ in range(250):
        n = rng.randrange(1, 13)
        z = [rng.randrange(0, 6) for _ in range(n)]
        if sum(z) == 0:
            continue
        hard = n <= 9
        alpha, tau = find_alpha(z), find_tau(z)
        r = rng.randrange(1, sum(1 for m in z if m) + 1)
        d = rng.randrange(1, 4)
        lower_reports = [ab.semigroup_alpha_bound(z), ab.roe_alpha(z),
                         ab.unloading_alpha(z, r, d),
                         ab.modified_unloading_alpha(z, r, d)]
        for rep in lower_reports:
            if hard:
                assert rep.value <= alpha, (z, rep)
            elif rep.value > alpha:
                shgh_notes.append((z, rep.method, rep.value, alpha))
            cases += 1
        upper_reports = [tb.hirschowitz_tau(z), tb.roe_tau(z) if n >= 2 else None,
                         tb.modified_unloading_tau(z, r, d)]
        if sum(1 for x in z if x > 0) not in (2, 5):
            # The bound needs d^2 >= n, which fails at n = 2 and 5 only.
            upper_reports.append(tb.gimigliano_tau(z))
        if sum(1 for x in z if x > 0) >= 5:
            upper_reports.append(tb.catalisano_tau(z))
        for rep in upper_reports:
            if rep is None:
                continue
            if hard:
                assert rep.value >= tau, (z, rep)
            elif rep.value < tau:
                shgh_notes.append((z, rep.method, rep.value, tau))
            cases += 1
    for note in shgh_notes:
        print(f"NOTE logged SHGH counterexample candidate: {note}")
    print(f"PASS properties: sandwich laws ({cases} cases, "
          f"{len(shgh_notes)} logged)")


def test_property_padding_and_permutation_invariance():
    rng = random.Random(106)
    cases = 0
    for _ in range(250):
        n = rng.randrange(1, 10)
        z = [rng.randrange(0, 6) for _ in range(n)]
        if sum(z) == 0:
            continue
        padded = z + [0] * rng.randrange(1, 3)
        shuffled = z[:]
        rng.shuffle(shuffled)
        # r counts positive multiplicities only, as every method's check does.
        r = rng.randrange(1, sum(1 for m in z if m) + 1)
        d = rng.randrange(1, 4)
        checks = [
            (find_alpha, (z,), (padded,), (shuffled,)),
            (find_tau, (z,), (padded,), (shuffled,)),
        ]
        for fn, a, b, c in checks:
            assert fn(*a) == fn(*b) == fn(*c)
            cases += 2
        assert ab.roe_alpha(z).value == ab.roe_alpha(padded).value \
            == ab.roe_alpha(shuffled).value
        assert ab.unloading_alpha(z, r, d).value \
            == ab.unloading_alpha(padded, r, d).value \
            == ab.unloading_alpha(shuffled, r, d).value
        assert ab.semigroup_alpha_bound(z).value \
            == ab.semigroup_alpha_bound(padded).value \
            == ab.semigroup_alpha_bound(shuffled).value
        cases += 6
    print(f"PASS properties: zero-padding and permutation invariance ({cases} cases)")


# ---------------------------------------------------------------------------
# 4. Conjectural outputs are labeled


def test_conjectural_labeling():
    assert hilbert_table([2] * 12).exactness == "shgh-conjectural"
    assert hilbert_table([2] * 9).exactness == "exact"
    assert "conjectural" in quasi_uniform_resolution([3] * 12).label
    assert any("characteristic 0" in v
               for v in ab.modified_unloading_alpha([2] * 10, 8, 3).validity)
    assert any("conjectural" in v for v in ab.nagata_reference(100, 3).validity)
    from fatpoints.cli import main
    import io, contextlib, json
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["beta", "--uniform", "12:2", "--json"]) == 0
    doc = json.loads(buf.getvalue())
    assert doc["direction"] == "shgh-conjectural"
    assert "SHGH-conditional" in doc["validity"]
    _ok("labeling: conjectural outputs marked in tables, reports and CLI")
