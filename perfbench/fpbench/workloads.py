"""Workloads: seeded query pools, per-run mixes and the cross-checks.

A workload's pool is a list of strata, each a list of cases of equal or
similar cost; a run takes one case from every stratum.  A case is the list
of queries one cross-check covers: a single query, or in oracle-verify the
five queries about one scheme.  Each query is the argv list handed to
`fatpoints.cli.main`.

The pool is generated once from POOL_SEED and stored, with the SHA-256 of
every query's `--json` output, in reference/<workload>.json (record.py
writes it).  A run draws its mix from the stored pool with the run seed:
the seed picks the case of each stratum and the order.  So every query a
run can make has a recorded answer, and a pass costs nearly the same for
every seed.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

POOL_SEED = 2001
REFERENCE_DIR = Path(__file__).resolve().parent.parent / "reference"

WORKLOADS = ("bounds-uniform", "bounds-mixed", "catalogue-small", "oracle-verify")

ORACLE_SEEDS = (0, 1, 2)

# The power each workload's query times, and "setup" the set-up spawns,
# are probe-scaled with (see harness.scale), as fitted by calibrate.py;
# results/calibration.json holds the samples and the fits.
PROBE_POWER = {
    "bounds-uniform": 0.708,
    "bounds-mixed": 0.709,
    "catalogue-small": 0.629,
    "oracle-verify": 0.602,
    "setup": 0.447,
}


def _mults(values) -> str:
    return ",".join(str(v) for v in values)


def _ladder(lo: int, hi: int, count: int, power: float) -> list[int]:
    # Sizes from lo to hi, denser at the small end: query cost grows like
    # n^2.5 or faster, so an even ladder would spend the pass on its top.
    return [round(lo * (hi / lo) ** ((k / (count - 1)) ** power)) for k in range(count)]


# ---------------------------------------------------------------------------
# Pool generators.  Each takes a seeded random.Random and returns strata of
# cases, where a case is a list of argv lists.


def bounds_uniform_pool(rng: random.Random) -> list[list]:
    """`bounds --uniform N:M` with N from 10 to 200 and M from 1 to 15.

    Forty strata on a ladder of N; M walks 1..15 across it (7k mod 15), so
    small and large N both meet small and large M.  Each stratum holds one
    query and the seed only orders them: the cost of a uniform query moves
    erratically with N and M (by a third between neighbours), so any
    seeded choice of N or M would make the pass cost depend on the seed.
    The counter-based unloading paths and the family-(d) search share the
    time here.

    Two more strata hold 10:2 and 11:1, the inputs in this range where
    `tau_bounds.cubic_tau` (floor(m n / 3)) is below the expected tau: at
    the recorded commit they fail the bounds cross-check on every run, as
    reference/known-defects.json lists.
    """
    pairs = [(n, 1 + (7 * k) % 15) for k, n in enumerate(_ladder(10, 200, 40, 2.5))]
    pairs += [(10, 2), (11, 1)]
    return [[[["bounds", "--uniform", f"{n}:{m}", "--json"]]] for n, m in pairs]


def _orders(rng: random.Random, values: list[int], count: int) -> list[list[int]]:
    # The given order first, then shuffles: distinct inputs of equal cost,
    # because every bound method sorts the multiplicities first.
    orders = [values]
    while len(orders) < count:
        orders.append(rng.sample(values, len(values)))
    return orders


def bounds_mixed_pool(rng: random.Random) -> list[list]:
    """`bounds --mults` on random vectors plus wide-spread progressions.

    Random vectors have n from 10 to 100 and values 1..11; they drive the
    vector unloading engine, which re-sorts on every step.  The wide-spread
    strata are progressions like the golden 90,80,...,10, where the
    modified-unloading and tau methods do a visible share of the work.
    Each stratum holds one multiset in six orders: two random multisets of
    one length differ in cost by up to half, while orders of one multiset
    cost the same.
    """
    strata = []
    for n in _ladder(10, 100, 32, 4):
        values = [rng.randint(1, 11) for _ in range(n)]
        strata.append([[["bounds", "--mults", _mults(v), "--json"]]
                       for v in _orders(rng, values, 6)])
    for length, step in ((9, 10), (9, 6), (10, 8), (10, 4), (11, 6), (12, 6), (12, 3),
                         (14, 4)):
        values = [step * (length - i) for i in range(length)]
        strata.append([[["bounds", "--mults", _mults(v), "--json"]]
                       for v in _orders(rng, values, 6)])
    return strata


CATALOGUE_COMMANDS = ("alpha", "tau", "beta", "psi", "hilb", "res", "decomp")


def catalogue_small_pool(rng: random.Random) -> list[list]:
    """Tiny queries of every per-scheme command on n <= 8 points.

    For each (command, n), 18 schemes with multiplicities up to 40, about a
    thousand queries in all; `decomp --t` asks about a degree from 0 to
    twice the top multiplicity.  Each scheme is a stratum of two orders of
    its multiplicities, so the seed changes the inputs but not the work.
    Here the per-call overhead of `cli` and the lattice, hilbert and
    resolution modules show.
    """
    strata = []
    for command in CATALOGUE_COMMANDS:
        for n in range(1, 9):
            for _ in range(18):
                top = rng.randint(1, 40)
                values = [top] + [rng.randint(1, top) for _ in range(n - 1)]
                extra = ["--t", str(rng.randint(0, 2 * top))] if command == "decomp" else []
                strata.append([[[command, "--mults", _mults(v), *extra, "--json"]]
                               for v in _orders(rng, values, 2)])
    return strata


def oracle_case(values) -> list[list[str]]:
    """hilb, res and `oracle --nu` at each seed for one scheme."""
    mults = _mults(values)
    case = [["hilb", "--mults", mults, "--json"], ["res", "--mults", mults, "--json"]]
    case += [["oracle", "--mults", mults, "--nu", "--seed", str(s), "--json"]
             for s in ORACLE_SEEDS]
    return case


def oracle_verify_pool(rng: random.Random) -> list[list]:
    """The finite-field oracle on n <= 8 schemes with multiplicities up to 8.

    A stratum fixes the number of points, the top multiplicity and the
    number of conditions sum m(m+1)/2, which set the matrix sizes; its
    schemes differ in the other multiplicities and their order.  Each case
    runs the oracle at three seeds and compares the majority with hilb and
    res.
    """
    shapes = [(3, 2), (8, 2), (5, 3), (7, 4), (4, 5), (6, 5), (3, 6),
              (8, 6), (5, 7), (3, 8), (7, 8)]
    strata = []
    for n, top in shapes:
        schemes: list[tuple[int, ...]] = []
        for _ in range(2000):
            values = [top] + [rng.randint(max(1, top - 3), top) for _ in range(n - 1)]
            rng.shuffle(values)
            conditions = sum(m * (m + 1) // 2 for m in values)
            if tuple(values) not in schemes and \
                    (not schemes or conditions == sum(m * (m + 1) // 2 for m in schemes[0])):
                schemes.append(tuple(values))
            if len(schemes) == 6:
                break
        strata.append([oracle_case(values) for values in schemes])
    return strata


POOL_GENERATORS = {
    "bounds-uniform": bounds_uniform_pool,
    "bounds-mixed": bounds_mixed_pool,
    "catalogue-small": catalogue_small_pool,
    "oracle-verify": oracle_verify_pool,
}


def generate_pool(workload: str, seed: int = POOL_SEED) -> list[list]:
    return POOL_GENERATORS[workload](random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------------------
# Stored pools and mixes


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_pool(workload: str) -> dict:
    """The recorded pool: strata of cases of {"argv", "sha256"} queries.

    The first query of a case listed in reference/known-defects.json also
    carries "known_defect": the reasons its cross-check gives at the
    recorded commit (see harness.run_pass).
    """
    with open(reference_path(workload), encoding="utf-8") as fh:
        pool = json.load(fh)
    if pool.get("workload") != workload:
        raise ValueError(f"reference file holds workload {pool.get('workload')!r}")
    with open(REFERENCE_DIR / "known-defects.json", encoding="utf-8") as fh:
        known = {tuple(d["argv"]): d["reasons"] for d in json.load(fh)["defects"]
                 if d["workload"] == workload}
    for stratum in pool["strata"]:
        for case in stratum:
            reasons = known.pop(tuple(case[0]["argv"]), None)
            if reasons is not None:
                case[0]["known_defect"] = reasons
    if known:
        raise ValueError(f"known defects not in the {workload} pool: {sorted(known)}")
    return pool


def draw_mix(pool: dict, seed: int) -> list[list[dict]]:
    """The cases one run makes: one per stratum, chosen and shuffled by seed."""
    rng = random.Random(seed)
    mix = [rng.choice(stratum) for stratum in pool["strata"]]
    rng.shuffle(mix)
    return mix


# ---------------------------------------------------------------------------
# Cross-checks.  Each takes the case's argv lists and parsed outputs and
# returns the reasons the case is wrong (empty when it passes).


def check_bounds(argvs, docs) -> list[str]:
    """Every proven alpha lower bound <= expected alpha <= ... and tau alike."""
    reasons = []
    for doc in docs:
        expected = {d["method"]: d["value"] for d in doc
                    if d["method"] in ("expected-alpha", "expected-tau")}
        for d in doc:
            conjectural = any("conjectural" in v for v in d["validity"])
            if d["direction"] == "alpha-lower" and not conjectural \
                    and d["value"] > expected["expected-alpha"]:
                reasons.append(f"{d['method']} alpha bound {d['value']} > expected "
                               f"{expected['expected-alpha']}")
            if d["direction"] == "tau-upper" and d["value"] < expected["expected-tau"]:
                reasons.append(f"{d['method']} tau bound {d['value']} < expected "
                               f"{expected['expected-tau']}")
    return reasons


def _majority(values: list[int]) -> int | None:
    value, count = Counter(values).most_common(1)[0]
    return value if 2 * count > len(values) else None


def check_oracle(argvs, docs) -> list[str]:
    """Seed-majority oracle dim equals the hilb row, majority nu the res row."""
    by_command = {}
    for argv, doc in zip(argvs, docs):
        by_command.setdefault(argv[0], []).append(doc)
    hilb = {t: v for t, v in by_command["hilb"][0]["rows"]}
    nu = {t: nu_t for t, _h, nu_t, _s in by_command["res"][0]["rows"]}
    runs = [{row[0]: row[1:] for row in doc["rows"]} for doc in by_command["oracle"]]
    reasons = []
    for t in sorted(runs[0]):
        dim = _majority([run[t][0] for run in runs])
        gens = _majority([run[t][1] for run in runs])
        if dim is None or gens is None:
            reasons.append(f"t={t}: no majority among oracle seeds")
            continue
        if dim != hilb.get(t):
            reasons.append(f"t={t}: oracle dim {dim} != hilb {hilb.get(t)}")
        if gens != nu.get(t):
            reasons.append(f"t={t}: oracle nu {gens} != res {nu.get(t)}")
    return reasons


CHECKS = {
    "bounds-uniform": check_bounds,
    "bounds-mixed": check_bounds,
    "catalogue-small": None,
    "oracle-verify": check_oracle,
}
