"""Command-line front end.

Subcommands mirror the classic interactive entry points: per-degree
tables (`hilb`, `res`, `oracle`), single characters (`alpha`, `tau`,
`beta`, `psi`), the semigroup decomposition of one class (`decomp`),
and the full bound suite (`bounds`).  Every command accepts either
`--mults m1,m2,...` or `--uniform N:M`, prints a human-readable report
by default and a canonical JSON document with `--json` (integers and
p/q strings only, fixed key order, byte-stable under parse/re-serialize).

Exit codes: 0 success, 2 usage error, 3 precondition violation.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import attrgetter

from . import alpha_bounds as ab
from . import tau_bounds as tb
from .hilbert import (EXACT_POINT_LIMIT, _alpha_tau, beta_expected, exactness_flag,
                      find_alpha, find_tau, hilbert_table)
from .lattice import DivisorClass, FatPointSpec, decompose
from .oracle import DEFAULT_PRIME, PointConfig, oracle_table
from .report import ALPHA_LOWER, SHGH_CONDITIONAL, BoundReport, PreconditionError
from .resolution import betti_table


def _parse_mults(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed multiplicity list: {text!r}")


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


def _parse_weights(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"malformed weight list: {text!r}")


# argparse reads "-3:-1" as an option, so a negative number at the start
# of an N:M or LO:HI value needs the = form.
_UNIFORM_HELP = ("N general points of equal multiplicity M; "
                 "write a negative N as --uniform=N:M")
_WINDOW_HELP = "degree window; write a negative LO as --window=LO:HI"


def _add_input_args(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--mults", type=_parse_mults,
                   help="comma-separated multiplicities m1,m2,...")
    g.add_argument("--uniform", type=_parse_uniform, metavar="N:M", help=_UNIFORM_HELP)
    p.add_argument("--json", action="store_true", help="structured output")


def _spec_of(args) -> FatPointSpec:
    if args.mults is not None:
        return FatPointSpec(args.mults)
    n, m = args.uniform
    if n < 0 or m < 0:
        raise ValueError("uniform input needs N >= 0 and M >= 0")
    return FatPointSpec((m,) * n)


def _input_block(z: FatPointSpec) -> dict:
    return {"mults": list(z.mults), "n": z.n}


def canonical_json(obj) -> str:
    """The one serializer both emit and round-trip tests use.

    Byte-identical to json.dumps(obj, indent=2, separators=(",", ": "))
    plus a newline, for documents of int, str, bool, None, list and
    dict with str keys; anything else raises TypeError.  json.dumps runs
    its pure-Python encoder whenever it indents; this writer dispatches
    on the exact type and takes a third to two thirds of its time on
    the documents the commands print.
    """
    parts = []
    _write_json(obj, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


_JSON_LITERALS = {True: "true", False: "false", None: "null"}


def _write_json(obj, newline: str, emit) -> None:
    kind = type(obj)
    if kind is int:
        emit(int.__repr__(obj))
    elif kind is str:
        emit(encode_basestring_ascii(obj))
    elif kind is list:
        if not obj:
            emit("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            emit(sep)
            _write_json(item, inner, emit)
            sep = "," + inner
        emit(newline + "]")
    elif kind is dict:
        if not obj:
            emit("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in obj.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            emit(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value, inner, emit)
            sep = "," + inner
        emit(newline + "}")
    elif kind is bool or obj is None:
        emit(_JSON_LITERALS[obj])
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _report_json(z: FatPointSpec, rep: BoundReport) -> dict:
    params = {}
    for k, v in rep.params:
        params[k] = list(v) if isinstance(v, tuple) else v
    return {
        "input": _input_block(z),
        "method": rep.method,
        "direction": rep.direction,
        "value": rep.value,
        "params": params,
        "validity": list(rep.validity),
    }


def _print_report(rep: BoundReport) -> None:
    def fmt(v):
        return ",".join(str(x) for x in v) if isinstance(v, tuple) else v
    extra = ""
    if rep.params:
        extra = " [" + ", ".join(f"{k}={fmt(v)}" for k, v in rep.params) + "]"
    note = f"  ({'; '.join(rep.validity)})" if rep.validity else ""
    print(f"  {rep.method}{extra}: {rep.value}{note}")


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_single(args, kind: str) -> int:
    z = _spec_of(args)
    if kind == "alpha":
        value, method = find_alpha(z), "expected-alpha"
    elif kind == "tau":
        value, method = find_tau(z), "expected-tau"
    elif kind == "beta":
        value, method = beta_expected(z), "expected-beta"
    else:
        rep = ab.semigroup_alpha_bound(z)
        value, method = rep.value, rep.method
    exact = len(z.positive) <= EXACT_POINT_LIMIT
    validity = () if exact or kind == "psi" else (SHGH_CONDITIONAL,)
    flag = ALPHA_LOWER if kind == "psi" else exactness_flag(len(z.positive))
    rep = BoundReport(method, flag, value, (), validity)
    if args.json:
        sys.stdout.write(canonical_json(_report_json(z, rep)))
    else:
        label = "Value" if exact else "Expected value (SHGH)"
        if kind == "psi":
            label = "Lower bound via semigroup membership"
        print(f"{label} of {kind if kind != 'psi' else 'alpha'}: {value}")
    return 0


def _cmd_hilb(args) -> int:
    z = _spec_of(args)
    lo, hi = (args.window or (None, None))
    table = hilbert_table(z, lo, hi)
    if args.json:
        doc = {
            "input": _input_block(z),
            "method": "hilbert-table",
            "direction": table.exactness,
            "alpha": table.alpha,
            "tau": table.tau,
            "rows": [[t, v] for t, v in table.rows],
        }
        sys.stdout.write(canonical_json(doc))
        return 0
    print(f"alpha = {table.alpha}, tau = {table.tau}  ({table.exactness})")
    print(" t    dim I_t")
    for t, v in table.rows:
        print(f"{t:3d}   {v}")
    return 0


def _cmd_res(args) -> int:
    z = _spec_of(args)
    table = betti_table(z)
    if args.json:
        doc = {
            "input": _input_block(z),
            "method": "betti-table",
            "direction": "exact",
            "alpha": table.alpha,
            "tau": table.tau,
            "rows": [list(r) for r in table.rows],
        }
        sys.stdout.write(canonical_json(doc))
        return 0
    print(f"alpha = {table.alpha}, tau = {table.tau}")
    print("  t     h   nu    s")
    for t, h, nu, s in table.rows:
        print(f"{t:3d} {h:5d} {nu:4d} {s:4d}")
    return 0


def _cmd_decomp(args) -> int:
    z = _spec_of(args)
    if args.t is None:
        raise ValueError("decomp needs a degree: pass --t")
    f = DivisorClass(args.t, z.mults)
    dec = decompose(f)
    if args.json:
        doc = {
            "input": _input_block(z),
            "method": "semigroup-decomposition",
            "degree": args.t,
            "in_semigroup": dec.in_semigroup,
            "moving_part": None if dec.moving_part is None else
                {"degree": dec.moving_part.degree, "mults": list(dec.moving_part.mults)},
            "fixed_part": [
                {"degree": v.degree, "mults": list(v.mults), "multiplicity": k}
                for v, k in dec.fixed_part
            ],
        }
        sys.stdout.write(canonical_json(doc))
        return 0
    if not dec.in_semigroup:
        print(f"{f} is not in the exceptional semigroup")
        return 0
    print(f"{f} is in the exceptional semigroup")
    print(f"moving part: {dec.moving_part}")
    if dec.fixed_part:
        for v, k in dec.fixed_part:
            print(f"fixed component: {k} x {v}")
    else:
        print("no fixed components")
    return 0


def _cmd_oracle(args) -> int:
    z = _spec_of(args)
    cfg = PointConfig.random(z.n, seed=args.seed, prime=args.prime)
    if args.window is not None:
        lo, hi = args.window
    elif args.t is not None:
        lo = hi = args.t
    else:
        alpha, tau = _alpha_tau(z)
        lo, hi = max(0, alpha - 1), tau + 1
    rows = oracle_table(cfg, z, lo, hi, args.nu)
    columns = ["t", "dim"] + (["nu"] if args.nu else [])
    if args.json:
        doc = {
            "input": _input_block(z),
            "method": "interpolation-oracle",
            "prime": args.prime,
            "seed": args.seed,
            "columns": columns,
            "rows": rows,
        }
        sys.stdout.write(canonical_json(doc))
        return 0
    print(f"random points mod {args.prime}, seed {args.seed}")
    print("".join(f"{label:>6}" for label in columns))
    for row in rows:
        print("".join(f"{x:6d}" for x in row))
    return 0


def _run_methods(makers) -> list[BoundReport]:
    """Evaluate bound thunks in order, dropping those that do not apply.

    Only a PreconditionError means "does not apply"; any other error
    propagates, so a broken method exits non-zero instead of vanishing.
    """
    reports = []
    for make in makers:
        try:
            reports.append(make())
        except PreconditionError:
            continue
    return reports


def _sqrt_rd(n: int) -> tuple[int, int]:
    # d = floor(sqrt(n)) with the least r >= d*sqrt(n): the standard
    # parameter choice for the closed-form modified-unloading bounds.
    # For n >= 1, d^2 <= n, so d^2 <= r <= n.
    d = max(1, math.isqrt(n))
    return math.isqrt(d * d * n - 1) + 1, d


def _default_methods(z: FatPointSpec, alpha: int, requested_tau: list) -> tuple[list, list]:
    """The default suite's alpha and tau thunks, in report order.

    alpha is find_alpha(z).  The explicitly requested tau reports sit
    between the general and the uniform-only tau methods.  Every method
    checks its own preconditions; the guards here keep out only the
    calls a method would accept but should not get, and the parameter
    choices that need a positive multiplicity.
    """
    n = len(z.positive)
    by_value = attrgetter("value")
    alphas = [lambda: ab.semigroup_alpha_bound(z, alpha), lambda: ab.roe_alpha(z)]
    taus = [lambda: tb.hirschowitz_tau(z), lambda: tb.gimigliano_tau(z),
            lambda: tb.catalisano_tau(z)]
    if n >= 2:
        # roe_tau's own check counts zeros: roe_tau([0] * 5) is 0.
        taus.append(lambda: tb.roe_tau(z))
    if n:
        # The (r, d) pairs of weight families (a) and (b).
        rds = (ra, da), (rb, db) = ab.best_rd_a(n), ab.best_rd_b(n)
        alphas += [
            lambda: ab.nef_variant_bound(z, "a", ra, da),
            lambda: ab.nef_variant_bound(z, "b", rb, db),
            lambda: ab.best_variant_d_search(z),
            lambda: max((ab.modified_unloading_alpha(z, r, d) for r, d in rds), key=by_value),
            lambda: ab.best_unloading_search(z),
        ]
        taus.append(
            lambda: min((tb.modified_unloading_tau(z, r, d) for r, d in rds), key=by_value))
    taus += [lambda rep=rep: rep for rep in requested_tau]
    if n and z.is_uniform():
        m = z.positive[0]
        rf, df = _sqrt_rd(n)
        alphas += [lambda: ab.unloading_alpha(z, ra, da),
                   lambda: ab.modified_unloading_alpha_formula_a(n, m, rf, df),
                   lambda: ab.modified_unloading_alpha_formula_b(n, m, df * df, df)]
        taus += [lambda: tb.segre_tau(n, m), lambda: tb.cubic_tau(n, m),
                 lambda: tb.sqrt_specialization_tau(n, m),
                 lambda: tb.modified_unloading_tau_formula_a(n, m, rf, df),
                 lambda: tb.modified_unloading_tau_formula_b(n, m, df * df, df)]
        if n > 9:
            # Both are stated for n > 9 but accept any n >= 1.
            alphas.append(lambda: ab.nagata_reference(n, m))
            taus.append(lambda: tb.ran_tau(n, m, max(Fraction(n * da, ra), Fraction(rb, db))))
    return alphas, taus


def _requested_reports(z: FatPointSpec, args) -> tuple[list, list]:
    # Explicit --r/--d/--j/--weights run the parameterized methods at
    # exactly those parameters, alongside the default sweep.  They run
    # outside _run_methods, so a failed precondition exits 3 rather than
    # dropping the method that was asked for.
    alpha_reports, tau_reports = [], []
    if args.weights is not None:
        if args.r is None or args.d is None:
            raise ValueError("--weights needs --r and --d")
        alpha_reports.append(ab.nef_test_bound(z, args.weights, args.r, args.d))
    if args.r is not None or args.d is not None:
        if args.r is None or args.d is None:
            raise ValueError("method parameters need both --r and --d")
        alpha_reports += [
            ab.unloading_alpha(z, args.r, args.d),
            ab.modified_unloading_alpha(z, args.r, args.d),
        ]
        if args.j is not None:
            alpha_reports.append(ab.nef_variant_bound(z, "d", args.r, args.d, j=args.j))
        tau_reports.append(tb.modified_unloading_tau(z, args.r, args.d))
    elif args.j is not None:
        raise ValueError("--j needs --r and --d")
    return alpha_reports, tau_reports


def _cmd_bounds(args) -> int:
    z = _spec_of(args)
    n = len(z.positive)
    exact = n <= EXACT_POINT_LIMIT
    label = "Value" if exact else "Expected value (SHGH)"
    ea, et = _alpha_tau(z)
    requested_alpha, requested_tau = _requested_reports(z, args)
    alpha_makers, tau_makers = _default_methods(z, ea, requested_tau)
    alpha_reports = requested_alpha + _run_methods(alpha_makers)
    tau_reports = _run_methods(tau_makers)
    if args.json:
        direction = exactness_flag(n)
        docs = [_report_json(z, BoundReport("expected-alpha", direction, ea))]
        docs += [_report_json(z, rep) for rep in alpha_reports]
        docs.append(_report_json(z, BoundReport("expected-tau", direction, et)))
        docs += [_report_json(z, rep) for rep in tau_reports]
        sys.stdout.write(canonical_json(docs))
        return 0
    print(f"n = {z.n} general points, multiplicities {list(z.mults)}")
    print(f"{label} of alpha: {ea}")
    if not exact:
        print("  note: the expected value is an upper bound for alpha")
    print("Lower bounds on alpha:")
    for rep in alpha_reports:
        _print_report(rep)
    print(f"{label} of tau: {et}")
    if not exact:
        print("  note: the expected value is a lower bound for tau")
    print("Upper bounds on tau:")
    for rep in tau_reports:
        _print_report(rep)
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call and reused: parse_args returns a fresh
    # Namespace each time, and no default or type callable keeps state.
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
        p.set_defaults(func=lambda a, kind=name: _cmd_single(a, kind))

    p = sub.add_parser("hilb", help="expected Hilbert-function table")
    _add_input_args(p)
    p.add_argument("--window", type=_parse_window, metavar="LO:HI", help=_WINDOW_HELP)
    p.set_defaults(func=_cmd_hilb)

    p = sub.add_parser("res", help="Betti numbers for up to 8 points")
    _add_input_args(p)
    p.set_defaults(func=_cmd_res)

    p = sub.add_parser("decomp", help="semigroup decomposition of one class")
    _add_input_args(p)
    p.add_argument("--t", type=int, help="degree of the class")
    p.set_defaults(func=_cmd_decomp)

    p = sub.add_parser("bounds", help="run the full bound suite")
    _add_input_args(p)
    p.add_argument("--r", type=int, help="curve passes through the first r points")
    p.add_argument("--d", type=int, help="degree of the unloading curve")
    p.add_argument("--j", type=int, help="tail width for the prefix-spread family")
    p.add_argument("--weights", type=_parse_weights,
                   help="full nef weight vector a0,a1,...,an (rationals allowed)")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("oracle", help="finite-field interpolation oracle")
    _add_input_args(p)
    degrees = p.add_mutually_exclusive_group()
    degrees.add_argument("--window", type=_parse_window, metavar="LO:HI", help=_WINDOW_HELP)
    degrees.add_argument("--t", type=int, help="single degree")
    p.add_argument("--nu", action="store_true", help="also report generator counts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    p.set_defaults(func=_cmd_oracle)
    return top


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
