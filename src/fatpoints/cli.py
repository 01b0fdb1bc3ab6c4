"""Command-line front end.

Subcommands mirror the classic interactive entry points: per-degree
tables (`hilb`, `res`, `oracle`), single characters (`alpha`, `tau`,
`beta`, `psi`), the semigroup decomposition of one class (`decomp`),
and the full bound suite (`bounds`).  Every command accepts either
`--mults m1,m2,...` or `--uniform N:M`, prints a human-readable report
by default and a canonical JSON document with `--json` (integers and
p/q strings only, fixed key order, byte-stable under parse/re-serialize):
`_reports_json` writes the reports of `alpha`, `tau`, `beta`, `psi` and
`bounds` from fixed templates, `canonical_json` the other documents.

Exit codes: 0 success, 2 usage error, 3 precondition violation.

`main` reads the canonical spelling directly: the command, then exact
option names such as `--mults 3,2,2` and `--json`, each at most once,
every value a separate token that does not start with "-".  Every other
spelling (an abbreviation like `--mult`, the `--mults=3,2,2` form, a
value starting with "-", a repeated option), `--help` and every usage
error go through argparse, with unchanged results and text.  Both
paths read one grammar, the table `_COMMANDS`: `_parser` builds argparse
from it with public calls only, and `_grammar` derives the canonical
path's lookup from it.

Imports: `import fatpoints.cli` loads `fatpoints`, `cli`, `lattice`,
`hilbert` and `report`, the modules every command runs, and no more.
Each command loads what else it runs when it runs:

    alpha, tau, beta, hilb, decomp   nothing more
    psi                              alpha_bounds
    res                              resolution
    bounds                           alpha_bounds, tau_bounds, fractions
    oracle                           oracle, numpy

So a process that answers one query pays only for its own command.  A
deferred import binds the module (`ab.semigroup_alpha_bound`) or reads
the name inside the handler, so a function patched on its own module is
the one the next call runs.  The handlers of the cheap commands import
nothing at call time: a function-level import costs about a microsecond,
and one of their queries takes some 60.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from json.encoder import encode_basestring_ascii
from operator import attrgetter

from .hilbert import (EXACT_POINT_LIMIT, _alpha_tau, beta_expected, exactness_flag,
                      find_alpha, find_tau, hilbert_table)
from .lattice import DivisorClass, FatPointSpec, decompose
from .report import ALPHA_LOWER, SHGH_CONDITIONAL, BoundReport, PreconditionError

# oracle.DEFAULT_PRIME, written out so that only `oracle` imports the
# oracle module and numpy.
DEFAULT_PRIME = 31991


def _parse_mults(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed multiplicity list: {text!r}")


def _parse_pair(label: str):
    # The type of an option whose value is two integers written as label.
    def parse(text: str) -> tuple[int, int]:
        try:
            a, b = text.split(":")
            return int(a), int(b)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {label}, got {text!r}")
    return parse


def _parse_weights(text: str) -> tuple:
    from fractions import Fraction
    try:
        return tuple(Fraction(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"malformed weight list: {text!r}")


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
    """The serializer of `hilb`, `res`, `decomp`, `oracle` and the tests.

    Byte-identical to json.dumps(obj, indent=2, separators=(",", ": "))
    plus a newline, for documents of int, str, bool, None, list and
    dict with str keys; anything else raises TypeError.  json.dumps runs
    its pure-Python encoder whenever it indents; this writer dispatches
    on the exact type and takes a third to two thirds of its time on
    the documents the commands print.  `_reports_json` writes the reports.
    """
    parts = []
    _write_json(obj, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _write_json(obj, newline: str, emit) -> None:
    kind = type(obj)
    if kind is int:
        emit(int.__repr__(obj))
    elif kind is str:
        emit(encode_basestring_ascii(obj))
    elif kind is list:
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            emit(sep)
            _write_json(item, inner, emit)
            sep = "," + inner
        emit(newline + "]" if obj else "[]")
    elif kind is dict:
        inner = newline + "  "
        sep = "{" + inner
        for key, value in obj.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            emit(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value, inner, emit)
            sep = "," + inner
        emit(newline + "}" if obj else "{}")
    elif kind is bool or obj is None:
        emit("null" if obj is None else "true" if obj else "false")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _reports_json(block: dict, reports: list[BoundReport], listed: bool) -> str:
    """canonical_json of the reports as dicts {"input": block, "method", ...,
    "validity"}: their list when listed, else the one report.  The block is
    rendered once, into one head string that every report refers to."""
    newline = "\n  " if listed else "\n"
    inner = newline + "  "
    parts = ["{" + inner + '"input": ']
    _write_json(block, inner, parts.append)
    head, parts = "".join(parts), ["[" + newline] if listed else []
    fields = ("," + inner).join(["", '"method": %s', '"direction": %s', '"value": %s',
                                 '"params": %s', '"validity": %s']) + newline + "}"
    for rep in reports:
        parts += (head, _report_text(rep, fields, inner), "," + newline)
    parts[-1] = "\n]\n" if listed else "\n"
    return "".join(parts)


def _report_text(rep: BoundReport, fields: str, inner: str) -> str:
    # The fields of rep after its input block, at indentation inner, filled
    # into the template fields.  A params value is an int, a str or a tuple
    # of them.
    params = "{}"
    if rep.params:
        deep = inner + "  "
        params = "{" + deep + ("," + deep).join([
            encode_basestring_ascii(key) + ": "
            + (_json_list(value, deep) if type(value) is tuple else _json_scalar(value))
            for key, value in rep.params]) + inner + "}"
    return fields % (encode_basestring_ascii(rep.method), encode_basestring_ascii(rep.direction),
                     _json_scalar(rep.value), params, _json_list(rep.validity, inner))


def _json_list(items: tuple, newline: str) -> str:
    if not items:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(map(_json_scalar, items)) + newline + "]"


def _json_scalar(value) -> str:
    # An int or a str: encode_basestring_ascii raises TypeError on any other type.
    return int.__repr__(value) if type(value) is int else encode_basestring_ascii(value)


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
        from . import alpha_bounds as ab
        rep = ab.semigroup_alpha_bound(z)
        value, method = rep.value, rep.method
    exact = len(z.positive) <= EXACT_POINT_LIMIT
    validity = () if exact or kind == "psi" else (SHGH_CONDITIONAL,)
    flag = ALPHA_LOWER if kind == "psi" else exactness_flag(len(z.positive))
    rep = BoundReport(method, flag, value, (), validity)
    if args.json:
        sys.stdout.write(_reports_json(_input_block(z), [rep], listed=False))
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
    from .resolution import betti_table
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
    from .oracle import PointConfig, oracle_table
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
    from . import alpha_bounds as ab, tau_bounds as tb
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
            from fractions import Fraction
            alphas.append(lambda: ab.nagata_reference(n, m))
            taus.append(lambda: tb.ran_tau(n, m, max(Fraction(n * da, ra), Fraction(rb, db))))
    return alphas, taus


def _requested_reports(z: FatPointSpec, args) -> tuple[list, list]:
    # Explicit --r/--d/--j/--weights run the parameterized methods at
    # exactly those parameters, alongside the default sweep.  They run
    # outside _run_methods, so a failed precondition exits 3 rather than
    # dropping the method that was asked for.
    from . import alpha_bounds as ab, tau_bounds as tb
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
        reports = [BoundReport("expected-alpha", direction, ea), *alpha_reports,
                   BoundReport("expected-tau", direction, et), *tau_reports]
        sys.stdout.write(_reports_json(_input_block(z), reports, listed=True))
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


# The grammar, declared once: per command its help, its handler and its
# options, each (name, type, metavar, help, default).  A flag has type
# None; a tuple of options is a mutually exclusive group, required when it
# is the input group every command starts with.  argparse reads "-3:-1" or
# "-1,2" after a space as an option, so a negative number at the start of
# an N:M, LO:HI or comma-separated value needs the = form.
_INPUT_GROUP = (
    ("--mults", _parse_mults, None,
     "comma-separated multiplicities m1,m2,...; write a negative m1 as --mults=m1,m2,...", None),
    ("--uniform", _parse_pair("N:M"), "N:M",
     "N general points of equal multiplicity M; write a negative N as --uniform=N:M", None))
_INPUT = (_INPUT_GROUP, ("--json", None, None, "structured output", False))
_WINDOW = ("--window", _parse_pair("lo:hi"), "LO:HI",
           "degree window; write a negative LO as --window=LO:HI", None)

_COMMANDS = {
    "alpha": ("least degree of a curve through the scheme",
              functools.partial(_cmd_single, kind="alpha"), _INPUT),
    "tau": ("least degree of independent conditions",
            functools.partial(_cmd_single, kind="tau"), _INPUT),
    "beta": ("least degree with zero-dimensional base locus",
             functools.partial(_cmd_single, kind="beta"), _INPUT),
    "psi": ("semigroup-membership lower bound on alpha",
            functools.partial(_cmd_single, kind="psi"), _INPUT),
    "hilb": ("expected Hilbert-function table", _cmd_hilb, _INPUT + (_WINDOW,)),
    "res": ("Betti numbers for up to 8 points", _cmd_res, _INPUT),
    "decomp": ("semigroup decomposition of one class", _cmd_decomp,
               _INPUT + (("--t", int, None, "degree of the class", None),)),
    "bounds": ("run the full bound suite", _cmd_bounds, _INPUT + (
        ("--r", int, None, "curve passes through the first r points", None),
        ("--d", int, None, "degree of the unloading curve", None),
        ("--j", int, None, "tail width for the prefix-spread family", None),
        ("--weights", _parse_weights, None,
         "full nef weight vector a0,a1,...,an (rationals allowed); "
         "write a negative a0 as --weights=a0,a1,...", None))),
    "oracle": ("finite-field interpolation oracle", _cmd_oracle, _INPUT + (
        (_WINDOW, ("--t", int, None, "single degree", None)),
        ("--nu", None, None, "also report generator counts", False),
        ("--seed", int, None, None, 0),
        ("--prime", int, None, None, DEFAULT_PRIME))),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built from _COMMANDS on the first call and reused: parse_args returns
    # a fresh Namespace each time, and no default or type callable keeps state.
    top = argparse.ArgumentParser(
        prog="fatpoints",
        description="numerical characters of fat-point subschemes of the plane")
    sub = top.add_subparsers(dest="command", required=True)
    for command, (summary, handler, entries) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for entry in entries:
            group = isinstance(entry[0], tuple)
            adder = p.add_mutually_exclusive_group(required=entry is _INPUT_GROUP) if group else p
            for name, kind, metavar, text, default in (entry if group else (entry,)):
                if kind is None:
                    adder.add_argument(name, action="store_true", default=default, help=text)
                else:
                    adder.add_argument(name, type=kind, metavar=metavar, default=default,
                                       help=text)
        p.set_defaults(func=handler)
    return top


@functools.cache
def _grammar(command: str) -> tuple:
    # One row of _COMMANDS as the canonical path reads it: the namespace
    # parse_args starts from (the command, each option's default, then
    # func), option -> (dest, type), and the mutually exclusive groups as
    # (required, dests).  A lone option is no group.
    _, handler, entries = _COMMANDS[command]
    defaults, options, groups = {"command": command}, {}, []
    for entry in entries:
        group = isinstance(entry[0], tuple)
        for name, kind, _, _, default in (entry if group else (entry,)):
            defaults[name[2:]] = default
            options[name] = name[2:], kind
        if group:
            groups.append((entry is _INPUT_GROUP, frozenset(name[2:] for name, *_ in entry)))
    defaults["func"] = handler
    return defaults, options, groups


def _recognize(argv) -> argparse.Namespace | None:
    """The Namespace parse_args would return for a canonical argv, else None.

    Canonical: a command, then exact option names of its row in
    `_COMMANDS`, each at most once; a flag stands alone and any other
    option takes the next token, which must not start with "-" and must
    convert by the option's type.  No type returns None, the default of
    every group member, so a member counts as given, as argparse counts
    it, exactly when it was named.  A group takes at most one member, and
    the input group exactly one.  Every other argv, and every one argparse
    would reject, gets None.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    defaults, options, groups = _grammar(argv[0])
    values, i = {}, 1
    while i < len(argv):
        option = options.get(argv[i])
        if option is None or option[0] in values:
            return None
        dest, kind = option
        if kind is None:
            values[dest] = True
            i += 1
            continue
        if i + 1 == len(argv) or argv[i + 1].startswith("-"):
            return None
        try:
            values[dest] = kind(argv[i + 1])
        except (argparse.ArgumentTypeError, ValueError):
            return None
        i += 2
    for required, dests in groups:
        given = len(values.keys() & dests)
        if given > 1 or required and not given:
            return None
    return argparse.Namespace(**{**defaults, **values})


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _recognize(argv)
    if args is None:
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
