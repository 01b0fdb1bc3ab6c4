"""Spans around the public functions of each fatpoints module, from outside.

The tracer replaces each listed function by a wrapper in every fatpoints
namespace that holds it: `cli`, `alpha_bounds`, `hilbert` and
`resolution` import names directly, so patching only the defining module
would miss their calls.  The originals come back when the `installed()`
block ends.  Spans (name, start, end, parent, query id) stay in memory;
per-layer numbers are computed from them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

PACKAGE = "fatpoints"

# Functions timed as spans, per module.  `report` is data only.
SPAN_FUNCTIONS = {
    "cli": ("main",),
    "lattice": ("reduce_fundamental_raw", "reduce_fundamental", "decompose"),
    "hilbert": ("find_alpha", "find_tau", "expected_dim", "hilbert_table",
                "beta_expected"),
    "resolution": ("betti_table", "ker_mu_dim"),
    "alpha_bounds": ("best_variant_d_search", "best_unloading_search", "unloading_alpha",
                     "modified_unloading_alpha", "roe_alpha", "semigroup_alpha_bound",
                     "nef_variant_bound"),
    "tau_bounds": ("modified_unloading_tau", "roe_tau", "catalisano_tau",
                   "hirschowitz_tau"),
    "oracle": ("actual_hilbert", "actual_nu", "rank_mod_p", "nullspace_mod_p"),
}

# Modules whose every public function counts the ValueErrors it lets out:
# those are the inapplicable bound methods that cli._run_methods drops.
RAISE_COUNTED = ("alpha_bounds", "tau_bounds")

# Functions whose first argument is a matrix; rows x cols is summed.
CELL_COUNTED = ("oracle.rank_mod_p", "oracle.nullspace_mod_p")

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in SPAN_FUNCTIONS.items() for fn in fns)
COUNTER_NAMES = tuple(f"{mod}.raised" for mod in RAISE_COUNTED) + \
    tuple(f"{name}.cells" for name in CELL_COUNTED)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    query: int | None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(i)
    result = []
    for i, span in enumerate(spans):
        pieces = sorted((max(spans[c].start, span.start), min(spans[c].end, span.end))
                        for c in children.get(i, ()))
        covered, run_start, run_end = 0.0, None, None
        for lo, hi in pieces:
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        result.append(span.end - span.start - covered)
    return result


class Tracer:
    """Records spans and counters while installed; one instance per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.query: int | None = None
        self._stack: list[int] = []
        self._depth: Counter = Counter()

    def _wrap(self, fn, module: str, name: str | None):
        """A wrapper that records a span when `name` is set and counts raises."""
        tracer = self
        counts_raise = module in RAISE_COUNTED
        cells_key = f"{name}.cells" if name in CELL_COUNTED else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if cells_key is not None:
                rows, cols = args[0].shape
                tracer.counts[cells_key] += rows * cols
            if counts_raise:
                tracer._depth[module] += 1
            span = None
            if name is not None:
                span = Span(name, 0.0, 0.0,
                            tracer._stack[-1] if tracer._stack else None, tracer.query)
                tracer._stack.append(len(tracer.spans))
                tracer.spans.append(span)
                span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except ValueError:
                if counts_raise and tracer._depth[module] == 1:
                    tracer.counts[f"{module}.raised"] += 1
                raise
            finally:
                if span is not None:
                    span.end = perf_counter()
                    tracer._stack.pop()
                if counts_raise:
                    tracer._depth[module] -= 1
        return wrapper

    def _wrappers(self) -> dict:
        wrappers = {}
        for module, names in SPAN_FUNCTIONS.items():
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            for fn_name in names:
                fn = getattr(mod, fn_name)
                wrappers[fn] = self._wrap(fn, module, f"{module}.{fn_name}")
        for module in RAISE_COUNTED:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            for fn_name, fn in vars(mod).items():
                if isinstance(fn, types.FunctionType) and not fn_name.startswith("_") \
                        and fn.__module__ == mod.__name__ and fn not in wrappers:
                    wrappers[fn] = self._wrap(fn, module, None)
        return wrappers

    @contextmanager
    def installed(self):
        """Patch every fatpoints namespace that holds a wrapped function."""
        wrappers = self._wrappers()
        patched = []
        try:
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if isinstance(value, types.FunctionType) and value in wrappers:
                        setattr(mod, attr, wrappers[value])
                        patched.append((mod, attr, value))
            yield self
        finally:
            for mod, attr, value in reversed(patched):
                setattr(mod, attr, value)

    def layer_totals(self) -> dict[str, tuple[int, float, float]]:
        """(calls, self seconds, inclusive seconds) per span function.

        Inclusive time counts a span only when no enclosing span has the
        same name, so recursion is not counted twice.
        """
        totals = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        for span, own in zip(self.spans, self_times(self.spans)):
            entry = totals[span.name]
            entry[0] += 1
            entry[1] += own
            parent = span.parent
            while parent is not None and self.spans[parent].name != span.name:
                parent = self.spans[parent].parent
            if parent is None:
                entry[2] += span.end - span.start
        return {name: tuple(entry) for name, entry in totals.items()}
