"""Uniform reporting container for the bound catalogue."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

ALPHA_LOWER = "alpha-lower"
TAU_UPPER = "tau-upper"

CHAR_ZERO = "characteristic 0 only"
SHGH_CONDITIONAL = "SHGH-conditional"


def fmt_rational(x) -> str:
    """Exact rendering: integers plainly, other rationals as p/q."""
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


@dataclass(frozen=True)
class BoundReport:
    """One bound: method tag, direction, value, parameters, caveats."""

    method: str
    direction: str
    value: int
    params: tuple[tuple[str, object], ...] = field(default_factory=tuple)
    validity: tuple[str, ...] = field(default_factory=tuple)
