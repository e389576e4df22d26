"""Scalar backends: exact rationals and complex floats.

All weight formulas are written as plain arithmetic expressions so they
evaluate over either backend (and, where noted, over numpy arrays for
vectorised quadrature).  This module holds parsing/formatting helpers and
the random rational point generator used by the identity-testing suites.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from numpy import ndarray

RATIONAL = "rational"
COMPLEX = "complex"


def is_exact(value) -> bool:
    return isinstance(value, (Fraction, int))


def is_array(value) -> bool:
    """Whether value is a numpy array (a batch of lanes), not a scalar."""
    return isinstance(value, ndarray)


def is_zero(value) -> bool:
    """value == 0; for an array, on every lane (NaN is nonzero, -0.0 zero)."""
    return not value.any() if is_array(value) else value == 0


def numerator(w, den: int) -> int:
    """Numerator of the rational w over den, a multiple of its denominator."""
    return w.numerator * (den // w.denominator)


def over_one_den(weights: dict, exact: bool):
    """(weights as integer numerators, their lcm denominator) when exact;
    (weights, 1) otherwise."""
    if not exact:
        return weights, 1
    den = math.lcm(*(w.denominator for w in weights.values()))
    return {k: numerator(w, den) for k, w in weights.items()}, den


def parse_scalar(obj, backend: str = RATIONAL):
    """Parse one scalar from its JSON encoding.

    Rationals are written as "p/q" strings (or bare integers); complex
    floats as a number or an [re, im] pair.
    """
    if backend == RATIONAL:
        if isinstance(obj, str):
            return Fraction(obj)
        if isinstance(obj, int):
            return Fraction(obj)
        raise ValueError(
            f"rational backend expects 'p/q' strings or integers, got {obj!r}"
        )
    if isinstance(obj, str):
        return complex(Fraction(obj))
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return complex(obj[0], obj[1])
    raise ValueError(f"complex backend cannot parse {obj!r}")


def format_scalar(value) -> dict:
    """JSON encoding of a result scalar: {num, den} or {re, im}."""
    if isinstance(value, int):
        value = Fraction(value)
    if isinstance(value, Fraction):
        return {"num": str(value.numerator), "den": str(value.denominator)}
    value = complex(value)
    return {"re": value.real, "im": value.imag}


def rand_rational(rng: random.Random, bound: int = 97) -> Fraction:
    """Random rational with small numerator/denominator (|p|, q <= bound)."""
    num = rng.randint(-bound, bound)
    den = rng.randint(1, bound)
    return Fraction(num, den)
