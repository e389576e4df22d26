"""Scalar backends: exact rationals and complex floats.

Every weight and kernel formula is written once, on (numerator,
denominator) pairs (as_pair): integer pairs for rationals, and (v, 1) for
a complex scalar or a numpy array of lanes, so one formula serves every
ring.  This module also holds the backend checks, the parsing and
formatting helpers and the random rational point generator used by the
identity-testing suites.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from numpy import ndarray

RATIONAL = "rational"
COMPLEX = "complex"
RAND_BOUND = 97  # |numerator| and denominator bound of rand_rational


def is_exact(value) -> bool:
    return isinstance(value, (Fraction, int))


def is_array(value) -> bool:
    """Whether value is a numpy array (a batch of lanes), not a scalar."""
    return isinstance(value, ndarray)


def is_zero(value) -> bool:
    """value == 0; for an array, on every lane (NaN is nonzero, -0.0 zero)."""
    return not value.any() if isinstance(value, ndarray) else value == 0


def nonzero(values: dict) -> dict:
    """values without its zero entries (see is_zero), by one truth test each."""
    return {k: v for k, v in values.items() if (v.any() if isinstance(v, ndarray) else v)}


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


def as_pair(v, exact: bool) -> tuple:
    """v as (num, den): integers when exact, else (v, 1), an int v made a
    Fraction so that only an exact pair is all integers."""
    if exact:
        return v.numerator, v.denominator
    return (Fraction(v) if type(v) is int else v), 1


def add_ratio(acc: tuple, num, den) -> tuple:
    """acc = (n, d) plus num/den, over the lcm of d and den when both are
    integers, else as the value n/d + num/den over 1."""
    n, d = acc
    if type(d) is not int or type(den) is not int:
        return n / d + num / den, 1
    g = math.gcd(d, den)
    return n * (den // g) + num * (d // g), d // g * den


def pair_ints(a: tuple, b: tuple, q: tuple) -> tuple:
    """(s, r, t) at x = a[0]/a[1], y = b[0]/b[1], q = q[0]/q[1]: S(x, y) =
    (x - y)/(1 - xy) = s/r and 1 - qxy = t/(q[1] a[1] b[1])."""
    return a[0] * b[1] - b[0] * a[1], a[1] * b[1] - a[0] * b[0], q[1] * a[1] * b[1] - q[0] * a[0] * b[0]


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


def rand_rational(rng: random.Random) -> Fraction:
    """Random rational p/q with |p|, q <= RAND_BOUND."""
    return Fraction(rng.randint(-RAND_BOUND, RAND_BOUND), rng.randint(1, RAND_BOUND))
