"""Seeded inputs that avoid every pole of every route.

Every spectral parameter is a rational n/D with a fixed prime denominator
D per role and a numerator drawn from a fixed window, so the size of the
Fraction arithmetic (and with it the cost of a pass) barely depends on the
seed.  Each draw is screened against the explicit list of denominators
that any route divides by; the windows are chosen so that the screen
almost never fires, but it is the screen, not the window, that guarantees
that no operation fails.
"""

from __future__ import annotations

import random
from fractions import Fraction

from reference import h


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def hits_pole(v, others, q, a, c, ys) -> bool:
    """True when v (an x or z spectral parameter) sits on a pole or a
    removable coincidence of some route, given the parameters already drawn.

    * weights: v = 0, +-1, a or c (h(v) and the odd-size Pfaffian border 1);
      h(v) = 1 (subset-route weights h/(1-h));
    * operator stack: v = y_j/q (lower row, 1 - q v/y_j), q v y_j = 1
      (upper row), v y_j = 1 (dotted upper row of Bdot);
    * Z, G and Cauchy routes: v = o, v o = 1, q v o = 1, v = q o, o = q v
      for every other parameter o, and q v = 1 (the appended point 1).
    """
    if v in (0, 1, -1, a) or (c is not None and v == c):
        return True
    if c is not None and h(v, a, c) == 1:
        return True
    if q * v == 1:
        return True
    for y in ys:
        if v == y / q or q * v * y == 1 or v * y == 1:
            return True
    for o in others:
        if v == o or v * o == 1 or q * v * o == 1 or v == q * o or o == q * v:
            return True
    return False


def alphabet(rng, m, lo, hi, den, q, a, c, ys, taken=()) -> tuple:
    """m distinct rationals n/den with lo < n/den < hi, off every pole."""
    window = range(int(lo * den) + 1, int(hi * den))
    out = []
    while len(out) < m:
        v = Fraction(rng.choice(window), den)
        if not hits_pole(v, tuple(taken) + tuple(out), q, a, c, ys):
            out.append(v)
    return tuple(out)


def near(rng, centre: float, spread: float) -> float:
    """A float within `spread` of `centre` (for the float workloads)."""
    return centre + spread * (2.0 * rng.random() - 1.0)
