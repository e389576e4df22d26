"""Shuffle algebra of symmetric rational functions, by evaluation.

A SymFun is a black-box evaluator of fixed arity; the shuffle product of
f (arity k) and g (arity l) evaluates as

    (f*g)(x_1..x_{k+l}) = sum_{|S|=k} f(x_S) g(x_Sc)
                          prod_{i in S, j in Sc} (1-x_i x_j)/(x_i-x_j),

which requires pairwise distinct arguments.  Products are commutative up
to the sign (-1)^(k*l); the arity-0 constant 1 is the identity.  Values
are memoised per function on the argument tuple as given: a product
passes each factor its arguments in their original order, so the nested
evaluations of one call meet every subset in one order.  Each product
keeps the cross factors (1 - ab)/(a - b) it has evaluated.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial

from .errors import ArityError, CapExceeded, DegeneratePoint

DEFAULT_ARITY_CAP = 8


class SymFun:
    """Symmetric function of fixed arity, evaluated on demand."""

    def __init__(self, arity: int, fn, name: str = "f"):
        if arity < 0:
            raise ArityError("arity must be >= 0")
        self.arity = arity
        self.fn = fn
        self.name = name
        self._memo = {}

    def __call__(self, args):
        args = tuple(args)
        if len(args) != self.arity:
            raise ArityError(f"{self.name}: expected {self.arity} args, got {len(args)}")
        got = self._memo.get(args)
        if got is None:
            got = self._memo[args] = self.fn(args)
        return got

    def scaled(self, factor) -> "SymFun":
        return SymFun(self.arity, lambda a: factor * self(a), f"{self.name}*k")

    def __repr__(self):
        return f"SymFun({self.name}, arity={self.arity})"


def constant(value=1) -> SymFun:
    return SymFun(0, lambda a: value, name=f"const({value})")


def shuffle_product(f: SymFun, g: SymFun) -> SymFun:
    """Shuffle product f * g as a new SymFun of arity f.arity + g.arity."""
    k, l = f.arity, g.arity
    if k + l > DEFAULT_ARITY_CAP:
        raise CapExceeded(f"shuffle arity {k + l} exceeds cap {DEFAULT_ARITY_CAP}")
    if k == 0:
        return g if _is_one(f) else g.scaled(f(()))
    if l == 0:
        return f if _is_one(g) else f.scaled(g(()))

    cross = {}  # (1 - ab)/(a - b) by argument pair, over every evaluation

    def kernel(a, b):
        got = cross.get((a, b))
        if got is None:
            got = cross[a, b] = (1 - a * b) / (a - b)
        return got

    def ev(args):
        n = len(args)
        if len(set(args)) != n:
            raise DegeneratePoint("shuffle product needs pairwise distinct arguments")
        kern_of = [[kernel(a, b) if i != j else None for j, b in enumerate(args)]
                   for i, a in enumerate(args)]
        total = 0
        idx = range(n)
        for S in combinations(idx, k):
            comp = tuple(i for i in idx if i not in S)
            kern = 1
            for i in S:
                row = kern_of[i]
                for j in comp:
                    kern = kern * row[j]
            total = total + f([args[i] for i in S]) * g([args[j] for j in comp]) * kern
        return total

    return SymFun(k + l, ev, name=f"({f.name}*{g.name})")


def shuffle_power(f: SymFun, j: int) -> SymFun:
    """j-fold shuffle power; j = 0 is the identity."""
    if j < 0:
        raise ArityError("power must be >= 0")
    if j * f.arity > DEFAULT_ARITY_CAP:
        raise CapExceeded(f"shuffle arity {j * f.arity} exceeds cap {DEFAULT_ARITY_CAP}")
    out = constant(1)
    for _ in range(j):
        out = shuffle_product(out, f)
    return out


def _is_one(f: SymFun) -> bool:
    return f.arity == 0 and f(()) == 1


def shuffle_exp_truncated(f, max_arity: int):
    """Arity-graded components of exp_*(f) = 1 + f + f*f/2! + ...

    f may be one SymFun or a list of SymFuns of distinct positive arities
    (a graded sum); returns [E_0, E_1, ..., E_max_arity] where E_m is a
    SymFun of arity m (zero components are the constant-0 evaluator).
    """
    comps = f if isinstance(f, (list, tuple)) else [f]
    if any(c.arity < 1 for c in comps):
        raise ArityError("exponent components must have arity >= 1")
    if max_arity > DEFAULT_ARITY_CAP:
        raise CapExceeded(f"max_arity {max_arity} exceeds cap {DEFAULT_ARITY_CAP}")
    grades = {}
    for c in comps:
        if c.arity in grades:
            raise ArityError("one component per arity in a graded sum")
        grades[c.arity] = c
    min_ar = min(grades)

    out = {0: constant(1)}
    power = {0: constant(1)}  # graded components of f^{*j}
    j = 1
    while j * min_ar <= max_arity:
        new_power = {}
        for m, pm in power.items():
            for a, ca in grades.items():
                if m + a > max_arity:
                    continue
                term = shuffle_product(pm, ca)
                if m + a in new_power:
                    prev = new_power[m + a]
                    new_power[m + a] = _sum_symfun(prev, term)
                else:
                    new_power[m + a] = term
        power = new_power
        for m, pm in power.items():
            out_term = pm.scaled(Fraction(1, factorial(j)))
            out[m] = _sum_symfun(out[m], out_term) if m in out else out_term
        j += 1
    return [out.get(m, _zero(m)) for m in range(max_arity + 1)]


def _sum_symfun(f: SymFun, g: SymFun) -> SymFun:
    if f.arity != g.arity:
        raise ArityError("cannot add different arities")
    return SymFun(f.arity, lambda a: f(a) + g(a), name=f"({f.name}+{g.name})")


def _zero(arity: int) -> SymFun:
    return SymFun(arity, lambda a: 0, name="0")


