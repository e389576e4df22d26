"""Shuffle algebra of symmetric rational functions, by evaluation.

A SymFun is a black-box evaluator of fixed arity; the shuffle product of
f (arity k) and g (arity l) evaluates as

    (f*g)(x_1..x_{k+l}) = sum_{|S|=k} f(x_S) g(x_Sc)
                          prod_{i in S, j in Sc} (1-x_i x_j)/(x_i-x_j),

which requires pairwise distinct arguments.  Products are commutative up
to the sign (-1)^(k*l); the arity-0 constant 1 is the identity.

Products are fraction-free: they evaluate on arguments given as pairs
(num, den) (scalars.as_pair), integers for rationals, with the cross factor
r/s of scalars.pair_ints and terms added over the lcm of their
denominators; a call makes its one Fraction at the end.  Pair values are
memoised per function on the argument pairs as given (no Fraction is
hashed); a product passes each factor its arguments in their original
order, so one evaluation meets each subset in one order.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial

from .errors import ArityError, CapExceeded, DegeneratePoint
from .scalars import add_ratio, as_pair, is_exact, pair_ints

DEFAULT_ARITY_CAP = 8


class SymFun:
    """Symmetric function of fixed arity, evaluated on demand by fn or, when
    given, by ints on argument pairs (returning a pair)."""

    def __init__(self, arity: int, fn, name: str = "f", ints=None):
        if arity < 0:
            raise ArityError("arity must be >= 0")
        self.arity = arity
        self.fn = fn
        self.name = name
        self.ints = ints
        self._memo, self._pair_memo = {}, {}

    def __call__(self, args):
        args = tuple(args)
        if len(args) != self.arity:
            raise ArityError(f"{self.name}: expected {self.arity} args, got {len(args)}")
        if self.ints is not None:
            num, den = self.ratio(tuple(as_pair(a, is_exact(a)) for a in args))
            return Fraction(num, den) if type(num) is int and type(den) is int else num / den
        got = self._memo.get(args)
        if got is None:
            got = self._memo[args] = self.fn(args)
        return got

    def ratio(self, pairs) -> tuple:
        """The value at argument pairs, as a pair."""
        got = self._pair_memo.get(pairs)
        if got is None:
            if self.ints is None:
                v = self(tuple(Fraction(*p) if type(p[0]) is int else p[0] / p[1] for p in pairs))
                got = as_pair(v, is_exact(v))
            else:
                got = self.ints(pairs)
            self._pair_memo[pairs] = got
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

    def ints(pairs):
        n = len(pairs)
        if len(set(pairs)) != n:
            raise DegeneratePoint("shuffle product needs pairwise distinct arguments")
        kern_of = [[pair_ints(a, b, (0, 1))[:2] if i != j else None for j, b in enumerate(pairs)]
                   for i, a in enumerate(pairs)]
        total = 0, 1
        idx = range(n)
        for S in combinations(idx, k):
            comp = tuple(i for i in idx if i not in S)
            fn, fd = f.ratio(tuple(pairs[i] for i in S))
            gn, gd = g.ratio(tuple(pairs[j] for j in comp))
            num, den = fn * gn, fd * gd
            for i in S:
                row = kern_of[i]
                for j in comp:
                    num, den = num * row[j][1], den * row[j][0]  # (1 - ab)/(a - b)
            total = add_ratio(total, num, den)
        return total

    return SymFun(k + l, None, name=f"({f.name}*{g.name})", ints=ints)


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


