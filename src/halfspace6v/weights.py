"""Local vertex and boundary weights of the stochastic six-vertex model
in half-space, plus exact verification of the local algebraic relations.

Edge states are 0/1 (path absent/present).  A bulk vertex with edges
(i, j; k, l) = (bottom, left; top, right) and spectral argument z carries
one of six nonzero weights; the "dotted" variant is the same table
re-normalised by (1-qz)/(1-z), and the "rotated" variant is the table
read after a 90-degree counterclockwise rotation (used on the lower,
left-moving row of a double-row operator).

A boundary (K) vertex has a single incoming and outgoing edge and weights
parameterised through

    h(x) = a*c*(1-x^2) / ((a-x)*(c-x)),

with the c -> infinity degeneration h(x) = a*(1-x^2)/(a-x) implemented as
its own table (entries 1-h, h, 0, 1).

Each weight is written once, in bulk_ints, k_ints and h_ints, which take
every argument as a (numerator, denominator) pair (scalars.as_pair) and
return numerators over one denominator.  Integer pairs give integer
numerators over one positive denominator, reduced by one gcd, with no
Fraction arithmetic; any other pair (a complex scalar or an array of lanes
over 1) has each numerator divided by the denominator once, in its own
scalars, over denominator 1.  bulk_table, k_table, h_func and h_over_ac
are views: one builder call on the pairs of their arguments, exact when
all of them are rational, with each entry made one Fraction when exact.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import DivisionByZero
from .scalars import RATIONAL, as_pair, is_array, is_exact, is_zero, parse_scalar, rand_rational

STOCHASTIC = "stochastic"
DOTTED = "dotted"
ROTATED = "rotated"

LOCAL_RELATIONS = ("ybe", "reflection", "r_unitarity", "k_unitarity", "factorization")
# verify_local_relation's residual bound off the rational backend (weights are O(1))
_FLOAT_TOL = 1e-10


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: q, boundary (a, c), and the three alphabets.

    The y-alphabet is extended on demand with a constant tail equal to its
    last entry (homogeneous specialisations use y = (1,)).
    """

    q: object
    a: object
    c: object = None
    x: tuple = ()
    z: tuple = ()
    y: tuple = (1,)
    c_infinite: bool = False

    def __post_init__(self):
        frac = lambda v: Fraction(v) if isinstance(v, int) else v
        object.__setattr__(self, "q", frac(self.q))
        object.__setattr__(self, "a", frac(self.a))
        object.__setattr__(self, "c", frac(self.c) if self.c is not None else None)
        object.__setattr__(self, "x", tuple(frac(v) for v in self.x))
        object.__setattr__(self, "z", tuple(frac(v) for v in self.z))
        y = tuple(frac(v) for v in self.y) if self.y else (Fraction(1),)
        object.__setattr__(self, "y", y)
        if not self.c_infinite and self.c is None:
            raise ValueError("c is required unless c_infinite is set")

    def y_at(self, j: int):
        """Vertical spectral parameter at column j (1-based), constant tail."""
        if j < 1:
            raise ValueError("column index is 1-based")
        return self.y[j - 1] if j <= len(self.y) else self.y[-1]

    @property
    def y_tail(self):
        return self.y[-1]

    def with_y(self, y) -> "ModelParams":
        return replace(self, y=tuple(y))


def params_from_json(obj: dict, backend: str = RATIONAL) -> ModelParams:
    """Build ModelParams from the parameter-file JSON object."""
    c_infinite = bool(obj.get("c_infinite", False))
    p = lambda key, default=None: (
        parse_scalar(obj[key], backend) if key in obj else default
    )
    alph = lambda key: tuple(parse_scalar(v, backend) for v in obj.get(key, ()))
    return ModelParams(
        q=p("q"),
        a=p("a"),
        c=None if c_infinite and obj.get("c") is None else p("c"),
        x=alph("x"),
        z=alph("z"),
        y=alph("y") or (Fraction(1) if backend == RATIONAL else 1.0,),
        c_infinite=c_infinite,
    )


def load_params(path: str, backend: str = RATIONAL) -> ModelParams:
    with open(path) as fh:
        return params_from_json(json.load(fh), backend)


# ---------------------------------------------------------------------------
# Boundary weights
# ---------------------------------------------------------------------------


def h_ints(xn, xd, params: ModelParams):
    """h(x) and h(x)/(ac) at x = xn/xd as one triple (H, O, P): h = H/P and
    h/(ac) = O/P (O = 0 when c is infinite).

    From (1-x^2) xd^2 = (xd-xn)(xd+xn) and (a-x) ad xd = an xd - ad xn:
    H = an cn (xd-xn)(xd+xn), O = ad cd (xd-xn)(xd+xn) and P = (an xd - ad xn)
    (cn xd - cd xn); at infinite c, H = an (xd-xn)(xd+xn) and P = xd (an xd -
    ad xn).  An integer x with rational a and c gives integers reduced by one
    gcd with P > 0; any other input gives H/P, O/P and 1.  x = +-1 gives h = 0
    before any pole is checked (see h_func).
    """
    if xd == 0:
        raise ZeroDivisionError(f"x = {xn}/0")
    u, v = xd - xn, xd + xn
    if not is_array(u) and (u == 0 or v == 0):
        return 0 * u, 0 * u, 1
    a, c = params.a, params.c
    exact = type(u) is int and is_exact(a) and (params.c_infinite or is_exact(c))
    an, ad = as_pair(a, exact)
    bottom = an * xd - ad * xn
    if params.c_infinite:
        H, O, P = an * u * v, 0, xd * bottom
    else:
        cn, cd = as_pair(c, exact)
        H, O, P = an * cn * u * v, ad * cd * u * v, bottom * (cn * xd - cd * xn)
    if not is_array(P) and P == 0:
        raise DivisionByZero(f"h(x): pole (a-x) or (c-x) vanishes at x={xn}/{xd}")
    if not exact:
        return H / P, O / P, 1
    g = math.gcd(H, O, P) if P > 0 else -math.gcd(H, O, P)
    return H // g, O // g, P // g


def k_ints(xn, xd, params: ModelParams):
    """The K table at x = xn/xd as (((1-h, h), (-h/(ac), 1+h/(ac))) numerators,
    den), over den = P of h_ints."""
    H, O, P = h_ints(xn, xd, params)
    return ((P - H, H), (-O, P + O)), P


def _k_rational(x, params: ModelParams) -> bool:
    """Whether x, a and (unless infinite) c are rational."""
    return is_exact(x) and is_exact(params.a) and (params.c_infinite or is_exact(params.c))


def h_func(x, params: ModelParams):
    """h(x) = ac(1-x^2)/((a-x)(c-x)); a(1-x^2)/(a-x) when c is infinite.

    h(+-1) is exactly 0: the numerator zero takes precedence, so the
    boundary matrix at x = +-1 is the identity for every (a, c), which is
    the convention behind A(+-1) = id and the odd-size Pfaffian reduction
    Z_{2l-1}(x) = Z_{2l}(x, 1) even at degenerate boundary points like
    a = 1, c = -1.
    """
    exact = _k_rational(x, params)
    H, _, P = h_ints(*as_pair(x, exact), params)
    return Fraction(H, P) if exact else H


def h_over_ac(x, params: ModelParams):
    """h(x)/(ac) = (1-x^2)/((a-x)(c-x)); 0 when c is infinite."""
    exact = _k_rational(x, params)
    _, O, P = h_ints(*as_pair(x, exact), params)
    return Fraction(O, P) if exact else O


def k_table(x, params: ModelParams):
    """The four K-weights at x as K[i][j] (incoming i, outgoing j): the
    k_ints table."""
    exact = _k_rational(x, params)
    K, den = k_ints(*as_pair(x, exact), params)
    return tuple(tuple(Fraction(k, den) for k in row) for row in K) if exact else K


def boundary_weight(i: int, j: int, x, params: ModelParams):
    """K-weight for incoming edge state i and outgoing edge state j."""
    if i not in (0, 1) or j not in (0, 1):
        raise ValueError(f"edge states must be 0/1, got ({i}, {j})")
    return k_table(x, params)[i][j]


# ---------------------------------------------------------------------------
# Bulk weights
# ---------------------------------------------------------------------------


class WeightTable(dict):
    """{(i, j): [(k, l, w)]}: nonzero vertex weights by input edges.  An input
    at a pole of its weights is absent and raises DivisionByZero when used."""

    def __missing__(self, key):
        raise DivisionByZero(f"bulk weight pole for input edges {key}")


def _check_variant(variant):
    if variant not in (STOCHASTIC, DOTTED, ROTATED):
        raise ValueError(f"unknown bulk weight variant {variant!r}")


def _pole_table(variant) -> WeightTable:
    """The table at a zero of its denominator: only the vertices of weight 1
    do not divide."""
    return WeightTable({} if variant == DOTTED else {(0, 0): [(0, 0, 1)], (1, 1): [(1, 1, 1)]})


def _weight_rows(full, left, below, variant) -> WeightTable:
    """The table from its full-vertex weight and the weights of a path
    entering from the left (input (0, 1)) or from below (1, 0), zeros
    dropped; the rotation swaps the two inputs' weights."""
    if variant == ROTATED:
        left, below = below, left
    rows = {
        (0, 0): [(0, 0, full)],
        (0, 1): [(0, 1, left[0]), (1, 0, left[1])],
        (1, 0): [(1, 0, below[0]), (0, 1, below[1])],
        (1, 1): [(1, 1, full)],
    }
    return WeightTable({ij: [e for e in es if not is_zero(e[2])] for ij, es in rows.items()})


def bulk_ints(zn, zd, variant, qn, qd):
    """bulk_table at z = zn/zd and q = qn/qd as (table of numerators, den).

    Over qd zd, the stochastic weights 1, (1-z, z(1-q)) and (q(1-z), 1-q) and
    their denominator 1 - qz have the numerators full = qd zd - qn zn,
    (qd (zd-zn), zn (qd-qn)) and (qn (zd-zn), zd (qd-qn)); the dotted table
    has the same numerators over (1-z) qd zd = qd (zd - zn).  Integer input
    gives integers reduced by one gcd with den > 0; any other input gives
    each numerator over den, and den 1, with the weight-1 vertex (whose
    numerator is den itself) the int 1.
    """
    _check_variant(variant)
    if not is_array(zd) and zd == 0:
        raise ZeroDivisionError(f"z = {zn}/0")
    d, p = zd - zn, qd - qn
    full, left, below = qd * zd - qn * zn, (qd * d, zn * p), (qn * d, zd * p)
    den = left[0] if variant == DOTTED else full
    if not is_array(den) and den == 0:
        return _pole_table(variant), 1
    if type(full) is not int:
        w = [1 if n is den else n / den for n in (full, *left, *below)]
        return _weight_rows(w[0], w[1:3], w[3:], variant), 1
    g = math.gcd(den, full, *left, *below)
    if den < 0:
        g = -g
    left, below = (left[0] // g, left[1] // g), (below[0] // g, below[1] // g)
    return _weight_rows(full // g, left, below, variant), den // g


def bulk_table(z, variant, q) -> WeightTable:
    """The nonzero bulk weights at spectral argument z as {(i, j): [(k, l, w)]},
    each written once over the variant's one denominator: 1 - qz for the
    stochastic table, 1 - z for the dotted one.  The rotated table is the
    stochastic one with keys (j, i; l, k): (vertical-in, right-in;
    vertical-out, left-out) of a left-moving lower row.  The bulk_ints
    table, each weight one Fraction when z and q are rational."""
    exact = is_exact(z) and is_exact(q)
    table, den = bulk_ints(*as_pair(z, exact), variant, *as_pair(q, exact))
    if not exact:
        return table
    return WeightTable({ij: [(k, l, Fraction(w, den)) for k, l, w in es]
                        for ij, es in table.items()})


def bulk_weight(i, j, k, l, z, variant, q):
    """Weight of a bulk vertex (i, j; k, l) of the variant ('stochastic',
    'dotted' or 'rotated') at spectral argument z: its bulk_table entry, 0
    off the ice rule.  An input at a pole raises DivisionByZero."""
    if not {i, j, k, l} <= {0, 1}:
        raise ValueError(f"edge states must be 0/1, got ({i}, {j}, {k}, {l})")
    if i + j != k + l:
        return 0
    return next((w for kk, ll, w in bulk_table(z, variant, q)[i, j] if (kk, ll) == (k, l)), 0)


# ---------------------------------------------------------------------------
# Matrix forms (exact dense linear algebra on 2/4/8-dimensional spaces)
# ---------------------------------------------------------------------------


def _matmul(A, B):
    """A B over the nonzero entries of A and B only."""
    B_nz = [[(c, v) for c, v in enumerate(row) if v != 0] for row in B]
    out = []
    for row in A:
        acc = [0] * len(B[0])
        for a, b_row in zip(row, B_nz):
            if a != 0:
                for c, v in b_row:
                    acc[c] = acc[c] + a * v
        out.append(acc)
    return out


def _eye(n, diag=1):
    return [[diag if r == c else 0 for c in range(n)] for r in range(n)]


def _r_of(table):
    """4x4 R-matrix on V1 (horizontal) x V2 (vertical) of a stochastic
    table: row/column index 2*v1 + v2, entry [(j, i), (l, k)] the vertex
    weight (i, j; k, l).  Every input is read, so a table at a pole raises
    DivisionByZero."""
    M = [[0] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            for k, l, w in table[i, j]:
                M[2 * j + i][2 * l + k] = w
    return M


def _embed(M, n_spaces, sites):
    """Embed an operator on the spaces `sites` into n_spaces qubits.  The
    first site is the leading bit of M's index (as in _r_of: the
    horizontal space, then the vertical one)."""
    dim = 1 << n_spaces
    out = [[0] * dim for _ in range(dim)]
    for row in range(dim):
        bits = [(row >> (n_spaces - 1 - s)) & 1 for s in range(n_spaces)]
        r = 0
        for s in sites:
            r = 2 * r + bits[s]
        for c, w in enumerate(M[r]):
            if w == 0:
                continue
            for pos, s in enumerate(sites):
                bits[s] = (c >> (len(sites) - 1 - pos)) & 1
            col = 0
            for b in bits:
                col = (col << 1) | b
            out[row][col] = out[row][col] + w
    return out


def _max_abs_diff(A, B):
    return max(abs(a - b) for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def verify_local_relation(relation: str, point: dict) -> tuple[bool, float]:
    """Check one local relation at a concrete parameter point.

    point carries whichever of q, a, c, x, y, z the relation needs (plus
    c_infinite).  Both sides are contracted over all internal edge states
    for every fixed boundary assignment, i.e. compared entrywise as dense
    matrices.  Returns (equal, max residual); equality is exact in the
    rational backend, within _FLOAT_TOL otherwise.

    Each distinct matrix is built once, as (entries, den), from bulk_ints
    and k_ints with every spectral argument a (numerator, denominator)
    pair.  On a rational point the entries are integers, so both sides are
    integer matrices over the same product of dens and equality is integer
    equality; on any other point every den is 1.
    """
    exact = all(is_exact(v) for v in point.values() if not isinstance(v, bool))
    x, y, z = (as_pair(v, exact) if v is not None else None for v in map(point.get, "xyz"))
    div = lambda u, v: (u[0] * v[1], u[1] * v[0])
    mul = lambda u, v: (u[0] * v[0], u[1] * v[1])
    inv = lambda u: (u[1], u[0])
    one = (1, 1)

    def R(w):
        table, den = bulk_ints(*w, STOCHASTIC, *as_pair(point["q"], exact))
        return _r_of(table), den

    if relation == "ybe":
        (R12, d12), (R13, d13), (R23, d23) = R(div(y, x)), R(div(z, x)), R(div(z, y))
        E12, E13, E23 = _embed(R12, 3, (0, 1)), _embed(R13, 3, (0, 2)), _embed(R23, 3, (1, 2))
        lhs = _matmul(_matmul(E12, E13), E23)
        rhs = _matmul(_matmul(E23, E13), E12)
        den = d12 * d13 * d23
    elif relation == "reflection":
        params = _point_params(point)
        (Ra, da), (Rb, db) = R(div(x, y)), R(mul(x, y))
        (K1, d1), (K2, d2) = k_ints(*x, params), k_ints(*y, params)
        K1, K2 = _embed(K1, 2, (0,)), _embed(K2, 2, (1,))
        lhs = _matmul(_matmul(_matmul(_embed(Ra, 2, (1, 0)), K1), _embed(Rb, 2, (0, 1))), K2)
        rhs = _matmul(_matmul(_matmul(K2, _embed(Rb, 2, (1, 0))), K1), _embed(Ra, 2, (0, 1)))
        den = da * db * d1 * d2
    elif relation == "r_unitarity":
        (Ra, da), (Rb, db) = R(div(x, y)), R(div(y, x))
        lhs = _matmul(_embed(Ra, 2, (1, 0)), _embed(Rb, 2, (0, 1)))
        den = da * db
        rhs = _eye(4, den)
    elif relation == "k_unitarity":
        params = _point_params(point)
        (Ka, da), (Kb, db) = k_ints(*x, params), k_ints(*inv(x), params)
        lhs = _matmul(Ka, Kb)
        den = da * db
        rhs = _eye(2, den)
    elif relation == "factorization":
        lhs, den = R(one)
        rhs = [[0] * 4 for _ in range(4)]
        for i in range(2):
            for j in range(2):
                rhs[2 * j + i][2 * i + j] = den  # delta_{i,l} delta_{j,k}
    else:
        raise ValueError(f"unknown relation {relation!r}")

    resid = _max_abs_diff(lhs, rhs)
    if exact:
        return resid == 0, float(Fraction(resid, den))
    return float(resid) <= _FLOAT_TOL, float(resid)


def _point_params(point: dict) -> ModelParams:
    return ModelParams(
        q=point.get("q", 0),
        a=point.get("a"),
        c=point.get("c"),
        c_infinite=point.get("c_infinite", False),
    )


def random_relation_point(relation: str, rng: random.Random) -> dict:
    """Random rational parameter point with all relevant denominators nonzero."""
    while True:
        pt = {
            "q": rand_rational(rng),
            "x": rand_rational(rng),
            "y": rand_rational(rng),
            "z": rand_rational(rng),
            "a": rand_rational(rng),
            "c": rand_rational(rng),
        }
        try:
            if _relation_point_ok(relation, pt):
                return pt
        except ZeroDivisionError:
            continue


def _relation_point_ok(relation: str, pt: dict) -> bool:
    q, x, y, z, a, c = (pt[k] for k in "qxyzac")
    if 0 in (x, y, z) or q == 1:
        return False
    ratios = [y / x, z / x, z / y, x * y, x / y, 1 / x]
    if any(r == 0 for r in ratios):
        return False
    for w in ratios:
        if 1 - q * w == 0 or (relation == "reflection" and w == 1):
            return False
    if relation in ("reflection", "k_unitarity"):
        for p in (a, c):
            for v in (x, y, 1 / x, 1 / y):
                if p - v == 0:
                    return False
    return True


def verify_all_local_relations(trials: int = 20, seed: int = 0) -> dict:
    """Run every local relation at `trials` random rational points.

    Returns {relation: (all_exact, max_residual)}.  Fewer than one trial
    raises ValueError: a report on no point would read as a pass.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    report = {}
    for idx, relation in enumerate(LOCAL_RELATIONS):
        rng = random.Random(100003 * seed + idx)
        worst = 0.0
        ok = True
        for _ in range(trials):
            pt = random_relation_point(relation, rng)
            good, resid = verify_local_relation(relation, pt)
            ok = ok and good
            worst = max(worst, resid)
        report[relation] = (ok, worst)
    return report
