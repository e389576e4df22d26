"""The triangular partition function Z_m by five independent routes.

Z_m is the half-quadrant six-vertex partition function with boundary
vertices on the diagonal, bulk argument x_i x_j at the crossing of lines
i and j, and all external edges empty.  Routes:

  z_enumerate         line-by-line sum over the triangle with merged edge
                      states (trusted oracle, m <= 12)
  z_pfaffian          prefactor * Pf((x_i-x_j)/(1-x_i x_j) Q(x_i, x_j)),
                      bordered at odd m
  z_subset_kuperberg  even-subset sum over Kuperberg Pfaffians
  z_shuffle           shuffle powers of the closed forms Z_1, Z_2
  z_altform           even/odd Pfaffian pair with a generating parameter u;
                      u = 1 recovers Z_m
  z_altform_subset    the same Z_m(u; x) as an explicit sum over subsets

Every single-Pfaffian formula is prod_{i<j} 1/S(x_i, x_j) times the
Pfaffian of a skew kernel, bordered at odd size; the subset route takes
its Kuperberg Pfaffians as submatrices of one matrix per alphabet.

On rational input (rowops._all_exact, decided once per call) every route
is fraction-free and makes one Fraction at the end.  z_enumerate reads
rowops' integer tables; in the others each x is an integer pair (n, d), h
and h/(ac) come from weights.h_ints, kernels are integer (num, den) pairs,
a Pfaffian is taken over the integers once one common denominator clears
its matrix, and terms add over the lcm of their denominators.  On other
input z_pfaffian keeps its scalar expressions (_pf_over_s), and the rest
run the same pair formulas with each value v as (v, 1).

Closed forms at small size:
  Z_0 = 1,  Z_1 = 1 - h(x_1),
  Z_2 = (1-h(x_1))(1-h(x_2)) - h(x_1)h(x_2)/(ac) * (1-q)x_1x_2/(1-q x_1x_2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial, lcm, prod

from .errors import CapExceeded, DegeneratePoint
from .pfaffian import pfaffian, pfaffian_upper
from .rowops import _all_exact, frontier_value, triangle_states
from .scalars import add_ratio, as_pair, is_exact, pair_ints
from .shuffle import DEFAULT_ARITY_CAP, SymFun, shuffle_power, shuffle_product
from .weights import ModelParams, h_func, h_ints, h_over_ac

ENUM_CAP = 12


@dataclass
class TriangularSpec:
    """Evaluation request: alphabet, model parameters, and the generating
    parameter u of the alternative form (u = 1 recovers Z_m)."""

    x: tuple
    params: ModelParams
    u: object = 1

    def __post_init__(self):
        self.x = tuple(self.x)

    @property
    def m(self) -> int:
        return len(self.x)


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def kernel_S(xi, xj):
    den = 1 - xi * xj
    if den == 0:
        raise DegeneratePoint("1 - x_i x_j vanished in S")
    return (xi - xj) / den


def kernel_Q(xi, xj, hi, hj, hoa_j, q):
    """Symmetric kernel of the single-Pfaffian formula, from hi = h(x_i),
    hj = h(x_j) and hoa_j = h(x_j)/(ac)."""
    den = 1 - q * xi * xj
    if den == 0:
        raise DegeneratePoint("1 - q x_i x_j vanished in Q")
    return (1 - hi) * (1 - hj) - hi * hoa_j * (1 - q) * xi * xj / den


def _h_triple(p, params: ModelParams, exact: bool):
    """(H, O, P) = h_ints at the pair p when exact, else (h, h/(ac), 1)."""
    if exact:
        return h_ints(*p, params)
    x = p[0] / p[1]
    return h_func(x, params), h_over_ac(x, params), 1


def _alphabet(xs, params: ModelParams, exact: bool):
    """(ps, q, hs): the entries and q by as_pair, and each _h_triple."""
    ps = [as_pair(x, exact) for x in xs]
    return ps, as_pair(params.q, exact), [_h_triple(p, params, exact) for p in ps]


def _pairs(ps, q, r_pole=True):
    """{(i, j): pair_ints(ps[i], ps[j], q)} over i < j; coinciding entries,
    1 - q x_i x_j = 0 and, if r_pole, x_i x_j = 1 raise DegeneratePoint."""
    out = {}
    for i, j in combinations(range(len(ps)), 2):
        s, r, t = out[i, j] = pair_ints(ps[i], ps[j], q)
        if s == 0 or t == 0 or (r_pole and r == 0):
            raise DegeneratePoint("coinciding entries, x_i x_j = 1 or 1 - q x_i x_j = 0")
    return out


def _over_lcm(cells, n, exact: bool):
    """(M, D): the upper triangle M[i][j] = D num/den of order n for cells
    (i, j): (num, den), D the lcm of the dens when exact, else 1."""
    D = lcm(*(den for _, den in cells.values())) if exact else 1
    M = [[0] * n for _ in range(n)]
    for (i, j), (num, den) in cells.items():
        M[i][j] = num * (D // den) if exact else num / den
    return M, D


def _pf_pair(ps, pairs, exact: bool, entry, border=None):
    """prod_{i<j} 1/S(x_i, x_j) * Pf(entry(i, j, *pairs[i, j])), bordered by
    border(i), as a pair: entries are pairs over one denominator D, and
    Pf(D K) = D^(n/2) Pf K."""
    m, cells, num, den = len(ps), {}, 1, 1
    n = m + (border is not None)
    for i, j in combinations(range(m), 2):
        s, r, t = pairs[i, j]
        cells[i, j] = entry(i, j, s, r, t)
        num, den = num * r, den * s
    if border is not None:
        cells.update(((i, m), border(i)) for i in range(m))
    M, D = _over_lcm(cells, n, exact)
    return num * pfaffian_upper(M, exact), den * D ** (n // 2)


def _kuperberg(ps, q):
    """Kuperberg's kernel (1-q)(x_i-x_j)/((1-x_i x_j)(1-q x_i x_j)) as the
    _pf_pair entry (1-q) q_d s d_i d_j/(q_d r t)."""
    return lambda i, j, s, r, t: ((q[1] - q[0]) * s * ps[i][1] * ps[j][1], r * t)


# ---------------------------------------------------------------------------
# Route 1: line-by-line sum over the triangle (the oracle)
# ---------------------------------------------------------------------------


def z_enumerate(spec: TriangularSpec):
    """Sum the triangle line by line, merging equal edge states (m <= ENUM_CAP = 12).

    Line i crosses lines 1..i-1 (weights at z = x_i x_j) and turns at its
    boundary vertex; Z_m is the weight of the all-empty edge state after
    line m (rowops.triangle_states).
    """
    m = spec.m
    if m > ENUM_CAP:
        raise CapExceeded(f"enumeration size {m} exceeds cap {ENUM_CAP}")
    return frontier_value(triangle_states(spec.x, spec.params), (0,) * m)


# ---------------------------------------------------------------------------
# Route 2: single Pfaffian
# ---------------------------------------------------------------------------


def _check_distinct(xs):
    n = len(xs)
    for i in range(n):
        for j in range(i + 1, n):
            if xs[i] == xs[j]:
                raise DegeneratePoint(f"coinciding alphabet entries x={xs[i]}")
            if 1 - xs[i] * xs[j] == 0:
                raise DegeneratePoint("x_i x_j = 1 in prefactor")


def _pf_over_s(xs, entry, border=None):
    """prod_{i<j} 1/S(x_i, x_j) * Pf(entry(i, j, S(x_i, x_j))) in the
    alphabet's own scalars: entry fills the upper triangle by index and is
    mirrored, and a given border appends the column border(i) (odd sizes)."""
    m = len(xs)
    n = m + (border is not None)
    pref = 1
    M = [[0] * n for _ in range(n)]
    for i in range(m):
        for j in range(i + 1, m):
            s = kernel_S(xs[i], xs[j])
            M[i][j] = entry(i, j, s)
            M[j][i] = -M[i][j]
            pref = pref / s
        if border is not None:
            M[i][m] = border(i)
            M[m][i] = -M[i][m]
    return pref * pfaffian(M, validate=False)


def z_pfaffian(spec: TriangularSpec):
    """Prefactor times Pf((x_i-x_j)/(1-x_i x_j) * Q(x_i, x_j)).

    Odd sizes are bordered: Z_{2l-1}(x) is the limit of Z_{2l}(x, t) at
    t -> 1, where S(x_i, t) -> -1 and Q(x_i, t) -> 1 - h(x_i) (h(1) = 0),
    so the border column holds -(1 - h(x_i)) and the prefactor gains
    (-1)^m.  Substituting t = 1 instead would put 0/0 into S when an entry
    is 1 and into Q when an entry is 1/q, although Z is finite there.
    On rational input S Q = s ((1-h_i)(1-h_j) t - h_i h_j/(ac) (1-q) q_d
    x_i x_j)/(r t) in the terms of _pf_pair.
    """
    xs, params = spec.x, spec.params
    m = len(xs)
    if _all_exact(params, xs):
        ps, q, hs = _alphabet(xs, params, True)

        def entry(i, j, s, r, t):
            (H, _, P), (Hj, Oj, Pj) = hs[i], hs[j]
            u = (q[1] - q[0]) * ps[i][0] * ps[j][0]
            return s * ((P - H) * (Pj - Hj) * t - H * Oj * u), r * P * Pj * t

        border = (lambda i: (hs[i][0] - hs[i][2], hs[i][2])) if m % 2 else None
        num, den = _pf_pair(ps, _pairs(ps, q), True, entry, border)
        return Fraction((-1) ** m * num, den)
    _check_distinct(xs)
    hs, hoa = [h_func(x, params) for x in xs], [h_over_ac(x, params) for x in xs]
    entry = lambda i, j, s: s * kernel_Q(xs[i], xs[j], hs[i], hs[j], hoa[j], params.q)
    border = (lambda i: hs[i] - 1) if m % 2 else None
    return (-1) ** m * _pf_over_s(xs, entry, border)


# ---------------------------------------------------------------------------
# Route 3: subset sum over Kuperberg Pfaffians
# ---------------------------------------------------------------------------


def z_kuperberg(xs, q):
    """Z^K_m: the partition function at the off-diagonal boundary point
    a = 1, c = -1, as a single Pfaffian; vanishes for odd m."""
    if len(xs) % 2 == 1:
        return 0
    exact = all(is_exact(v) for v in (q, *xs))
    ps, q = [as_pair(x, exact) for x in xs], as_pair(q, exact)
    num, den = _pf_pair(ps, _pairs(ps, q), exact, _kuperberg(ps, q))
    return prod(xs) * (Fraction(num, den) if exact else num / den)


def z_subset_kuperberg(spec: TriangularSpec):
    """Even-subset expansion with general boundary weights.

    With the c -> infinity table only the empty subset survives and the
    function factorises to prod x_i (1 - a x_i)/(x_i - a).

    The subset S's term is (-1/(ac))^(|S|/2) prod_{i in S} h_i/(1-h_i) x_i
    prod_{i in S, j not in S} 1/S(x_i, x_j) times Z^K on S, whose prefactor
    prod_{i<j in S} 1/S(x_i, x_j) and Kuperberg Pfaffian come from the same
    1/S table and one Kuperberg matrix over the whole alphabet.
    """
    exact = _all_exact(spec.params, spec.x)
    num, den = _z_subset_pair(*_alphabet(spec.x, spec.params, exact), spec.params, exact)
    return Fraction(num, den) if exact else num / den


def _z_subset_pair(ps, q, hs, params: ModelParams, exact: bool):
    """z_subset_kuperberg on the _alphabet (ps, q, hs), as a pair (num, den)."""
    num, den = prod(P - H for H, _, P in hs), prod(P for _, _, P in hs)  # prod (1 - h_i)
    if params.c_infinite:
        return num, den
    m, pairs = len(ps), _pairs(ps, q)
    if any(H == P for H, _, P in hs):
        raise DegeneratePoint("h(x_i) = 1 makes the subset weights singular")
    weight = [(H * n, (P - H) * d) for (H, _, P), (n, d) in zip(hs, ps)]  # h x/(1 - h)
    K, D = _over_lcm({ij: _kuperberg(ps, q)(*ij, *srt) for ij, srt in pairs.items()}, m, exact)
    (an, ad), (cn, cd) = as_pair(params.a, exact), as_pair(params.c, exact)
    total = 0, 1
    for size in range(0, m + 1, 2):
        for S in combinations(range(m), size):
            # (-1/(ac))^(size/2) over the D^(size/2) that clears the Pfaffian
            tn, td = (-ad * cd) ** (size // 2), (an * cn * D) ** (size // 2)
            for i in S:
                tn, td = tn * weight[i][0], td * weight[i][1]
            for (i, j), (s, r, _) in pairs.items():  # 1/S(x_i, x_j) = r/s, i in S
                if i in S or j in S:
                    tn, td = tn * r, td * (s if i in S else -s)
            if S:
                tn *= pfaffian_upper([[K[i][j] for j in S] for i in S], exact)
            total = add_ratio(total, tn, td)
    return num * total[0], den * total[1]


# ---------------------------------------------------------------------------
# Route 4: shuffle powers of Z_1, Z_2
# ---------------------------------------------------------------------------


def z1_symfun(params: ModelParams) -> SymFun:
    exact = _all_exact(params, ())

    def ints(args):
        H, _, P = _h_triple(args[0], params, exact and type(args[0][0]) is int)
        return P - H, P

    return SymFun(1, None, name="Z1", ints=ints)


def z2_symfun(params: ModelParams) -> SymFun:
    """Z_2 = ((1-h_1)(1-h_2) t - h_1 h_2/(ac) (1-q) q_d n_1 n_2)/t on pairs."""
    exact = _all_exact(params, ())
    h_of = lru_cache(None)(lambda p: _h_triple(p, params, exact and type(p[0]) is int))

    def ints(args):
        (n1, d1), (n2, d2) = args
        (qn, qd), (H1, _, P1), (H2, O2, P2) = as_pair(params.q, exact), h_of(args[0]), h_of(args[1])
        t = qd * d1 * d2 - qn * n1 * n2
        if t == 0:
            raise DegeneratePoint("1 - q x_1 x_2 vanished in Z_2")
        return (P1 - H1) * (P2 - H2) * t - H1 * O2 * (qd - qn) * n1 * n2, P1 * P2 * t

    return SymFun(2, None, name="Z2", ints=ints)


def z_shuffle(spec: TriangularSpec):
    """Z_{2m} = Z_2^{*m}/m!,  Z_{2m+1} = Z_1 * Z_2^{*m}/m!."""
    xs, params = spec.x, spec.params
    m = len(xs)
    if m > DEFAULT_ARITY_CAP:
        raise CapExceeded(f"shuffle size {m} exceeds cap {DEFAULT_ARITY_CAP}")
    if m == 0:
        return 1
    half = m // 2
    f = shuffle_power(z2_symfun(params), half)
    if m % 2 == 1:
        f = shuffle_product(z1_symfun(params), f)
    exact = _all_exact(params, xs)
    num, den = f.ratio(tuple(as_pair(x, exact) for x in xs))
    return Fraction(num, den * factorial(half)) if exact else num / (den * factorial(half))


# ---------------------------------------------------------------------------
# Route 5: alternative (even/odd Pfaffian) form with generating parameter u
# ---------------------------------------------------------------------------


def z_altform(spec: TriangularSpec):
    """Z_m(u; x) = Z^e_m + Z^o_m by the even/odd Pfaffian pair (parities
    off by one are crossed through the value 1); at u = 1 this is Z_m.
    Finite c only.  Z^e has the kernel S + u^2 q x_i x_j h_i h_j/(ac) (x_i -
    x_j)/(1 - q x_i x_j), Z^o the kernel x_i x_j S + u^2 h_i h_j/(ac) (x_i -
    x_j)/(1 - q x_i x_j) and the border -u h(x_i).
    """
    xs, params = spec.x, spec.params
    if params.c_infinite:
        raise DegeneratePoint("alternative form is implemented for finite c")
    m = len(xs)
    if m == 0:
        return 1
    exact = _all_exact(params, xs + (spec.u,))
    (ps, q, hs), u = _alphabet(xs + (1,), params, exact), as_pair(spec.u, exact)
    pairs = _pairs(ps, q)

    def kernel(odd):
        def entry(i, j, s, r, t):
            (H, _, P), (_, Oj, Pj), (ni, di), (nj, dj) = hs[i], hs[j], ps[i], ps[j]
            A, b, c = u[1] ** 2 * t * P * Pj, ni * nj, di * dj
            v, w, qk = (b, c, q[1]) if odd else (c, b, q[0])
            return s * (v * A + u[0] ** 2 * qk * w * H * Oj * r), c * r * A

        return entry

    edge = lambda i: (-u[0] * hs[i][0], u[1] * hs[i][2])
    # Z^e_m := Z^e_{m+1}(x, 1) at odd m, Z^o_m := Z^o_{m+1}(x, 1) at even m
    ze = _pf_pair(ps if m % 2 else ps[:m], pairs, exact, kernel(False))
    zo = _pf_pair(ps[:m] if m % 2 else ps, pairs, exact, kernel(True), edge)
    num, den = add_ratio(ze, *zo)
    return Fraction(num, den) if exact else num / den


def z_altform_subset(spec: TriangularSpec):
    """Z_m(u; x) as the explicit sum over subsets S with weights g_S, the
    second route of the alternative form, on the pairs of _alphabet (each
    term a product of integers on rational input).  Finite c only."""
    xs, params = spec.x, spec.params
    if params.c_infinite:
        raise DegeneratePoint("alternative form is implemented for finite c")
    exact = _all_exact(params, xs + (spec.u,))
    (ps, q, hs), u = _alphabet(xs, params, exact), as_pair(spec.u, exact)
    pairs, total = _pairs(ps, q, r_pole=False), (0, 1)
    for size in range(len(xs) + 1):
        for S in combinations(range(len(xs)), size):
            r = size // 2
            # (-u)^|S| q^(r^2)/(ac)^r prod h(x_i), through h/(ac) at every second pick
            tn, td = (-u[0]) ** size * q[0] ** (r * r), u[1] ** size * q[1] ** (r * r)
            for k, i in enumerate(S):
                tn, td = tn * hs[i][k % 2], td * hs[i][2]
            for i, (n, d) in enumerate(ps):  # x_i over S at even |S|, else over the rest
                if (i in S) == (size % 2 == 0):
                    tn, td = tn * n, td * d
            for (i, j), (s, rr, t) in pairs.items():
                if i in S and j in S:  # (1 - x_i x_j)/(1 - q x_i x_j)
                    tn, td = tn * q[1] * rr, td * t
                elif i in S or j in S:  # (x_i x_j - 1)/(x_i - x_j), i in S
                    tn, td = tn * (-rr if i in S else rr), td * s
            total = add_ratio(total, tn, td)
    return Fraction(*total) if exact else total[0] / total[1]


# ---------------------------------------------------------------------------
# Property suite
# ---------------------------------------------------------------------------


def z_tilde(xs, params: ModelParams):
    """Polynomial numerator: prod (a-x_i)(c-x_i) prod (1-q x_i x_j) * Z_m."""
    val = z_enumerate(TriangularSpec(xs, params))
    for x in xs:
        val = val * (params.a - x) * (params.c - x)
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            val = val * (1 - params.q * xs[i] * xs[j])
    return val


def _lagrange_eval(points, values, at):
    """Value at `at` of the interpolating polynomial through the points."""
    total = 0
    for i, (xi, yi) in enumerate(zip(points, values)):
        term = yi
        for j, xj in enumerate(points):
            if i != j:
                term = term * (at - xj) / (xi - xj)
        total = total + term
    return total


def verify_z_properties(spec: TriangularSpec, rng) -> dict:
    """Property report for Z_m: symmetry, the four boundary recursions, the
    numerator freezing relation at x_i = 1/(q x_j), and the degree bound;
    rng draws the generic interpolation points of the last two.

    Each entry is (ok, residual-or-note); all checks are exact in the
    rational backend.
    """
    xs, params = spec.x, spec.params
    m = len(xs)
    q = params.q
    report = {}

    z = lambda alph: z_enumerate(TriangularSpec(alph, params))
    base = z(xs)

    perms = list(permutations(xs)) if m <= 3 else [xs, tuple(reversed(xs))]
    sym_ok = all(z(p) == base for p in perms)
    report["symmetry"] = (sym_ok, 0.0)

    at_zero = z((0 * q,) + xs[1:])
    report["x_to_zero"] = (at_zero == 0, float(abs(at_zero)))

    one = Fraction(1) if is_exact(q) else 1.0
    ok_pm = True
    for s in (one, -one):
        lhs = z((s,) + xs[1:])
        rhs = z(xs[1:])
        ok_pm = ok_pm and lhs == rhs
    report["x_to_one"] = (ok_pm, 0.0)

    if m >= 2:
        lhs = z((1 / xs[1],) + xs[1:])
        rhs = z(xs[2:])
        report["x_to_reciprocal"] = (lhs == rhs, float(abs(lhs - rhs)))
    else:
        report["x_to_reciprocal"] = (True, 0.0)

    if m >= 2:
        report["freeze_at_q_reciprocal"] = _check_recur3(xs, params, rng)
    else:
        report["freeze_at_q_reciprocal"] = (True, 0.0)

    report["degree_bound"] = _check_degree(xs, params, rng)
    return report


def _generic_alphabet(rng, count, params: ModelParams, others):
    """`count` random rationals clear of every degeneracy: none is 0, +-1,
    a, c or has h = 1, and none equals, or has product 1 or 1/q with,
    another draw or a value in `others`."""
    q = params.q
    pts = []
    while len(pts) < count:
        v = Fraction(rng.randint(-60, 60), rng.randint(1, 40))
        if v in (0, 1, -1, params.a, params.c) or h_func(v, params) == 1:
            continue
        if any(v == o or v * o == 1 or q * v * o == 1 for o in (*others, *pts)):
            continue
        pts.append(v)
    return tuple(pts)


def _check_recur3(xs, params, rng):
    """recur3: the numerator freezes at x_i = 1/(q x_j).

    Z~ is a polynomial in x_1, so its value at the freezing point is read
    off an exact Lagrange interpolation through m+2 generic points.
    """
    m = len(xs)
    q = params.q
    xj = xs[1]
    if q == 0 or xj == 0:
        return (False, "q or x_j zero")
    target = 1 / (q * xj)
    others = list(xs[1:])
    pts = _generic_alphabet(rng, m + 2, params, others)
    vals = [z_tilde((p,) + tuple(others), params) for p in pts]
    lhs = _lagrange_eval(pts, vals, target)

    rest = tuple(others[1:])
    rhs = -params.a * params.c * (1 - q) * q ** (m - 3)
    rhs = rhs * (1 - xj**2) * (1 - 1 / (q**2 * xj**2))
    for xk in rest:
        rhs = rhs * (1 - xk / (q * xj)) * (1 - xk * xj)
    rhs = rhs * z_tilde(rest, params)
    return (lhs == rhs, float(abs(lhs - rhs)))


def _check_degree(xs, params, rng):
    """deg_{x_1} Z~ <= m+1: interpolate through m+2 points, test at an m+3rd."""
    m = len(xs)
    others = list(xs[1:])
    pts = _generic_alphabet(rng, m + 3, params, others)
    vals = [z_tilde((p,) + tuple(others), params) for p in pts]
    predicted = _lagrange_eval(pts[: m + 2], vals[: m + 2], pts[m + 2])
    return (predicted == vals[m + 2], float(abs(predicted - vals[m + 2])))
