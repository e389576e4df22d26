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

Every single-Pfaffian formula comes from one builder, _pf_over_s:
prod_{i<j} 1/S(x_i, x_j) times the Pfaffian of a skew kernel, bordered at
odd size.  h(x_i) and h(x_i)/(ac) are evaluated once per alphabet entry,
and the subset route takes its Kuperberg Pfaffians as submatrices of one
kernel matrix built once per alphabet.

Closed forms at small size:
  Z_0 = 1,  Z_1 = 1 - h(x_1),
  Z_2 = (1-h(x_1))(1-h(x_2)) - h(x_1)h(x_2)/(ac) * (1-q)x_1x_2/(1-q x_1x_2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial, prod

from .errors import CapExceeded, DegeneratePoint
from .pfaffian import pfaffian
from .rowops import frontier_value, triangle_states
from .scalars import is_exact
from .shuffle import DEFAULT_ARITY_CAP, SymFun, shuffle_power, shuffle_product
from .weights import ModelParams, h_func, h_over_ac

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


def kernel_M(xi, xj, q):
    """Kuperberg kernel (1-q)(x_i-x_j)/((1-x_i x_j)(1-q x_i x_j))."""
    den = (1 - xi * xj) * (1 - q * xi * xj)
    if den == 0:
        raise DegeneratePoint("Kuperberg kernel denominator vanished")
    return (1 - q) * (xi - xj) / den


def _h_tables(xs, params: ModelParams):
    """[h(x_i)] and [h(x_i)/(ac)] over the alphabet, each entry evaluated once."""
    return [h_func(x, params) for x in xs], [h_over_ac(x, params) for x in xs]


def _q_den(xi, xj, q, name):
    den = 1 - q * xi * xj
    if den == 0:
        raise DegeneratePoint(f"1 - q x_i x_j vanished in {name}")
    return den


def kernel_Q(xi, xj, hi, hj, hoa_j, q):
    """Symmetric kernel of the single-Pfaffian formula, from hi = h(x_i),
    hj = h(x_j) and hoa_j = h(x_j)/(ac)."""
    den = _q_den(xi, xj, q, "Q")
    return (1 - hi) * (1 - hj) - hi * hoa_j * (1 - q) * xi * xj / den


def kernel_Qe(xi, xj, s, hi, hoa_j, q, u):
    """Even kernel of the alternative form (q^(1/2) factors cancel), with
    s = S(x_i, x_j)."""
    den = _q_den(xi, xj, q, "Q^e")
    return s + u * u * q * xi * xj * (hi * hoa_j) * (xi - xj) / den


def kernel_Qo(xi, xj, s, hi, hoa_j, q, u):
    """Odd kernel of the alternative form, with s = S(x_i, x_j)."""
    den = _q_den(xi, xj, q, "Q^o")
    return xi * xj * s + u * u * (hi * hoa_j) * (xi - xj) / den


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
    """prod_{i<j} 1/S(x_i, x_j) * Pf(entry(i, j, S(x_i, x_j))), the shape of
    every single-Pfaffian formula: entry fills the upper triangle by index
    and is mirrored, and a given border appends the column border(i) (odd
    sizes)."""
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
    """
    xs, params = spec.x, spec.params
    m = len(xs)
    _check_distinct(xs)
    hs, hoa = _h_tables(xs, params)
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
    _check_distinct(xs)
    return prod(xs) * _pf_over_s(xs, lambda i, j, s: kernel_M(xs[i], xs[j], q))


def z_subset_kuperberg(spec: TriangularSpec):
    """Even-subset expansion with general boundary weights.

    With the c -> infinity table only the empty subset survives and the
    function factorises to prod x_i (1 - a x_i)/(x_i - a).

    The subset S's term is (-1/(ac))^(|S|/2) prod_{i in S} h_i/(1-h_i) x_i
    prod_{i in S, j not in S} 1/S(x_i, x_j) times Z^K on S, whose prefactor
    prod_{i<j in S} 1/S(x_i, x_j) and Kuperberg Pfaffian come from the same
    1/S table and one Kuperberg matrix over the whole alphabet.
    """
    xs, params = spec.x, spec.params
    m = len(xs)
    hs = [h_func(x, params) for x in xs]
    H = 1
    for h in hs:
        H = H * (1 - h)
    if params.c_infinite:
        return H
    _check_distinct(xs)
    for h in hs:
        if h == 1:
            raise DegeneratePoint("h(x_i) = 1 makes the subset weights singular")
    q = params.q
    inv_ac = -1 / (params.a * params.c)
    weight = [h * x / (1 - h) for h, x in zip(hs, xs)]
    # 1/S(x_i, x_j) = (1 - x_i x_j)/(x_i - x_j); the Kuperberg kernel on i < j
    inv_s = [[(1 - xi * xj) / (xi - xj) if i != j else None for j, xj in enumerate(xs)]
             for i, xi in enumerate(xs)]
    K = [[0] * m for _ in range(m)]
    for i, j in combinations(range(m), 2):
        K[i][j] = kernel_M(xs[i], xs[j], q)
        K[j][i] = -K[i][j]
    total = 0
    idx = range(m)
    for r in range(0, m // 2 + 1):
        for S in combinations(idx, 2 * r):
            comp = [i for i in idx if i not in S]
            term = inv_ac**r if r else 1
            for i in S:
                term = term * weight[i]
                for j in comp:
                    term = term * inv_s[i][j]
            for i, j in combinations(S, 2):
                term = term * inv_s[i][j]
            if S:
                term = term * pfaffian([[K[i][j] for j in S] for i in S], validate=False)
            total = total + term
    return H * total


# ---------------------------------------------------------------------------
# Route 4: shuffle powers of Z_1, Z_2
# ---------------------------------------------------------------------------


def z1_symfun(params: ModelParams) -> SymFun:
    return SymFun(1, lambda a: 1 - h_func(a[0], params), name="Z1")


def z2_symfun(params: ModelParams) -> SymFun:
    hs = {}  # (h(x), h(x)/(ac)) per argument, each evaluated once

    def h_of(x):
        got = hs.get(x)
        if got is None:
            got = hs[x] = h_func(x, params), h_over_ac(x, params)
        return got

    def ev(args):
        x1, x2 = args
        den = 1 - params.q * x1 * x2
        if den == 0:
            raise DegeneratePoint("1 - q x_1 x_2 vanished in Z_2")
        (h1, _), (h2, hoa2) = h_of(x1), h_of(x2)
        return (1 - h1) * (1 - h2) - h1 * hoa2 * (1 - params.q) * x1 * x2 / den

    return SymFun(2, ev, name="Z2")


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
    return f(xs) / factorial(half)


# ---------------------------------------------------------------------------
# Route 5: alternative (even/odd Pfaffian) form with generating parameter u
# ---------------------------------------------------------------------------


def _z_even_pf(xs, hs, hoa, q, u):
    """Z^e on an even alphabet, from its h and h/(ac) tables."""
    return _pf_over_s(xs, lambda i, j, s: kernel_Qe(xs[i], xs[j], s, hs[i], hoa[j], q, u))


def _z_odd_pf(xs, hs, hoa, q, u):
    """Z^o on an odd alphabet: bordered Pfaffian with +-u h(x) edges."""
    edge = lambda i: -u * hs[i]
    return _pf_over_s(xs, lambda i, j, s: kernel_Qo(xs[i], xs[j], s, hs[i], hoa[j], q, u), edge)


def z_altform(spec: TriangularSpec):
    """Z_m(u; x) = Z^e_m + Z^o_m by the even/odd Pfaffian pair (parities
    off by one are crossed through the value 1); at u = 1 this is Z_m.
    Finite c only.
    """
    xs, params, u = spec.x, spec.params, spec.u
    if params.c_infinite:
        raise DegeneratePoint("alternative form is implemented for finite c")
    m = len(xs)
    if m == 0:
        return 1
    one = Fraction(1) if is_exact(params.q) else 1.0
    ext = xs + (one,)
    _check_distinct(ext)
    hs, hoa = _h_tables(ext, params)
    q = params.q
    if m % 2 == 0:
        ze = _z_even_pf(xs, hs, hoa, q, u)
        zo = _z_odd_pf(ext, hs, hoa, q, u)  # Z^o_m := Z^o_{m+1}(x, 1)
    else:
        ze = _z_even_pf(ext, hs, hoa, q, u)  # Z^e_m := Z^e_{m+1}(x, 1)
        zo = _z_odd_pf(xs, hs, hoa, q, u)
    return ze + zo


def z_altform_subset(spec: TriangularSpec):
    """Z_m(u; x) as the explicit sum over subsets S with weights g_S, the
    second route of the alternative form.  Finite c only."""
    xs, params, u = spec.x, spec.params, spec.u
    if params.c_infinite:
        raise DegeneratePoint("alternative form is implemented for finite c")
    m = len(xs)
    q = params.q
    hs = [h_func(x, params) for x in xs]
    hoa = [h_over_ac(x, params) for x in xs]
    total = 0
    idx = range(m)
    for size in range(m + 1):
        for S in combinations(idx, size):
            comp = [i for i in idx if i not in S]
            r = size // 2
            term = (-u) ** size * q ** (r * r) if size else 1
            # q^(r^2)/(ac)^r * prod h(x_i) realised through h/(ac) pairs
            pick = list(S)
            for t in range(r):
                term = term * hs[pick[2 * t]] * hoa[pick[2 * t + 1]]
            if size % 2 == 1:
                term = term * hs[pick[-1]]
            if size % 2 == 0:
                for i in S:
                    term = term * xs[i]
            else:
                for i in comp:
                    term = term * xs[i]
            for i in S:
                for j in comp:
                    den = xs[i] - xs[j]
                    if den == 0:
                        raise DegeneratePoint("coinciding alphabet entries")
                    term = term * (xs[i] * xs[j] - 1) / den
            for ai, i in enumerate(S):
                for j in S[ai + 1 :]:
                    den = 1 - q * xs[i] * xs[j]
                    if den == 0:
                        raise DegeneratePoint("1 - q x_i x_j vanished")
                    term = term * (1 - xs[i] * xs[j]) / den
            total = total + term
    return total


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
