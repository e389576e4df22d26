"""Closed-form and contour evaluations of G_nu, the Cauchy identity check,
and the orthogonality test of the dual family.

G_nu (empty initial configuration) has a sum-over-subsets evaluation in
which n of the L spectral parameters are attached to the occupied sites,
and an equivalent n-fold contour integral whose integrand contains the
triangular partition function on the extended alphabet (x, 1/w).  The
two routes share no formula for Z: g_subset takes it from Kuperberg's
even-subset sum (z_subset_kuperberg), the integrand from the bordered
Pfaffian split by a Schur complement into pair factors (z_factors).
The contour machinery here realises the abstract nesting/exclusion rules
as concentric circles with numerically validated constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations, permutations, product

import numpy as np

from .errors import ArityError, ContourInvalid, DegeneratePoint, QuadratureNotConverged
from .pfaffian import pfaffian
from .rowops import (
    _all_exact,
    KIND_A,
    KIND_B,
    OperatorStack,
    as_config,
    config_max,
    configs_bounded,
    g_lattice,
    guard_cauchy,
    partition_F,
    partition_G,
)
from .scalars import add_ratio, as_pair, is_array, pair_ints
from .triangular import TriangularSpec, _alphabet, _z_subset_pair, z_pfaffian
from .weights import ModelParams, h_func, h_over_ac

# ---------------------------------------------------------------------------
# Subset formula
# ---------------------------------------------------------------------------


def g_subset(nu, x_alphabet, params: ModelParams):
    """G_nu(x_1..x_L) as a sum over n-subsets K of [L] and permutations.

    The complement alphabet carries the triangular factor Z_{L-n}; each
    chosen row i in K carries h(x_i), cross factors against the complement,
    and a permutation-summed product of y-dependent column factors.  A
    weight pole (e.g. x_i y_j q = 1) raises DegeneratePoint.
    """
    nu = as_config(nu)
    xs = tuple(x_alphabet)
    L, n = len(xs), len(nu)
    if L < n:
        raise ArityError(f"need L >= |nu|, got L={L} < {n}")
    if len(set(xs)) != L:
        raise DegeneratePoint("coinciding x entries")
    try:
        return _subset_sum(nu, xs, params)
    except ZeroDivisionError as exc:
        raise DegeneratePoint(f"weight pole in the subset formula: {exc}") from exc


def _pair_factors(a, b, q):
    """(x_b - q x_a)/(x_b - x_a) and (1 - x_a x_b)/(1 - q x_a x_b), as pairs."""
    s, r, t = pair_ints(a, b, q)
    if s == 0 or t == 0:
        raise ZeroDivisionError("pair factor pole: x_a = x_b or q x_a x_b = 1")
    return (q[1] * b[0] * a[1] - q[0] * a[0] * b[1], -q[1] * s), (q[1] * r, t)


def _subset_sum(nu, xs, params: ModelParams):
    """g_subset's sum on the pairs of triangular._alphabet: integers on
    rational input, added over the lcm of their denominators."""
    L, n = len(xs), len(nu)
    exact = _all_exact(params, xs)
    ps, q, hs = _alphabet(xs, params, exact)
    cross, lift = {}, {}
    for i, j in permutations(range(L), 2) if n else ():
        cross[i, j], lift[i, j] = _pair_factors(ps[i], ps[j], q)
    col = {}  # (1-q) x y_nu/(1 - q x y_nu) prod_{j < nu} (1 - x y_j)/(1 - q x y_j)
    for k, (i, part) in product(range(L), enumerate(nu)):
        y = as_pair(params.y_at(part), exact)
        num, den = (q[1] - q[0]) * ps[k][0] * y[0], pair_ints(ps[k], y, q)[2]
        for j in range(1, part):
            _, r, t = pair_ints(ps[k], as_pair(params.y_at(j), exact), q)
            num, den = num * q[1] * r, den * t
        if den == 0:
            raise ZeroDivisionError("column factor pole: q x y_j = 1")
        col[k, i] = num, den
    total = 0, 1
    for K in combinations(range(L), n):
        comp = [i for i in range(L) if i not in K]
        num, den = _z_subset_pair([ps[i] for i in comp], q, [hs[i] for i in comp], params, exact)
        for i in K:
            num, den = num * hs[i][0], den * hs[i][2]
            for j in comp:
                (a, b), (c, d) = cross[i, j], lift[i, j]
                num, den = num * a * c, den * b * d
        for i, j in combinations(K, 2):
            num, den = num * lift[i, j][0], den * lift[i, j][1]
        sig = 0, 1
        for sigma in permutations(K):
            pn, pd = 1, 1
            for i, j in combinations(sigma, 2):
                pn, pd = pn * cross[i, j][0], pd * cross[i, j][1]
            for i, k in enumerate(sigma):
                pn, pd = pn * col[k, i][0], pd * col[k, i][1]
            sig = add_ratio(sig, pn, pd)
        total = add_ratio(total, num * sig[0], den * sig[1])
    return Fraction(*total) if exact else total[0] / total[1]


# ---------------------------------------------------------------------------
# Contours
# ---------------------------------------------------------------------------


@dataclass
class ContourSpec:
    """Positively oriented circles, inner first."""

    circles: tuple  # ((center, radius), ...)

    def nodes_of(self, i: int, N: int):
        """Circle i's N trapezoid nodes and their weights dw/(2 pi i)."""
        center, radius = self.circles[i]
        theta = 2.0 * np.pi * np.arange(N) / N
        w = center + radius * np.exp(1j * theta)
        dw = radius * np.exp(1j * theta) / N  # dw/(2 pi i) per node
        return w, dw

    @property
    def n(self):
        return len(self.circles)


# Largest einsum intermediate, in elements (32 MiB complex).  numpy's greedy
# default caps it at the largest operand, which leaves bond chains in one naive
# loop; four-fold orthogonality holds 16 N^3 at N nodes, within 2^21 to N = 50.
PATH_CAP = 1 << 21
# floating-point conditions on quadrature nodes: a pole shows as inf or nan
_NODE_ERRSTATE = {"divide": "ignore", "invalid": "ignore", "over": "ignore"}
# einsum subscript of grid axis i (one letter per integration variable)
_AXES = "abcdefghijklmnopqrstuvwxyz"
# validate_contours: relative clearance of every strict inequality, and the
# nodes per circle at which the image rules are probed
_MARGIN = 1e-6
_PROBE = 720
# nested_contours: r_lo is at least this fraction of r_hi, an annulus when the
# one enclosed point is the centre (worst 16-node error of single-point cases:
# 2e-6 at 0.1, 5e-12 at 0.02, 2e-14 at 0.01; all reach rounding by 64 nodes)
_R_LO_FLOOR = 0.02
# g_contour's bound on the drift under node doubling, and the relative
# residue error verify_g_recursion_suite accepts
_CONVERGENCE_TOL = 1e-8
_RECURSION_TOL = 1e-6


@lru_cache(maxsize=256)
def _contraction_path(subscripts: str, shapes: tuple):
    """The einsum contraction order for operands of these shapes: numpy's
    greedy path with intermediates of at most PATH_CAP elements."""
    dummies = [np.broadcast_to(np.zeros((), dtype=complex), s) for s in shapes]
    return np.einsum_path(subscripts, *dummies, optimize=("greedy", PATH_CAP))[0]


def _spanned(factors, n: int):
    """(array, axes, bonds) triples: each factor keeps only the grid axes it
    spans (length above 1), a scalar none, and a factor given as
    (array, bonds) keeps its trailing bond axes."""
    spans = []
    for f in factors if isinstance(factors, list) else [factors]:
        f, bonds = f if isinstance(f, tuple) else (f, "")
        f = np.asarray(f)
        grid = f.shape[: f.ndim - len(bonds)]
        shape = (1,) * (n - len(grid)) + grid
        axes = tuple(k for k in range(n) if shape[k] != 1)
        spans.append((f.reshape([shape[k] for k in axes] + list(f.shape[len(grid) :])), axes, bonds))
    return spans


def _contract(spans, measures):
    """sum over the grid and the bond labels of prod(factors) *
    prod_i measures[i], for factors given as (array, axes, bonds) triples:
    the sum runs one index at a time, so no product is formed on the whole
    grid."""
    operands = [f for f, _, _ in spans] + measures
    terms = ["".join(_AXES[k] for k in axes) + bonds for _, axes, bonds in spans]
    subscripts = ",".join(terms + list(_AXES[: len(measures)])) + "->"
    path = _contraction_path(subscripts, tuple(op.shape for op in operands))
    return np.einsum(subscripts, *operands, optimize=path)


def pair_factors(ws, q) -> list:
    """The cross factor (w_j - w_i)/(q w_j - w_i) (1 - q w_i w_j)/(1 - w_i w_j)
    of each pair i < j of contour variables, on the pair's two axes."""
    return [
        (wj - wi) / (q * wj - wi) * (1 - q * wi * wj) / (1 - wi * wj)
        for wi, wj in combinations(ws, 2)
    ]


def nested_trapezoid(contours: ContourSpec, integrand, nodes: int):
    """Trapezoid rule on the product of the circles of `contours`.

    Returns the sum over the grid of `nodes` points per circle of
    integrand(ws) * prod_i dw_i/(2 pi i).  ws holds one open-grid array per
    circle (inner first): variable i has shape (1, .., N, .., 1) with its
    nodes on axis i.  The integrand is called once, on the whole grid, and
    returns its factors, a list of scalars and arrays that each broadcast
    against that grid (a bare array is one factor): a factor computed from
    some of the ws spans only their axes, and the sum contracts the factors
    with the measures dw_i by einsum, one index at a time, so a factor of
    one or two variables never spreads over the whole grid.  A factor
    (array, bonds) carries trailing axes after its grid axes, named by the
    upper-case letters of bonds; each label is summed over, like a grid
    axis.  A factor or sum that is not finite (a node on a pole; array
    inputs bypass the scalar pole checks) raises ContourInvalid.  A node
    count below 1 raises ValueError.
    """
    if nodes < 1:
        raise ValueError(f"need at least one quadrature node per circle, got {nodes}")
    n = contours.n
    lines = [contours.nodes_of(i, nodes) for i in range(n)]
    with np.errstate(**_NODE_ERRSTATE):
        spans = _spanned(integrand(np.ix_(*(w for w, _ in lines))), n)
        if not all(np.all(np.isfinite(f)) for f, _, _ in spans):
            raise ContourInvalid("a quadrature node sits on a pole of the integrand")
        total = _contract(spans, [dw for _, dw in lines])
    if not np.isfinite(total):
        raise ContourInvalid("the integrand overflows on the quadrature nodes")
    return complex(total)


def validate_contours(spec: ContourSpec, enclose, exclude, q, pair_q_inverse: bool = False):
    """Check the nesting/exclusion rules on concentric-ish circles.

    Every circle must strictly enclose all `enclose` points and strictly
    exclude all `exclude` points; for i < j the images q*C_j and 1/C_j, and
    q/C_j when pair_q_inverse (a pole of the extended triangular factor),
    must stay outside the open disk of C_i; circles must be strictly nested
    inner-to-outer.

    No pole inside is not convergence: one just clear of a circle passes,
    and N nodes then converge at a rate near 1.  At q = 0.26, alpha = 0.51,
    t = 1, circles about 1 of radii 0.2213, 0.3309, 0.4949 pass (1/C_3
    clears C_2 by 1.6e-4), and the ASEP formula for (3, 2, 1) on them gives
    -5.1e-4 at 64 nodes and 7.9e-5 at 512, where the value is 9.879e-5.
    No route integrates on such circles: each builds its own
    (nested_contours, asep.asep_contours) with a margin, so only a direct
    nested_trapezoid call can reach this.
    """
    qq = complex(q)
    circles = [(complex(c), float(r)) for c, r in spec.circles]
    for i, (c, r) in enumerate(circles):
        for p in enclose:
            if abs(complex(p) - c) >= r * (1 - _MARGIN):
                raise ContourInvalid(f"circle {i} does not enclose {p}")
        for p in exclude:
            if abs(complex(p) - c) <= r * (1 + _MARGIN):
                raise ContourInvalid(f"circle {i} does not exclude {p}")
    for i in range(len(circles)):
        ci, ri = circles[i]
        for j in range(len(circles)):
            if i == j:
                continue
            cj, rj = circles[j]
            theta = 2.0 * np.pi * np.arange(_PROBE) / _PROBE
            wj = cj + rj * np.exp(1j * theta)
            if j > i:
                if abs(ci - cj) + ri >= rj * (1 - _MARGIN):
                    raise ContourInvalid("circles are not strictly nested")
                if np.min(np.abs(qq * wj - ci)) <= ri * (1 + _MARGIN):
                    raise ContourInvalid(
                        "q-image of an outer circle meets an inner disk"
                    )
                if np.min(np.abs(1.0 / wj - ci)) <= ri * (1 + _MARGIN):
                    raise ContourInvalid(
                        "inverse of an outer circle meets an inner disk"
                    )
            if pair_q_inverse and np.min(np.abs(qq / wj - ci)) <= ri * (1 + _MARGIN):
                raise ContourInvalid(
                    "q/w image of one circle meets another circle's disk"
                )
    return True


def nested_contours(enclose, exclude, n: int, q, pair_q_inverse: bool = False) -> ContourSpec:
    """Concentric circles around the centroid c of `enclose`: the default
    circles of g_contour and the orthogonality check.

    The integrand is analytic for r_lo < |w - c| < r_hi, from the farthest
    enclosed point (at least _R_LO_FLOOR r_hi) to the nearest excluded one,
    and the trapezoid error on a circle of radius r decays like
    max(r_lo/r, r/r_hi)^N (Trefethen-Weideman, SIAM Rev. 56, 2014).  The n
    radii are spaced geometrically in (r_lo, r_hi), so one circle sits at
    sqrt(r_lo r_hi), where that rate is smallest; the upper end shrinks
    until validate_contours accepts the pair rules.
    """
    pts = [complex(p) for p in enclose]
    center = sum(pts) / len(pts)
    reach = max(abs(p - center) for p in pts)
    r_hi = min((abs(complex(p) - center) for p in exclude), default=8 * reach + 1)
    r_lo = max(reach, _R_LO_FLOOR * r_hi)
    while r_hi > r_lo * (1 + 1e-9):
        radii = [r_lo * (r_hi / r_lo) ** ((k + 1) / (n + 1)) for k in range(n)]
        spec = ContourSpec(tuple((center, r) for r in radii))
        try:
            validate_contours(spec, enclose, exclude, q, pair_q_inverse=pair_q_inverse)
            return spec
        except ContourInvalid:
            r_hi *= 0.9
    raise ContourInvalid("no annulus between enclosed and excluded points meets the pair rules")


# ---------------------------------------------------------------------------
# Vectorised triangular evaluation for quadrature integrands
# ---------------------------------------------------------------------------


def _matchings(idx: tuple):
    """(sign, pairs) of each perfect matching of idx, a term of its Pfaffian."""
    if not idx:
        yield 1, ()
    for k, j in enumerate(idx[1:]):
        for sign, pairs in _matchings(idx[1 : k + 1] + idx[k + 2 :]):
            yield (-1) ** k * sign, ((idx[0], j),) + pairs


def z_factors(xs, ws, params: ModelParams) -> list:
    """Z_{L+n}(x, 1/w) at fixed x's and open-grid w's, as nested_trapezoid
    factors that each span at most two w's.

    Z = prefactor * Pf K as in z_pfaffian.  K = [[A, B], [-B^T, C]] puts the
    x's and the border in A (if odd in number, the last joins the w side,
    which keeps its index order), so Pf K = Pf A * Pf(C + B^T A^-1 B),
    A^-1 B by one linear solve, and the sum over matchings of that Pfaffian
    is the bond label Z.  At c = infinity Z is prod (1 - h).  Scalar entries
    that coincide or have x_i x_j = 1, or a singular A, raise DegeneratePoint.
    """
    q = complex(params.q)
    # complex boundary parameters: rational ones would make h an object array
    cparams = replace(
        params, a=complex(params.a), c=None if params.c is None else complex(params.c)
    )
    ys = [complex(x) for x in xs] + [1 / w for w in ws]
    hs = [h_func(y, cparams) for y in ys]
    if params.c_infinite:
        return [1 - h for h in hs]
    hoa = [h_over_ac(y, cparams) for y in ys]
    L, m = len(xs), len(ys)

    def s(i, j):
        return (ys[i] - ys[j]) / (1 - ys[i] * ys[j])

    def entry(i, j):
        # K[i, j] of the bordered kernel; index m is the border
        if i > j:
            return -entry(j, i)
        if j == m:
            return hs[i] - 1
        yy = ys[i] * ys[j]
        return s(i, j) * ((1 - hs[i]) * (1 - hs[j]) - hs[i] * hoa[j] * (1 - q) * yy / (1 - q * yy))

    fixed = list(range(L)) + [m] * (m % 2)
    side = sorted([*range(L, m)] + ([fixed.pop()] if len(fixed) % 2 else []))
    try:
        # the order (fixed, side) is an even permutation of the kernel's: the
        # border passes an even number of w's or stays last
        pref = (-1) ** m / math.prod(s(i, j) for i, j in combinations(range(L), 2))
        A = np.array([[entry(i, j) if i != j else 0 for j in fixed] for i in fixed], dtype=complex)
    except ZeroDivisionError as exc:
        # scalar entries only: x_i = x_j, x_i x_j = 1 or q x_i x_j = 1
        raise DegeneratePoint(f"Z kernel pole on the alphabet: {exc}") from exc
    pf_a = complex(pfaffian(A, validate=False)) if fixed else 1.0
    factors = [pref * pf_a] + [1 / s(i, j) for i, j in combinations(range(m), 2) if j >= L]
    schur = {(u, v): entry(side[u], side[v]) for u, v in combinations(range(len(side)), 2)}
    if fixed and side:
        if pf_a == 0:
            raise DegeneratePoint("the fixed block of the Z kernel is singular")
        # column u of B on its w's axis, and A^-1 B by one solve over all nodes
        cols = [np.stack(np.broadcast_arrays(*(entry(f, u) for f in fixed)), -1) for u in side]
        sols = [np.linalg.solve(A, b.reshape(-1, len(fixed)).T).T.reshape(b.shape) for b in cols]
        for u, v in schur:
            schur[u, v] = schur[u, v] + np.einsum("...k,...k->...", cols[u], sols[v])
    terms = list(_matchings(tuple(range(len(side)))))
    # term t of the bond Z is matching t: an entry on the matchings holding it, 1 elsewhere
    factors.append((np.array([t[0] for t in terms]), "Z"))
    for p, e in schur.items():
        bond = np.broadcast_arrays(*(e if p in pairs else 1 for _, pairs in terms))
        factors.append((np.stack(bond, -1), "Z"))
    return factors


def z_triangular_vec(values, params: ModelParams):
    """Z_m(values) at scalar entries: z_factors(values, [], params), whose
    fixed block is the whole bordered kernel, contracted."""
    return _contract(_spanned(z_factors(values, [], params), 0), [])


# ---------------------------------------------------------------------------
# Contour-integral evaluation of G_nu
# ---------------------------------------------------------------------------


def _g_integrand_factors(ws, xs, nu, params: ModelParams) -> list:
    """The integrand's factors for nested_trapezoid: one per variable on its
    own nodes, one per pair, then Z_{L+n}(x, 1/w) from z_factors."""
    q = complex(params.q)
    a = complex(params.a)
    factors = []
    for i, w in enumerate(ws):
        val = 1
        for x in xs:
            val = val * (q * w - x) / (w - x) * (1 - w * x) / (1 - q * w * x)
        if params.c_infinite:
            # lim c->inf of ac(qw^2-1)/((w-a)(w-c)) = -a(qw^2-1)/(w-a)
            val = -(val * a * (q * w * w - 1) / (w - a))
        else:
            c = complex(params.c)
            val = val * complex(params.a * params.c) * (q * w * w - 1) / ((w - a) * (w - c))
        y_nu = complex(params.y_at(nu[i]))
        val = val * y_nu / (1 - q * w * y_nu)
        for j in range(1, nu[i]):
            yj = complex(params.y_at(j))
            val = val * (1 - w * yj) / (1 - q * w * yj)
        factors.append(val)
    return factors + pair_factors(ws, q) + z_factors(xs, ws, params)


def _g_contour_poles(nu, xs, params: ModelParams) -> list:
    """The points every circle of the G_nu integral must exclude."""
    q = complex(params.q)
    exclude = []
    for x in xs:
        exclude += [q * x, 1.0 / (q * x)]
    y_seen = {complex(params.y_at(j)) for j in range(1, (config_max(nu) or 1) + 1)}
    y_seen.add(complex(params.y_tail))
    exclude += [1.0 / (q * y) for y in y_seen]
    exclude.append(0.0)
    a = complex(params.a)
    exclude += [a, 1.0 / a]
    if not params.c_infinite:
        c = complex(params.c)
        exclude += [c, 1.0 / c]
    return exclude


def g_contour(nu, x_alphabet, params: ModelParams, nodes: int = 256, check_convergence: bool = True):
    """n-fold contour integral for G_nu, trapezoid rule on the nested_contours
    circles around the x's.

    Circles are spectrally accurate for this analytic integrand; with
    check_convergence the node count is doubled once and the relative drift
    is required to stay below _CONVERGENCE_TOL.  With more parts than
    variables G_nu is exactly 0 (L rows add at most L particles), and no
    circle is built.
    """
    nu = as_config(nu)
    xs = [complex(x) for x in x_alphabet]
    n = len(nu)
    if n > len(xs):
        return 0j
    if n == 0:
        return complex(z_triangular_vec(xs, params))
    poles = _g_contour_poles(nu, xs, params)
    contours = nested_contours(xs, poles, n, params.q, pair_q_inverse=(n > 1))
    integrand = partial(_g_integrand_factors, xs=xs, nu=nu, params=params)
    out = nested_trapezoid(contours, integrand, nodes)
    if check_convergence:
        out2 = nested_trapezoid(contours, integrand, 2 * nodes)
        if abs(out2 - out) > _CONVERGENCE_TOL * max(1.0, abs(out2)):
            raise QuadratureNotConverged(
                f"node doubling moved the result by {abs(out2 - out):.3e}"
            )
        return out2
    return out


# ---------------------------------------------------------------------------
# Recursion suite for G_nu in the inverted vertical alphabet
# ---------------------------------------------------------------------------


def _neville_at_zero(xs, ys):
    """Polynomial extrapolation of (xs, ys) to x = 0."""
    vals = list(ys)
    n = len(vals)
    for level in range(1, n):
        for i in range(n - level):
            x0, x1 = xs[i], xs[i + level]
            vals[i] = (x0 * vals[i + 1] - x1 * vals[i]) / (x0 - x1)
    return vals[0]


def _g_inverted(nu, xs, params: ModelParams, yvals):
    """G_nu(x | Y^{-1}): evaluate with the inverted y-alphabet."""
    p = params.with_y(tuple(1.0 / complex(y) for y in yvals))
    return g_lattice(nu, xs, p)


def verify_g_recursion_suite(nu, x_alphabet, params: ModelParams) -> dict:
    """Numerical residue/decay checks for G_nu in the inverted alphabet.

    The pole in y_{nu_1} sits at q x_1; the residue is estimated from a
    shrinking sequence (y - q x_1) G, extrapolated to 0, and compared with
    the closed product times the reduced function; the large-y limit must
    vanish.
    """
    nu = as_config(nu)
    xs = [complex(x) for x in x_alphabet]
    q = complex(params.q)
    report = {}
    if not nu:
        report["vacuous"] = (True, 0.0)
        return report
    n1 = nu[0]
    base_y = [complex(params.y_at(j)) for j in range(1, n1 + 1)]

    def g_at(yv):
        ys = list(base_y)
        ys[n1 - 1] = yv
        return _g_inverted(nu, xs, params, ys)

    pole = q * xs[0]
    rhs = (1 - q) * xs[0] * complex(h_func(xs[0], params))
    for xj in xs[1:]:
        rhs *= (xj - q * xs[0]) / (xj - xs[0]) * (1 - xs[0] * xj) / (1 - q * xs[0] * xj)
    for j in range(1, n1):
        yj = base_y[j - 1]
        rhs *= (yj - xs[0]) / (yj - q * xs[0])
    rhs *= _g_inverted(nu[1:], xs[1:], params, base_y)

    if abs(rhs) < 1e-30:
        report["residue_at_qx1"] = (False, float("nan"))
    else:
        # (y - q x_1) G along a shrinking sequence, extrapolated to d = 0
        ds = [1e-3, 1e-4, 1e-5]
        es = [d * g_at(pole + d) for d in ds]
        extrap = _neville_at_zero(ds, es)
        err = abs(extrap / rhs - 1.0)
        report["residue_at_qx1"] = (err < _RECURSION_TOL, err)

    generic = abs(g_at(pole + 1.7 + 0.3j))
    far = abs(g_at(1e6 + 0j))
    report["decay_at_large_y"] = (far <= 1e-4 * max(generic, 1e-30), far)
    return report


# ---------------------------------------------------------------------------
# Cauchy identity check
# ---------------------------------------------------------------------------


def _lambda_candidates(mu):
    """Finite support of the Cauchy right-hand side in lambda.

    F_{mu/lambda} vanishes unless lambda is dominated part-wise by mu
    (lambda_i <= mu_i, with no more parts than mu): in one sweep of the
    dual row operator a particle never lands to the right of its starting
    position and no new particles appear.  The strict form lambda_i < mu_i
    would drop contributing terms (already lambda = mu pairs nontrivially),
    which a truncated-sum comparison against the operator product confirms.
    """
    if not mu:
        return [()]
    out = []
    for lam in configs_bounded(mu[0], len(mu)):
        if all(lam[i] <= mu[i] for i in range(len(lam))):
            out.append(lam)
    return out


def cauchy_check(mu, nu, x_alphabet, z_alphabet, params: ModelParams, cutoff: int = 12) -> dict:
    """Truncated skew-Cauchy identity report.

    LHS sums G_{kappa/mu}(x) F_{kappa/nu}(z) over kappa with parts <=
    cutoff (each factor exact on the semi-infinite lattice); RHS is the
    closed product times the finite lambda-sum.  Reports the residual at
    each intermediate cutoff; under the rho-guard the decay is geometric.
    A negative cutoff raises ValueError.
    """
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    mu, nu = as_config(mu), as_config(nu)
    xs, zs = tuple(x_alphabet), tuple(z_alphabet)
    guard = guard_cauchy(xs, zs, params).require()
    q = params.q

    exact = _all_exact(params, xs + zs)
    num = den = 1
    for z, x in product(zs, xs):
        (a, b), (c, d) = _pair_factors(*(as_pair(v, exact) for v in (z, x, q)))
        num, den = num * a * c, den * b * d
    factor = Fraction(num, den) if exact else num / den
    rhs = 0
    for lam in _lambda_candidates(mu):
        f = partition_F(mu, lam, zs, params)
        if f == 0:
            continue
        if lam == () and nu == ():
            g = z_pfaffian(TriangularSpec(xs, params))
        else:
            g = partition_G(nu, lam, xs, params)
        rhs = rhs + f * g
    rhs = factor * rhs

    # a sweep of L rows can add at most L particles to mu
    kappas = sorted(
        configs_bounded(cutoff, len(mu) + len(xs)), key=lambda k: (config_max(k), k)
    )
    g_stack = OperatorStack([(KIND_A, x) for x in xs], params)
    f_stack = OperatorStack([(KIND_B, z) for z in zs], params)
    gs = g_stack.elements([(mu, kappa) for kappa in kappas])
    terms = [(k, g) for k, g in zip(kappas, gs) if g != 0]
    fs = f_stack.elements([(kappa, nu) for kappa, _ in terms])
    residuals = []
    lhs = 0
    for cut in range(0, cutoff + 1):
        for (kappa, g), f in zip(terms, fs):
            if config_max(kappa) == cut:
                lhs = lhs + g * f
        residuals.append((cut, float(abs(lhs - rhs))))
    final = residuals[-1][1]
    tail = [r for _, r in residuals[-6:]]
    decay_ok = all(tail[i + 1] <= tail[i] for i in range(len(tail) - 1))
    return {
        "rho": guard.rho,
        "lhs": lhs,
        "rhs": rhs,
        "residuals": residuals,
        "final_residual": final,
        "decay_ok": decay_ok,
    }


# ---------------------------------------------------------------------------
# Orthogonality conjecture (c -> infinity)
# ---------------------------------------------------------------------------


def _orthogonality_points(params: ModelParams, max_part: int):
    """(enclose, exclude) for an orthogonality circle about the centroid c of
    the enclosed points: the points 1/y_j inside it, the poles of the
    integrand and of F outside, and the point at |qc - c|/(1 + |q|) from c
    towards qc.  A circle C about c clears that point iff qC stays off the
    disk of C, the pair rule of n copies of C."""
    q = complex(params.q)
    a = complex(params.a)
    ys = [complex(params.y_at(j)) for j in range(1, max_part + 1)]
    inv = [1.0 / y for y in ys]
    c = sum(inv) / len(inv)
    exclude = [0.0, 1.0, -1.0, a, 1.0 / a, c + (q * c - c) / (1.0 + abs(q))]
    for y in ys:
        exclude += [y, y / q, 1.0 / (q * y)]
    return inv, exclude


def default_orthogonality_contour(params: ModelParams, max_part: int) -> ContourSpec:
    """The nested_contours circle around the points 1/y_j."""
    return nested_contours(*_orthogonality_points(params, max_part), 1, params.q)


def _b_transfer(kappa, w, params: ModelParams):
    """(configurations, M): M(w)[alpha, beta] = <alpha| Bdot(w) |beta> of
    shape w.shape + (S, S) on the S configurations kappa dominates.  A Bdot
    sweep moves no particle right and creates none, so beta is dominated by
    alpha (_lambda_candidates) and F_kappa(w_1..w_n) = [M(w_1) .. M(w_n)]
    at (kappa, ()).  One single-row OperatorStack evaluates every entry on
    all of w's lanes at once; an exact w gives an object array."""
    states = _lambda_candidates(kappa)
    index = {s: i for i, s in enumerate(states)}
    pairs = [(alpha, beta) for alpha in states for beta in _lambda_candidates(alpha)]
    values = OperatorStack([(KIND_B, w)], params).elements(pairs)
    M = np.zeros(np.shape(w) + (len(states),) * 2, dtype=complex if is_array(w) else object)
    for (alpha, beta), v in zip(pairs, values):
        M[..., index[alpha], index[beta]] = v
    return states, M


def orthogonality_check(kappa, nu, params: ModelParams, nodes: int = 128):
    """n-fold quadrature of the orthogonality integrand against F_kappa.

    Conjecturally delta_{kappa,nu} in the c -> infinity model.  All n
    integration variables run over the same circle, the one
    default_orthogonality_contour builds.  F_kappa(w_1..w_n) is the
    (kappa, ()) entry of the chain M(w_1) .. M(w_n) of one-row transfer
    matrices (_b_transfer), built once on the circle's nodes;
    nested_trapezoid contracts the chain, one bond per pair of neighbouring
    variables, with one factor per variable and one per pair, so nothing
    spans the whole grid.
    """
    kappa, nu = as_config(kappa), as_config(nu)
    n = len(nu)
    if len(kappa) > n:
        raise ArityError("need |kappa| <= |nu|")
    if not params.c_infinite:
        raise ArityError("orthogonality check is defined at c -> infinity")
    if n == 0:
        return 1.0 + 0.0j if kappa == () else 0.0 + 0.0j
    max_part = max(config_max(nu), config_max(kappa), 1)
    contour = default_orthogonality_contour(params, max_part)
    q, a = complex(params.q), complex(params.a)
    ys = tuple(complex(params.y_at(j)) for j in range(1, max_part + 1))
    fparams = ModelParams(q=q, a=a, c=None, y=ys, c_infinite=True)

    def integrand(ws):
        factors = []
        for i, w in enumerate(ws):
            # (a - w), not (w - a): the orientation the degenerate Cauchy
            # identity produces, normalising the diagonal to +1
            val = (a - w) / (w * (1 - a * w)) * (1 - q * w * w) / (1 - w * w)
            val = val * ys[nu[i] - 1] / (1 - q * w * ys[nu[i] - 1])
            for yj in ys[: nu[i] - 1]:
                val = val * (1 - w * yj) / (1 - q * w * yj)
            factors.append(val)
        # every variable runs over the same nodes, so one M serves them all;
        # variable i's copy joins bonds i and i + 1, unit vectors close them
        states, M = _b_transfer(kappa, ws[0].ravel(), fparams)
        ends = np.eye(len(states))[[states.index(kappa), states.index(())]]
        bonds = _AXES.upper()
        chain = [(M.reshape(w.shape + M.shape[1:]), bonds[i : i + 2]) for i, w in enumerate(ws)]
        return factors + pair_factors(ws, q) + chain + [(ends[0], "A"), (ends[1], bonds[n])]

    return nested_trapezoid(ContourSpec(contour.circles * n), integrand, nodes)
