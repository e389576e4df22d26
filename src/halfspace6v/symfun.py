"""Closed-form and contour evaluations of G_nu, the Cauchy identity check,
and the orthogonality test of the dual family.

G_nu (empty initial configuration) has a sum-over-subsets evaluation in
which n of the L spectral parameters are attached to the occupied sites,
and an equivalent n-fold contour integral whose integrand contains the
triangular partition function on the extended alphabet (x, 1/w).  The
two routes share no formula for Z: g_subset takes it from Kuperberg's
even-subset sum (z_subset_kuperberg), the integrand from the single
bordered Pfaffian batched over the quadrature nodes (z_triangular_vec).
The contour machinery here realises the abstract nesting/exclusion rules
as concentric circles with numerically validated constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations, combinations_with_replacement, permutations, product

import numpy as np

from .errors import ArityError, ContourInvalid, DegeneratePoint, QuadratureNotConverged
from .pfaffian import pfaffian
from .rowops import (
    KIND_A,
    KIND_B,
    OperatorStack,
    as_config,
    config_max,
    g_lattice,
    guard_cauchy,
    partition_F,
    partition_G,
)
from .triangular import TriangularSpec, z_pfaffian, z_subset_kuperberg
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
    for i in range(L):
        for j in range(i + 1, L):
            if xs[i] == xs[j]:
                raise DegeneratePoint("coinciding x entries")
    try:
        return _subset_sum(nu, xs, params)
    except ZeroDivisionError as exc:
        raise DegeneratePoint(f"weight pole in the subset formula: {exc}") from exc


def _subset_sum(nu, xs, params: ModelParams):
    L, n = len(xs), len(nu)
    q = params.q
    total = 0
    for K in combinations(range(L), n):
        comp = [i for i in range(L) if i not in K]
        term = z_subset_kuperberg(TriangularSpec([xs[i] for i in comp], params))
        for i in K:
            term = term * h_func(xs[i], params)
            for j in comp:
                term = (
                    term
                    * (xs[j] - q * xs[i])
                    / (xs[j] - xs[i])
                    * (1 - xs[i] * xs[j])
                    / (1 - q * xs[i] * xs[j])
                )
        for ai, i in enumerate(K):
            for j in K[ai + 1 :]:
                term = term * (1 - xs[i] * xs[j]) / (1 - q * xs[i] * xs[j])
        sig = 0
        for sigma in permutations(range(n)):
            p = 1
            for i in range(n):
                for j in range(i + 1, n):
                    xi, xj = xs[K[sigma[i]]], xs[K[sigma[j]]]
                    p = p * (xj - q * xi) / (xj - xi)
            for i in range(n):
                xk = xs[K[sigma[i]]]
                y_nu = params.y_at(nu[i])
                p = p * (1 - q) * xk * y_nu / (1 - q * xk * y_nu)
                for j in range(1, nu[i]):
                    yj = params.y_at(j)
                    p = p * (1 - xk * yj) / (1 - q * xk * yj)
            sig = sig + p
        total = total + term * sig
    return total


# ---------------------------------------------------------------------------
# Contours
# ---------------------------------------------------------------------------


@dataclass
class ContourSpec:
    """Positively oriented circles (inner first) with per-circle node count."""

    circles: tuple  # ((center, radius), ...)
    nodes: int = 256

    def nodes_of(self, i: int, nodes: int | None = None):
        center, radius = self.circles[i]
        N = nodes or self.nodes
        theta = 2.0 * np.pi * np.arange(N) / N
        w = center + radius * np.exp(1j * theta)
        dw = radius * np.exp(1j * theta) / N  # dw/(2 pi i) per node
        return w, dw

    @property
    def n(self):
        return len(self.circles)


# Grid points per integrand call: 2^15 keeps the n = 2 orthogonality grid
# (160^2 nodes) in one call of its non-symmetric factors and bounds the memory
# of three-fold grids (64^3 nodes run as 8 calls of 8 x 64 x 64).
QUADRATURE_LANES = 1 << 15
# Grid points per block of a symmetric factor (symmetric_grid): 80^2 blocks at
# n = 2 with 160 nodes, 16^3 at 64 and 20^3 at 96.  A block's complex lane
# arrays then stay within 128 KiB, glibc's default threshold above which each
# temporary is a fresh mapping that page-faults on first touch.
SYMMETRIC_BLOCK_LANES = 1 << 13
# floating-point conditions on quadrature nodes: a pole shows as inf or nan
_NODE_ERRSTATE = {"divide": "ignore", "invalid": "ignore", "over": "ignore"}


def symmetric_grid(f, w, n: int):
    """The values of a function f, symmetric in its n variables, on the grid
    of all n-tuples of the nodes w: an array of shape (len(w),) * n.

    The nodes are cut into the fewest equal chunks (the last may be shorter)
    that keep a block of n chunks within SYMMETRIC_BLOCK_LANES points.  f is
    called once per sorted tuple of chunks, on that block's open grid
    (np.ix_, as in nested_trapezoid), and every reordering of the tuple is
    filled by transposing the block; each grid point is filled once.
    """
    N = len(w)
    nb, size = 1, N
    while size**n > SYMMETRIC_BLOCK_LANES:
        nb += 1
        size = -(-N // nb)
    chunks = [slice(s, s + size) for s in range(0, N, size)]
    grid = np.zeros((N,) * n, dtype=complex)
    for block in combinations_with_replacement(range(len(chunks)), n):
        ws = np.ix_(*(w[chunks[c]] for c in block))
        fb = np.broadcast_to(f(ws), np.broadcast_shapes(*(x.shape for x in ws)))
        filled = {}
        for perm in permutations(range(n)):
            filled.setdefault(tuple(block[p] for p in perm), perm)
        # block position (c_perm[0], .., c_perm[n-1]) holds f with its
        # axis k taken from the block's axis perm[k]
        for target, perm in filled.items():
            grid[tuple(chunks[c] for c in target)] += np.transpose(fb, perm)
    return grid


def nested_trapezoid(contours: ContourSpec, integrand, nodes: int, symmetric=None):
    """Trapezoid rule on the product of the circles of `contours`.

    Returns the sum over the grid of `nodes` points per circle of
    integrand(ws) * prod_i dw_i/(2 pi i).  ws holds one open-grid array per
    circle (inner first): variable i has shape (1, .., N_i, .., 1) with its
    nodes on axis i, so a factor of one variable is computed on its own
    nodes and only products across variables broadcast to the grid.  The
    integrand must return an array that broadcasts against that grid.  It
    is called on blocks of at most QUADRATURE_LANES grid points: the
    trailing axes whole, the axis before them in slices, the leading axes
    one index at a time.  symmetric, when given, is a further factor of
    the integrand that is symmetric in all variables (all circles must then
    be equal); it is evaluated once over the grid by symmetric_grid and
    multiplied into each block.  A value that is not finite (a node on a
    pole; array inputs bypass the scalar pole checks) raises ContourInvalid.
    A node count below 1 raises ValueError.
    """
    if nodes < 1:
        raise ValueError(f"need at least one quadrature node per circle, got {nodes}")
    n = contours.n
    lines = [contours.nodes_of(i, nodes) for i in range(n)]
    sym = None
    if symmetric is not None:
        if len(set(contours.circles)) > 1:
            raise ValueError("a symmetric factor needs all circles equal")
        with np.errstate(**_NODE_ERRSTATE):
            sym = symmetric_grid(symmetric, lines[0][0], n)
    blocks = [min(nodes, max(1, QUADRATURE_LANES // nodes ** (n - 1 - i))) for i in range(n)]
    total = 0j
    for starts in product(*(range(0, nodes, b) for b in blocks)):
        cut = [slice(s, s + b) for s, b in zip(starts, blocks)]
        ws = np.ix_(*(w[c] for (w, _), c in zip(lines, cut)))
        measure = math.prod(np.ix_(*(dw[c] for (_, dw), c in zip(lines, cut))))
        with np.errstate(**_NODE_ERRSTATE):
            f = integrand(ws)
            if sym is not None:
                f = f * sym[tuple(cut)]
        if not np.all(np.isfinite(f)):
            raise ContourInvalid("a quadrature node sits on a pole of the integrand")
        total += np.sum(f * measure)
    return complex(total)


def validate_contours(
    spec: ContourSpec,
    enclose,
    exclude,
    q,
    pair_inverse: bool = True,
    pair_q_inverse: bool = False,
    margin: float = 1e-6,
    probe: int = 720,
):
    """Check the nesting/exclusion rules on concentric-ish circles.

    Every circle must strictly enclose all `enclose` points and strictly
    exclude all `exclude` points; for i < j the images q*C_j, 1/C_j (when
    pair_inverse) and q/C_j (when pair_q_inverse; a pole of the extended
    triangular factor) must stay outside the open disk of C_i; circles
    must be strictly nested inner-to-outer.
    """
    qq = complex(q)
    circles = [(complex(c), float(r)) for c, r in spec.circles]
    for i, (c, r) in enumerate(circles):
        for p in enclose:
            if abs(complex(p) - c) >= r * (1 - margin):
                raise ContourInvalid(f"circle {i} does not enclose {p}")
        for p in exclude:
            if abs(complex(p) - c) <= r * (1 + margin):
                raise ContourInvalid(f"circle {i} does not exclude {p}")
    for i in range(len(circles)):
        ci, ri = circles[i]
        for j in range(len(circles)):
            if i == j:
                continue
            cj, rj = circles[j]
            theta = 2.0 * np.pi * np.arange(probe) / probe
            wj = cj + rj * np.exp(1j * theta)
            if j > i:
                if abs(ci - cj) + ri >= rj * (1 - margin):
                    raise ContourInvalid("circles are not strictly nested")
                if np.min(np.abs(qq * wj - ci)) <= ri * (1 + margin):
                    raise ContourInvalid(
                        "q-image of an outer circle meets an inner disk"
                    )
                if pair_inverse and np.min(np.abs(1.0 / wj - ci)) <= ri * (1 + margin):
                    raise ContourInvalid(
                        "inverse of an outer circle meets an inner disk"
                    )
            if pair_q_inverse and np.min(np.abs(qq / wj - ci)) <= ri * (1 + margin):
                raise ContourInvalid(
                    "q/w image of one circle meets another circle's disk"
                )
    return True


def nested_contours(
    enclose,
    exclude,
    n: int,
    q,
    nodes: int = 256,
    pair_inverse: bool = True,
    pair_q_inverse: bool = False,
    grow: float = 1.35,
) -> ContourSpec:
    """Concentric circles around the centroid of `enclose`.

    Radii are picked between the enclosing radius and the nearest excluded
    point by bisecting a geometric ladder until the validator accepts
    (rationale: the definition constrains contours but does not construct
    them).
    """
    pts = [complex(p) for p in enclose]
    center = sum(pts) / len(pts)
    r_lo = max(abs(p - center) for p in pts)
    r_hi = min(abs(complex(p) - center) for p in exclude) if exclude else r_lo * 8 + 1
    if r_hi <= r_lo * (1 + 1e-9):
        raise ContourInvalid("no annulus between enclosed and excluded points")
    # keep real margins to both the enclosed points and the poles, then
    # bisect the upper end down until the pairwise conditions accept
    for shrink in range(60):
        s = 0.9**shrink
        hi = r_lo + (r_hi - r_lo) * 0.85 * s
        lo = r_lo + (r_hi - r_lo) * 0.25 * s
        radii = [lo + (hi - lo) * ((k + 0.5) / n) ** grow for k in range(n)]
        spec = ContourSpec(tuple((center, r) for r in radii), nodes)
        try:
            validate_contours(
                spec,
                enclose,
                exclude,
                q,
                pair_inverse=pair_inverse,
                pair_q_inverse=pair_q_inverse,
            )
            return spec
        except ContourInvalid:
            continue
    raise ContourInvalid("could not satisfy the contour constraints")


# ---------------------------------------------------------------------------
# Vectorised triangular evaluation for quadrature integrands
# ---------------------------------------------------------------------------


def z_triangular_vec(values, params: ModelParams):
    """z_pfaffian over mixed scalar/ndarray alphabet entries.

    A quadrature integrand passes fixed x's with open-grid node arrays.
    h(x_i), S(x_i, x_j) and Q(x_i, x_j) are computed on their own entries'
    shapes, and only the assembled kernel (..., n, n) spans the broadcast
    lanes, so one batched pfaffian call evaluates Z on every lane.  Odd
    sizes are bordered as in z_pfaffian: the column -(1 - h(x_i)) and the
    sign (-1)^m are the limit of an appended entry t -> 1, so alphabets
    containing 1 or 1/q stay finite.  Scalar entries that coincide or have
    x_i x_j = 1 raise DegeneratePoint, as in z_pfaffian; array entries skip
    the pole checks.
    """
    xs = list(values)
    m = len(xs)
    q = complex(params.q)
    # complex boundary parameters: rational ones would make h an object array
    cparams = replace(
        params, a=complex(params.a), c=None if params.c is None else complex(params.c)
    )
    hs = [h_func(x, cparams) for x in xs]
    if params.c_infinite:
        return math.prod(1 - h for h in hs)
    hoa = [h_over_ac(x, cparams) for x in xs]
    n = m + m % 2
    M = np.zeros(np.broadcast_shapes(*(np.shape(x) for x in xs)) + (n, n), dtype=complex)
    pref = (-1) ** m
    try:
        for i in range(m):
            for j in range(i + 1, m):
                xx = xs[i] * xs[j]
                s = (xs[i] - xs[j]) / (1 - xx)
                Q = (1 - hs[i]) * (1 - hs[j]) - hs[i] * hoa[j] * (1 - q) * xx / (1 - q * xx)
                M[..., i, j] = s * Q
                M[..., j, i] = -M[..., i, j]
                pref = pref / s
            if m % 2:
                M[..., i, m] = hs[i] - 1
                M[..., m, i] = 1 - hs[i]
    except ZeroDivisionError as exc:
        # scalar entries only: x_i = x_j, x_i x_j = 1 or q x_i x_j = 1
        raise DegeneratePoint(f"Z kernel pole on the alphabet: {exc}") from exc
    return pref * pfaffian(M, validate=False)


# ---------------------------------------------------------------------------
# Contour-integral evaluation of G_nu
# ---------------------------------------------------------------------------


def _g_integrand_factors(ws, xs, nu, params: ModelParams):
    """Everything in the integrand except Z_{L+n}(x, 1/w)."""
    q = complex(params.q)
    n = len(ws)
    val = 1
    for i in range(n):
        w = ws[i]
        for x in xs:
            val = val * (q * w - x) / (w - x) * (1 - w * x) / (1 - q * w * x)
    for i in range(n):
        for j in range(i + 1, n):
            wi, wj = ws[i], ws[j]
            val = val * (wj - wi) / (q * wj - wi) * (1 - q * wi * wj) / (1 - wi * wj)
    for i in range(n):
        w = ws[i]
        if params.c_infinite:
            val = val * complex(params.a) * (q * w * w - 1) / (w - complex(params.a))
            val = -val  # lim c->inf of ac(qw^2-1)/((w-a)(w-c)) = -a(qw^2-1)/(w-a)
        else:
            val = (
                val
                * complex(params.a * params.c)
                * (q * w * w - 1)
                / ((w - complex(params.a)) * (w - complex(params.c)))
            )
        y_nu = complex(params.y_at(nu[i]))
        val = val * y_nu / (1 - q * w * y_nu)
        for j in range(1, nu[i]):
            yj = complex(params.y_at(j))
            val = val * (1 - w * yj) / (1 - q * w * yj)
    return val


def default_g_contours(nu, x_alphabet, params: ModelParams, n: int, nodes: int = 256):
    q = complex(params.q)
    xs = [complex(x) for x in x_alphabet]
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
    return nested_contours(xs, exclude, n, q, nodes=nodes, pair_q_inverse=(n > 1))


def g_contour(
    nu,
    x_alphabet,
    params: ModelParams,
    contours: ContourSpec | None = None,
    nodes: int = 256,
    tol: float = 1e-8,
    check_convergence: bool = True,
):
    """n-fold contour integral for G_nu, trapezoid rule on circles.

    Circles are spectrally accurate for this analytic integrand; with
    check_convergence the node count is doubled once and the drift is
    required to stay below tol.
    """
    nu = as_config(nu)
    xs = [complex(x) for x in x_alphabet]
    n = len(nu)
    if n == 0:
        return complex(z_triangular_vec(xs, params))
    if contours is None:
        contours = default_g_contours(nu, xs, params, n, nodes)
    if contours.n != n:
        raise ContourInvalid(f"need {n} contours, got {contours.n}")

    def integrand(ws):
        zval = z_triangular_vec(xs + [1.0 / w for w in ws], params)
        return zval * _g_integrand_factors(ws, xs, nu, params)

    out = nested_trapezoid(contours, integrand, nodes)
    if check_convergence:
        out2 = nested_trapezoid(contours, integrand, 2 * nodes)
        if abs(out2 - out) > tol * max(1.0, abs(out2)):
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


def verify_g_recursion_suite(nu, x_alphabet, params: ModelParams, tol: float = 1e-6) -> dict:
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
        report["residue_at_qx1"] = (err < tol, err)

    generic = abs(g_at(pole + 1.7 + 0.3j))
    far = abs(g_at(1e6 + 0j))
    report["decay_at_large_y"] = (far <= 1e-4 * max(generic, 1e-30), far)
    return report


# ---------------------------------------------------------------------------
# Cauchy identity check
# ---------------------------------------------------------------------------


def _configs_bounded(max_part, max_len):
    for r in range(max_len + 1):
        for comb in combinations(range(1, max_part + 1), r):
            yield tuple(sorted(comb, reverse=True))


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
    for lam in _configs_bounded(mu[0], len(mu)):
        if all(lam[i] <= mu[i] for i in range(len(lam))):
            out.append(lam)
    return out


def cauchy_check(mu, nu, x_alphabet, z_alphabet, params: ModelParams, cutoff: int = 12) -> dict:
    """Truncated skew-Cauchy identity report.

    LHS sums G_{kappa/mu}(x) F_{kappa/nu}(z) over kappa with parts <=
    cutoff (each factor exact on the semi-infinite lattice); RHS is the
    closed product times the finite lambda-sum.  Reports the residual at
    each intermediate cutoff; under the rho-guard the decay is geometric.
    """
    mu, nu = as_config(mu), as_config(nu)
    xs, zs = tuple(x_alphabet), tuple(z_alphabet)
    guard = guard_cauchy(xs, zs, params).require()
    q = params.q

    factor = 1
    for z in zs:
        for x in xs:
            factor = factor * (x - q * z) / (x - z) * (1 - z * x) / (1 - q * z * x)
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
        _configs_bounded(cutoff, len(mu) + len(xs)), key=lambda k: (config_max(k), k)
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


def default_orthogonality_contour(params: ModelParams, max_part: int, nodes: int = 128) -> ContourSpec:
    """Common circle around the points 1/y_j with q C disjoint from C."""
    q = complex(params.q)
    a = complex(params.a)
    ys = [complex(params.y_at(j)) for j in range(1, max_part + 1)]
    inv = [1.0 / y for y in ys]
    center = sum(inv) / len(inv)
    exclude = [0.0, 1.0, -1.0, a, 1.0 / a]
    for y in ys:
        exclude += [y, y / q, 1.0 / (q * y)]
    r_lo = max(abs(p - center) for p in inv)
    r_hi = min(abs(p - center) for p in exclude)
    if r_hi <= r_lo:
        raise ContourInvalid("y-inverse cluster is not separated from poles")
    # q-image disjointness for a single circle: |qc - c| > r(1+|q|)
    r_q = abs(q * center - center) / (1.0 + abs(q)) * 0.95
    radius = min(r_hi * 0.7 + r_lo * 0.3, r_q)
    if radius <= r_lo:
        raise ContourInvalid("cannot fit contour radius between constraints")
    spec = ContourSpec(((center, radius),), nodes)
    validate_contours(spec, inv, exclude, q, pair_inverse=False)
    return spec


def orthogonality_check(
    kappa,
    nu,
    params: ModelParams,
    nodes: int = 128,
    contour: ContourSpec | None = None,
):
    """n-fold quadrature of the orthogonality integrand against F_kappa.

    Conjecturally delta_{kappa,nu} in the c -> infinity model.  All n
    integration variables run over the same circle.  F is symmetric in its
    variables (the Bdot(z) commute; verify_operator_identity('bb_commute')),
    so it is evaluated once per sorted block of node tuples (symmetric_grid)
    through the vectorised operator stack, each row on its own variable's
    nodes; the rest of the integrand is not symmetric and runs on the whole
    grid.
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
    if contour is None:
        contour = default_orthogonality_contour(params, max_part, nodes)
    N = contour.nodes if nodes is None else nodes
    q = complex(params.q)
    a = complex(params.a)
    fparams = ModelParams(
        q=q,
        a=a,
        c=None,
        y=tuple(complex(params.y_at(j)) for j in range(1, max_part + 1)),
        c_infinite=True,
    )

    def integrand(ws):
        val = np.ones_like(ws[0])
        for i in range(n):
            for j in range(i + 1, n):
                wi, wj = ws[i], ws[j]
                val = val * (wj - wi) / (q * wj - wi) * (1 - q * wi * wj) / (1 - wi * wj)
        for i in range(n):
            w = ws[i]
            # (a - w), not (w - a): the orientation the degenerate Cauchy
            # identity produces, normalising the diagonal to +1
            val = val * (a - w) / (w * (1 - a * w)) * (1 - q * w * w) / (1 - w * w)
            y_nu = complex(params.y_at(nu[i]))
            val = val * y_nu / (1 - q * w * y_nu)
            for j in range(1, nu[i]):
                yj = complex(params.y_at(j))
                val = val * (1 - w * yj) / (1 - q * w * yj)
        return val

    def f_kappa(ws):
        return OperatorStack([(KIND_B, w) for w in ws], fparams).element(kappa, ())

    circles = ContourSpec(contour.circles[:1] * n, N)
    return nested_trapezoid(circles, integrand, N, symmetric=f_kappa)
