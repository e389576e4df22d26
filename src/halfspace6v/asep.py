"""Open ASEP on the half-line: generator, exact transition probabilities,
kinetic Monte Carlo, the closed-form contour formula, and the vertex-model
limit check.

Particles on sites 1, 2, ... hop right at rate 1 and left at rate q,
subject to exclusion; at site 1 a particle enters at rate alpha (if empty)
and leaves at rate gamma (if occupied).  The boundary rates come from the
vertex-model parameters through

    alpha = a c (1-q) / ((1-a)(1-c)),   gamma = -(1-q) / ((1-a)(1-c)),

with gamma -> 0 and alpha -> a(1-q)/(a-1) in the c -> infinity model.

The half-line is truncated at a cutoff S with right moves out of the
window suppressed; the truncation error of any probability is bounded by
the chance that the front (whose rightward jumps occur at rate 1) covers
the buffer in time t, a Poisson tail.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ArityError, CapExceeded, ContourInvalid, CutoffTooSmall, DivisionByZero
from .rowops import KIND_A, SparseState, apply_double_row, as_config, config_max
from .symfun import ContourSpec, nested_trapezoid, validate_contours
from .weights import ModelParams


@dataclass(frozen=True)
class AsepParams:
    """Rates, time horizon, and half-line truncation."""

    q: float
    alpha: float
    gamma: float = 0.0
    t: float = 0.0
    sites: int = 8

    def __post_init__(self):
        if self.q < 0 or self.alpha < 0 or self.gamma < 0:
            raise ValueError("rates must be nonnegative")
        if self.t < 0 or self.sites < 1:
            raise ValueError("need t >= 0 and sites >= 1")


def map_params(a, c, q, c_infinite: bool = False):
    """(alpha, gamma) from the boundary parameters (a, c)."""
    if c_infinite:
        den = a - 1
        if den == 0:
            raise DivisionByZero("a = 1 in the c -> infinity rate map")
        return a * (1 - q) / den, 0 * q
    den = (1 - a) * (1 - c)
    if den == 0:
        raise DivisionByZero("(1-a)(1-c) = 0 in the rate map")
    return a * c * (1 - q) / den, -(1 - q) / den


# ---------------------------------------------------------------------------
# Truncated generator (states are bitmasks over sites 1..S, bit s-1 <-> site s)
# ---------------------------------------------------------------------------


def _config_to_mask(cfg, sites: int) -> int:
    cfg = as_config(cfg)
    if config_max(cfg) > sites:
        raise CutoffTooSmall(f"configuration extends past site cutoff {sites}")
    mask = 0
    for p in cfg:
        mask |= 1 << (p - 1)
    return mask


def _mask_to_config(mask: int) -> tuple:
    return tuple(sorted((i + 1 for i in range(mask.bit_length()) if mask >> i & 1), reverse=True))


def _moves(mask: int, params: AsepParams):
    """(target_mask, rate) pairs out of `mask`; right moves past S suppressed."""
    S, q = params.sites, params.q
    out = []
    if mask & 1:
        if params.gamma:
            out.append((mask & ~1, params.gamma))
    elif params.alpha:
        out.append((mask | 1, params.alpha))
    for s in range(1, S + 1):
        bit = 1 << (s - 1)
        if not mask & bit:
            continue
        if s + 1 <= S and not mask & (bit << 1):
            out.append((mask & ~bit | (bit << 1), 1.0))
        if s - 1 >= 1 and not mask & (bit >> 1):
            if q:
                out.append((mask & ~bit | (bit >> 1), q))
    return out


def generator_matrix(params: AsepParams) -> np.ndarray:
    """Dense rate matrix L with L[m, m'] = rate(m -> m'), zero row sums."""
    dim = 1 << params.sites
    L = np.zeros((dim, dim))
    for m in range(dim):
        for m2, r in _moves(m, params):
            L[m, m2] += r
            L[m, m] -= r
    return L


def generator_apply(f: dict, params: AsepParams) -> dict:
    """Forward (master-equation) generator acting on a distribution-shaped
    function: [Lf](nu) = sum_mu rate(mu -> nu) f(mu) - totalrate(nu) f(nu)."""
    dim = 1 << params.sites
    vec = np.zeros(dim)
    for cfg, v in f.items():
        vec[_config_to_mask(cfg, params.sites)] = v
    out = vec @ generator_matrix(params)
    return {
        _mask_to_config(m): out[m] for m in range(dim) if out[m] != 0.0
    }


def _poisson_tail(lam: float, k: int) -> float:
    """P(Poisson(lam) >= k)."""
    if k <= 0:
        return 1.0
    if lam == 0:
        return 0.0
    term = math.exp(-lam)
    cdf = term
    for j in range(1, k):
        term *= lam / j
        cdf += term
    return max(0.0, 1.0 - cdf)


def leakage_bound(mu, params: AsepParams) -> float:
    """Upper bound on the truncation error of any transition probability.

    The rightmost particle advances only through its own rate-1 right
    hops, so the front position is dominated by r0 + Poisson(t); the
    truncated and infinite chains couple until the front reaches S.
    """
    r0 = max(config_max(as_config(mu)), 1)
    return _poisson_tail(params.t, params.sites - r0)


def transition_distribution_exact(mu, params: AsepParams, series_tol: float = 1e-13):
    """Distribution at time t from mu on the truncated chain, by
    uniformization: e^(tL) = sum_k pois(Lambda t; k) (I + L/Lambda)^k.

    Raises CapExceeded rather than return an under-summed vector: when
    exp(-Lambda t) underflows (Lambda t > ~708) or the series has not
    reached series_tol after 1000 (1 + Lambda t) terms.
    """
    S = params.sites
    lam_rate = S * (1.0 + params.q) + params.alpha + params.gamma
    lt = lam_rate * params.t
    weight = math.exp(-lt)
    if weight < sys.float_info.min:
        raise CapExceeded(
            f"uniformization weight exp(-{lt:.4g}) underflows; shorten t or lower the rates"
        )
    L = generator_matrix(params)
    dim = L.shape[0]
    P = np.eye(dim) + L / lam_rate
    v = np.zeros(dim)
    v[_config_to_mask(mu, S)] = 1.0
    out = np.zeros(dim)
    out += weight * v
    acc = weight
    k = 0
    max_terms = 1000 * (1 + int(lt))
    while 1.0 - acc > series_tol:
        if k == max_terms:
            raise CapExceeded(
                f"uniformization missed mass {1.0 - acc:.3e} after {k} terms"
            )
        k += 1
        v = v @ P
        weight *= lt / k
        out += weight * v
        acc += weight
    return out


def transition_prob_exact(mu, nu, params: AsepParams, leak_tol: float = 1e-4):
    """P_t(mu -> nu) on the truncated chain, plus the leakage bound.

    Raises CutoffTooSmall when the Poisson front bound exceeds leak_tol
    (enlarge `sites` or shorten t).
    """
    mu, nu = as_config(mu), as_config(nu)
    leak = leakage_bound(mu, params)
    if leak > leak_tol:
        raise CutoffTooSmall(
            f"truncation leakage bound {leak:.3e} exceeds {leak_tol:.1e}"
        )
    dist = transition_distribution_exact(mu, params)
    return float(dist[_config_to_mask(nu, params.sites)]), leak


# ---------------------------------------------------------------------------
# Kinetic Monte Carlo
# ---------------------------------------------------------------------------


def _simulate_one(mask: int, params: AsepParams, rng) -> int:
    t = 0.0
    while True:
        moves = _moves(mask, params)
        total = sum(r for _, r in moves)
        if total == 0.0:
            return mask
        t += rng.exponential(1.0 / total)
        if t >= params.t:
            return mask
        u = rng.random() * total
        acc = 0.0
        for m2, r in moves:
            acc += r
            if u <= acc:
                mask = m2
                break
    return mask


def wilson_interval(successes: int, n: int, z: float = 3.0):
    """Wilson score interval (z sigma) for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def simulate_gillespie(mu, params: AsepParams, samples: int, seed: int = 0):
    """Empirical time-t distribution from `samples` independent replicas.

    Each replica draws from its own counter-based stream keyed by
    (seed, replica), so results are reproducible regardless of execution
    order.  Returns {config: (p_hat, lo, hi)} with 3-sigma Wilson bounds.
    """
    if samples < 1:
        raise ValueError("samples >= 1")
    mask0 = _config_to_mask(mu, params.sites)
    counts: dict[int, int] = {}
    for rep in range(samples):
        rng = np.random.Generator(np.random.Philox(key=(seed << 64) + rep))
        final = _simulate_one(mask0, params, rng)
        counts[final] = counts.get(final, 0) + 1
    out = {}
    for mask, cnt in counts.items():
        lo, hi = wilson_interval(cnt, samples)
        out[_mask_to_config(mask)] = (cnt / samples, lo, hi)
    return out


# ---------------------------------------------------------------------------
# Closed-form contour formula (gamma = 0, empty start)
# ---------------------------------------------------------------------------


def asep_contours(params: AsepParams, n: int, nodes: int = 128, base_radius: float = None) -> ContourSpec:
    """Nested circles around 1 for the gamma = 0 transition formula.

    Radii follow a geometric ladder validated against the exclusions
    {0, q, 1/q, (q+alpha-1)/alpha} and the q-image/inverse disjointness.
    """
    q, alpha = params.q, params.alpha
    if abs(alpha + q - 1.0) < 1e-12:
        raise ContourInvalid("alpha + q = 1 is excluded by the formula")
    exclude = [0.0, q, 1.0 / q if q else 50.0, (q + alpha - 1.0) / alpha]
    r_max = min(abs(1.0 - p) for p in exclude)
    ladder = base_radius or 0.55 * r_max
    for shrink in range(40):
        radii = [ladder * (0.995**shrink) * (0.62 ** (n - 1 - k)) for k in range(n)]
        spec = ContourSpec(tuple((1.0 + 0.0j, r) for r in radii), nodes)
        try:
            validate_contours(spec, [1.0], exclude, q, pair_inverse=True)
            return spec
        except ContourInvalid:
            continue
    raise ContourInvalid("no admissible ladder of circles around 1")


def transition_prob_formula(
    nu,
    params: AsepParams,
    contours: ContourSpec | None = None,
    nodes: int = 128,
):
    """P_t(empty -> nu) for gamma = 0 by the n-fold contour integral

        alpha^n e^{-alpha t} oint.. prod_{i<j} [(w_j-w_i)/(q w_j-w_i)
          (1-q w_i w_j)/(1-w_i w_j)]
        prod_i [ (1-q w_i^2) / (w_i (q+alpha-1-alpha w_i)(1-q w_i))
          ((1-w_i)/(1-q w_i))^(nu_i - 1) exp((1-q)^2 w_i t
          / ((1-w_i)(1-q w_i))) ]

    with nested circles around the essential singularity at w = 1.
    """
    nu = as_config(nu)
    if params.gamma != 0:
        raise ArityError("closed formula requires gamma = 0")
    n = len(nu)
    q, alpha, t = params.q, params.alpha, params.t
    if n == 0:
        return math.exp(-alpha * t)
    if contours is None:
        contours = asep_contours(params, n, nodes)

    def integrand(ws):
        val = np.ones_like(ws[0])
        for i in range(n):
            for j in range(i + 1, n):
                wi, wj = ws[i], ws[j]
                val = val * (wj - wi) / (q * wj - wi) * (1 - q * wi * wj) / (1 - wi * wj)
        for i in range(n):
            w = ws[i]
            val = val * (1 - q * w * w) / (w * (q + alpha - 1 - alpha * w) * (1 - q * w))
            val = val * ((1 - w) / (1 - q * w)) ** (nu[i] - 1)
            val = val * np.exp((1 - q) ** 2 * w * t / ((1 - w) * (1 - q * w)))
        return val

    val = alpha**n * math.exp(-alpha * t) * nested_trapezoid(contours, integrand, nodes)
    return val.real


# ---------------------------------------------------------------------------
# Vertex-model limit
# ---------------------------------------------------------------------------


def vertex_row_kernel(x, params: ModelParams, sites: int) -> np.ndarray:
    """Dense one-sweep kernel M[mask, mask'] = <mask| A(x) |mask'> on the
    truncated window, homogeneous y."""
    dim = 1 << sites
    M = np.zeros((dim, dim))
    for m in range(dim):
        bra = SparseState({_mask_to_config(m): 1.0})
        out = apply_double_row(bra, KIND_A, x, sites, params)
        for cfg, w in out.items():
            M[m, _config_to_mask(cfg, sites)] = w.real if isinstance(w, complex) else float(w)
    return M


def vertex_limit_check(mu, nu, vertex_params: ModelParams, t: float, L_list, sites: int = 8) -> dict:
    """Compare G_{nu/mu} at x_i = 1 - (1-q)t/(2L), y = 1 with the ASEP
    transition probability; the error should shrink like 1/L.

    Returns {"rows": [(L, value, reference, abs_error)], "orders": [...]}.
    """
    mu, nu = as_config(mu), as_config(nu)
    q = float(vertex_params.q)
    alpha, gamma = map_params(
        float(vertex_params.a),
        None if vertex_params.c_infinite else float(vertex_params.c),
        q,
        c_infinite=vertex_params.c_infinite,
    )
    ap = AsepParams(q=q, alpha=alpha, gamma=gamma, t=t, sites=sites)
    ref, _ = transition_prob_exact(mu, nu, ap)
    hom = ModelParams(
        q=q,
        a=float(vertex_params.a),
        c=None if vertex_params.c_infinite else float(vertex_params.c),
        y=(1.0,),
        c_infinite=vertex_params.c_infinite,
    )
    rows = []
    for L in L_list:
        x = 1.0 - (1.0 - q) * t / (2.0 * L)
        M = vertex_row_kernel(x, hom, sites)
        v = np.zeros(1 << sites)
        v[_config_to_mask(mu, sites)] = 1.0
        for _ in range(L):
            v = v @ M
        val = float(v[_config_to_mask(nu, sites)])
        rows.append((L, val, ref, abs(val - ref)))
    orders = []
    for (L1, _, _, e1), (L2, _, _, e2) in zip(rows, rows[1:]):
        if e2 > 0:
            orders.append(math.log(e1 / e2) / math.log(L2 / L1))
    return {"rows": rows, "orders": orders, "alpha": alpha, "gamma": gamma}
