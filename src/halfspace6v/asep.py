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
from bisect import bisect_left
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


# The move table describes every move of the truncated chain once.  A move
# type (flip, fixed, need, rate) leaves mask m when m & fixed == need and goes
# to m ^ flip: the boundary loss (gamma) and gain (alpha) at site 1, then per
# site s = 1..S the right hop and the left hop.  That is the order in which
# the event loop lists a mask's moves.  Zero rates are left out.

MAX_ARRAY_BYTES = 1 << 29
"""Cap on the arrays an ASEP route allocates: the move table of
uniformization or a dense 2^S x 2^S matrix.  Larger requests raise
CapExceeded before anything is allocated."""

# table bytes per edge (source, target, rate, and two edge-length temporaries
# of one sparse mat-vec) and per state (the mat-vec's state-length vectors)
_EDGE_BYTES = 40
_STATE_BYTES = 40


def _move_types(params: AsepParams) -> list:
    S, q = params.sites, params.q
    types = []
    if params.gamma:
        types.append((1, 1, 1, params.gamma))
    if params.alpha:
        types.append((1, 1, 0, params.alpha))
    for s in range(1, S + 1):
        bit = 1 << (s - 1)
        if s < S:
            types.append((3 * bit, 3 * bit, bit, 1.0))
        if s > 1 and q:
            types.append((3 * bit >> 1, 3 * bit >> 1, bit, q))
    return types


def _check_bytes(nbytes: int, what: str) -> None:
    if nbytes > MAX_ARRAY_BYTES:
        raise CapExceeded(
            f"{what} needs about {nbytes / 2**20:,.0f} MiB, over the "
            f"{MAX_ARRAY_BYTES >> 20} MiB cap; lower the number of sites"
        )


def _move_table(params: AsepParams):
    """Edge arrays (src, tgt, rate) of every move, one block per move type."""
    types = _move_types(params)
    dim = 1 << params.sites
    edges = sum(dim >> fixed.bit_count() for _, fixed, _, _ in types)
    _check_bytes(_EDGE_BYTES * edges + _STATE_BYTES * dim, f"the {params.sites}-site move table")
    src, tgt, rate = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)], [np.zeros(0)]
    for flip, fixed, need, r in types:
        # the fixed bits are contiguous: spread a free counter around them
        low = (fixed & -fixed).bit_length() - 1
        free = np.arange(dim >> fixed.bit_count())
        m = (free & ((1 << low) - 1)) | (free >> low << (low + fixed.bit_count())) | need
        src.append(m)
        tgt.append(m ^ flip)
        rate.append(np.full(m.size, float(r)))
    return np.concatenate(src), np.concatenate(tgt), np.concatenate(rate)


def generator_matrix(params: AsepParams) -> np.ndarray:
    """Dense rate matrix L with L[m, m'] = rate(m -> m'), zero row sums,
    assembled from the move table (for tests and small S)."""
    dim = 1 << params.sites
    _check_bytes(8 * dim * dim, f"the dense {params.sites}-site generator")
    src, tgt, rate = _move_table(params)
    L = np.zeros((dim, dim))
    L[src, tgt] = rate
    np.fill_diagonal(L, -np.bincount(src, weights=rate, minlength=dim))
    return L


def generator_apply(f: dict, params: AsepParams) -> dict:
    """Forward (master-equation) generator acting on a distribution-shaped
    function: [Lf](nu) = sum_mu rate(mu -> nu) f(mu) - totalrate(nu) f(nu)."""
    dim = 1 << params.sites
    vec = np.zeros(dim)
    for cfg, v in f.items():
        vec[_config_to_mask(cfg, params.sites)] = v
    src, tgt, rate = _move_table(params)
    inflow = np.bincount(tgt, weights=rate * vec[src], minlength=dim)
    out = inflow - np.bincount(src, weights=rate, minlength=dim) * vec
    return {_mask_to_config(int(m)): out[m] for m in np.flatnonzero(out)}


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
    start = _config_to_mask(mu, S)
    src, tgt, rate = _move_table(params)
    dim = 1 << S
    # one step of the uniformized chain, v <- v (I + L / Lambda), on the table
    jump = rate / lam_rate
    stay = 1.0 - np.bincount(src, weights=rate, minlength=dim) / lam_rate
    v = np.zeros(dim)
    v[start] = 1.0
    out = weight * v
    acc = weight
    k = 0
    max_terms = 1000 * (1 + int(lt))
    while 1.0 - acc > series_tol:
        if k == max_terms:
            raise CapExceeded(
                f"uniformization missed mass {1.0 - acc:.3e} after {k} terms"
            )
        k += 1
        v = stay * v + np.bincount(tgt, weights=jump * v[src], minlength=dim)
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


def wilson_interval(successes: int, n: int, z: float = 3.0):
    """Wilson score interval (z sigma) for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _mask_moves(mask: int, types: list) -> tuple:
    """Targets, cumulative rates and 1/total rate of the moves out of mask,
    in table order (None for a mask with no moves)."""
    targets, rates, cum, acc = [], [], [], 0.0
    for flip, fixed, need, r in types:
        if mask & fixed == need:
            targets.append(mask ^ flip)
            rates.append(r)
            acc += r
            cum.append(acc)
    # sum() rather than acc: from Python 3.12 on, sum() of floats is compensated
    total = sum(rates)
    return (targets, cum, total, 1.0 / total) if total else None


def simulate_gillespie(mu, params: AsepParams, samples: int, seed: int = 0):
    """Empirical time-t distribution from `samples` independent replicas.

    Replica r draws from the Philox stream with key (seed << 64) + r and
    counter 0, so the result depends on (mu, params, samples, seed) alone,
    not on execution order.  One generator is reset to that key before each
    replica.  Returns {config: (p_hat, lo, hi)} with 3-sigma Wilson bounds.
    """
    if samples < 1:
        raise ValueError("samples >= 1")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    mask0 = _config_to_mask(mu, params.sites)
    types = _move_types(params)
    t_end = params.t
    memo: dict = {}
    bitgen = np.random.Philox(key=seed << 64)
    rng = np.random.Generator(bitgen)
    # the setter copies this dict in: its counter and buffer stay at their
    # start values, and key word 0 (the low 64 bits) is the replica
    state = bitgen.state
    key = state["state"]["key"]
    counts: dict[int, int] = {}
    for rep in range(samples):
        key[0] = rep
        bitgen.state = state
        mask, t = mask0, 0.0
        while True:
            if mask not in memo:
                memo[mask] = _mask_moves(mask, types)
            moves = memo[mask]
            if moves is None:
                break
            targets, cum, total, scale = moves
            t += rng.exponential(scale)
            if t >= t_end:
                break
            i = bisect_left(cum, rng.random() * total)
            if i < len(targets):
                mask = targets[i]
        counts[mask] = counts.get(mask, 0) + 1
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
    _check_bytes(8 * dim * dim, f"the dense {sites}-site row kernel")
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
