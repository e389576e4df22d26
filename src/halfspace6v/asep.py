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
the buffer in time t, a Poisson tail; from the empty line, times the
chance 1 - e^(-alpha t) that a particle enters at all.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ArityError, CapExceeded, ContourInvalid, CutoffTooSmall, DivisionByZero
from .rowops import KIND_A, _column_moves, as_config, config_max
from .symfun import ContourSpec, nested_trapezoid, pair_factors, validate_contours
from .weights import ModelParams, k_table


@dataclass(frozen=True)
class AsepParams:
    """Rates, time horizon, and half-line truncation."""

    q: float
    alpha: float
    gamma: float = 0.0
    t: float = 0.0
    sites: int = 8

    def __post_init__(self):
        for name in ("q", "alpha", "gamma", "t"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")
        if self.sites < 1:
            raise ValueError("need sites >= 1")


def map_params(a, c, q):
    """(alpha, gamma) from the boundary parameters (a, c); c None is infinite."""
    if c is None:
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
# site s = 1..S the right hop and the left hop.  The Gillespie loop picks a
# move by its cumulative rate in that order.  Zero rates are left out.

MAX_ARRAY_BYTES = 1 << 29
"""Cap on the arrays an ASEP route allocates: the move table of
uniformization or a dense 2^S x 2^S matrix.  Larger requests raise
CapExceeded before anything is allocated."""

# table bytes per edge (source, target, rate, and two edge-length temporaries
# of one sparse mat-vec) and per state (the mat-vec's state-length vectors)
_EDGE_BYTES = 40
_STATE_BYTES = 40
# transition_prob_exact's bound on the truncation leakage, the mass that
# transition_distribution_exact's uniformization series may leave unsummed,
# and the width in sigmas of the Monte Carlo route's Wilson intervals
_LEAK_TOL = 1e-4
_SERIES_TOL = 1e-13
_WILSON_Z = 3.0


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
    truncated and infinite chains couple until the front reaches S.  From
    the empty line no front exists before the first entry (rate alpha) and
    1 + Poisson(t) dominates it after, so the bound gains 1 - e^(-alpha t).
    """
    mu = as_config(mu)
    tail = _poisson_tail(params.t, params.sites - max(config_max(mu), 1))
    return tail if mu else -math.expm1(-params.alpha * params.t) * tail


def transition_distribution_exact(mu, params: AsepParams):
    """Distribution at time t from mu on the truncated chain, by
    uniformization: e^(tL) = sum_k pois(Lambda t; k) (I + L/Lambda)^k.

    Raises CapExceeded rather than return an under-summed vector: when
    exp(-Lambda t) underflows (Lambda t > ~708) or the series has not
    reached _SERIES_TOL after 1000 (1 + Lambda t) terms.
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
    while 1.0 - acc > _SERIES_TOL:
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


def transition_prob_exact(mu, nu, params: AsepParams):
    """P_t(mu -> nu) on the truncated chain, plus the leakage bound.

    Raises CutoffTooSmall when the Poisson front bound exceeds _LEAK_TOL
    (enlarge `sites` or shorten t).
    """
    mu, nu = as_config(mu), as_config(nu)
    leak = leakage_bound(mu, params)
    if leak > _LEAK_TOL:
        raise CutoffTooSmall(
            f"truncation leakage bound {leak:.3e} exceeds {_LEAK_TOL:.1e}"
        )
    dist = transition_distribution_exact(mu, params)
    return float(dist[_config_to_mask(nu, params.sites)]), leak


# ---------------------------------------------------------------------------
# Kinetic Monte Carlo
# ---------------------------------------------------------------------------


def wilson_interval(successes: int, n: int):
    """Wilson score interval (_WILSON_Z sigma) for a binomial proportion."""
    z = _WILSON_Z
    if n == 0:
        return 0.0, 1.0
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# Replica masks are int64: capping at 62 sites keeps every mask, need and
# flip below 2^62, clear of the sign bit.  Replicas run in blocks of _BLOCK,
# which bounds the (live replicas x move types) arrays of one event step.
_MASK_BITS = 62
_BLOCK = 1 << 13


def _event_uniforms(seed: int, k: int, first: int, n: int) -> np.ndarray:
    """Doubles 2r and 2r+1 of the Philox stream with key (seed << 64) + k at
    counter 0, as rows r - first for replicas r = first .. first + n - 1.
    Each counter value yields four doubles, so the stream is entered at
    counter first // 2 and the two doubles of an odd `first` are skipped."""
    skip = 2 * (first % 2)
    stream = np.random.Generator(np.random.Philox(counter=first // 2, key=(seed << 64) + k))
    return stream.random(2 * n + skip)[skip:].reshape(n, 2)


def simulate_gillespie(mu, params: AsepParams, samples: int, seed: int = 0):
    """Empirical time-t distribution from `samples` independent replicas.

    All replicas of a block advance together, one event per step.  Event k
    of replica r reads the doubles U, V at positions 2r and 2r+1 of the
    Philox stream with key (seed << 64) + k and counter 0: the waiting time
    is -log1p(-U)/total, and the move is the first of `_move_types` whose
    cumulative rate exceeds V*total (none when no rate does).  A replica's
    path thus depends on (mu, params, seed, r) alone, not on the other
    replicas or the block size.  Returns {config: (p_hat, lo, hi)} with
    3-sigma Wilson bounds, in the order of the first replica to end in each
    configuration.  Raises CapExceeded beyond 62 sites (int64 masks).
    """
    if samples < 1:
        raise ValueError("samples >= 1")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    if params.sites > _MASK_BITS:
        raise CapExceeded(
            f"{params.sites} sites exceed the {_MASK_BITS}-site replica mask; lower the number of sites"
        )
    mask0 = _config_to_mask(mu, params.sites)
    types = _move_types(params)
    flip, fixed, need = (np.array([m[j] for m in types], np.int64) for j in range(3))
    rate = np.array([m[3] for m in types], float)
    counts: dict[int, int] = {}
    for first in range(0, samples, _BLOCK):
        mask = np.full(min(_BLOCK, samples - first), mask0, np.int64)
        t = np.zeros(mask.size)
        live = np.arange(mask.size)
        k = 0
        while live.size:
            distinct, inv = np.unique(mask[live], return_inverse=True)
            cum = np.cumsum(np.where(distinct[:, None] & fixed == need, rate, 0.0), axis=1)
            total = cum[:, -1] if types else np.zeros(distinct.size)
            keep = total[inv] > 0
            live, inv = live[keep], inv[keep]
            if not live.size:
                break
            lo = int(live[0])
            u, v = _event_uniforms(seed, k, first + lo, int(live[-1]) - lo + 1)[live - lo].T
            t[live] += -np.log1p(-u) / total[inv]
            keep = t[live] < params.t
            live, inv, v = live[keep], inv[keep], v[keep]
            i = (cum[inv] <= (v * total[inv])[:, None]).sum(axis=1)
            moved = i < len(types)
            mask[live[moved]] ^= flip[i[moved]]
            k += 1
        distinct, where, cnt = np.unique(mask, return_index=True, return_counts=True)
        for j in np.argsort(where):
            m = int(distinct[j])
            counts[m] = counts.get(m, 0) + int(cnt[j])
    out = {}
    for mask, cnt in counts.items():
        lo, hi = wilson_interval(cnt, samples)
        out[_mask_to_config(mask)] = (cnt / samples, lo, hi)
    return out


# ---------------------------------------------------------------------------
# Closed-form contour formula (gamma = 0, empty start)
# ---------------------------------------------------------------------------


def _formula_poles(params: AsepParams) -> list:
    """The points every circle of the formula must exclude."""
    q, alpha = params.q, params.alpha
    if abs(alpha + q - 1.0) < 1e-12:
        raise ContourInvalid("alpha + q = 1 is excluded by the formula")
    poles = [0.0, q, 1.0 / q if q else 50.0]
    # at alpha = 0 the factor q + alpha - 1 - alpha w is the constant q - 1
    return poles + [(q + alpha - 1.0) / alpha] if alpha else poles


def asep_contours(params: AsepParams, n: int) -> ContourSpec:
    """Nested circles around 1 for the gamma = 0 transition formula.

    Radii follow a geometric ladder validated against the exclusions
    {0, q, 1/q, (q+alpha-1)/alpha} and the q-image/inverse disjointness.
    The ladder is its own, not symfun.nested_contours: the essential
    singularity at w = 1 is not the two-pole annulus whose geometric mean
    that constructor takes, and test_formula_three_and_four_particles pins
    the 64-node values these radii give to 1e-12.
    """
    q = params.q
    exclude = _formula_poles(params)
    r_max = min(abs(1.0 - p) for p in exclude)
    ladder = 0.55 * r_max
    for shrink in range(40):
        radii = [ladder * (0.995**shrink) * (0.62 ** (n - 1 - k)) for k in range(n)]
        spec = ContourSpec(tuple((1.0 + 0.0j, r) for r in radii))
        try:
            validate_contours(spec, [1.0], exclude, q)
            return spec
        except ContourInvalid:
            continue
    raise ContourInvalid("no admissible ladder of circles around 1")


def transition_prob_formula(nu, params: AsepParams, nodes: int = 128):
    """P_t(empty -> nu) for gamma = 0 by the n-fold contour integral

        alpha^n e^{-alpha t} oint.. prod_{i<j} [(w_j-w_i)/(q w_j-w_i)
          (1-q w_i w_j)/(1-w_i w_j)]
        prod_i [ (1-q w_i^2) / (w_i (q+alpha-1-alpha w_i)(1-q w_i))
          ((1-w_i)/(1-q w_i))^(nu_i - 1) exp((1-q)^2 w_i t
          / ((1-w_i)(1-q w_i))) ]

    on the nested circles around the essential singularity at w = 1 that
    asep_contours builds.
    """
    nu = as_config(nu)
    if params.gamma != 0:
        raise ArityError("closed formula requires gamma = 0")
    n = len(nu)
    q, alpha, t = params.q, params.alpha, params.t
    if n == 0:
        return math.exp(-alpha * t)
    contours = asep_contours(params, n)

    def integrand(ws):
        # one factor per variable on its own nodes, one per pair on its two
        # axes; nested_trapezoid contracts them
        factors = [
            (1 - q * w * w) / (w * (q + alpha - 1 - alpha * w) * (1 - q * w))
            * ((1 - w) / (1 - q * w)) ** (nu[i] - 1)
            * np.exp((1 - q) ** 2 * w * t / ((1 - w) * (1 - q * w)))
            for i, w in enumerate(ws)
        ]
        return factors + pair_factors(ws, q)

    val = alpha**n * math.exp(-alpha * t) * nested_trapezoid(contours, integrand, nodes)
    return val.real


# ---------------------------------------------------------------------------
# Vertex-model limit
# ---------------------------------------------------------------------------


def vertex_row_kernel(x, params: ModelParams, sites: int) -> np.ndarray:
    """Dense one-sweep kernel M[mask, mask'] = <mask| A(x) |mask'> on the
    truncated window (bit s-1 <-> site s, y_j per column).

    Contracted column by column: K[mask, mask', ch] over sites 1..j grows
    from the boundary weights, shape (1, 1, 4), by one column tensor per
    site, and the last column contracts straight into the target channel
    (0, 0).  The peak is the 4-channel array of S-1 sites next to the
    output, 2 * 4^S entries, and it is checked before allocating.  Raises
    ValueError when sites < 1 or a kernel entry is not real.
    """
    if sites < 1:
        raise ValueError(f"need sites >= 1, got {sites}")
    # T[eta_in, eta_out, ch, ch'] per distinct y_j, channel ch = 2 b + t
    tensors = {}
    for yj in {params.y_at(j) for j in range(1, sites + 1)}:
        T = tensors[yj] = np.zeros((2, 2, 4, 4), complex)
        for (eta_in, (b, t)), moves in _column_moves(KIND_A, x, yj, params.q, False)[0].items():
            for eta_out, (b2, t2), w in moves:
                T[eta_in, eta_out, 2 * b + t, 2 * b2 + t2] += complex(w)
    K = np.array([[[complex(w) for row in k_table(x, params) for w in row]]])
    real = not any(np.any(a.imag) for a in (K, *tensors.values()))
    if real:
        K = K.real
        tensors = {yj: T.real for yj, T in tensors.items()}
    _check_bytes(2 * K.itemsize * 4**sites, f"the dense {sites}-site row kernel")
    for j in range(1, sites + 1):
        T = tensors[params.y_at(j)]
        n = K.shape[0]
        if j < sites:
            K = np.einsum("abc,decf->daebf", K, T).reshape(2 * n, 2 * n, 4)
        else:
            K = np.einsum("abc,dec->daeb", K, T[..., 0]).reshape(2 * n, 2 * n)
    if not real:
        if np.any(K.imag):
            raise ValueError(f"the row kernel at x={x} has complex entries")
        K = K.real
    return K


def vertex_limit_check(mu, nu, vertex_params: ModelParams, t: float, L_list, sites: int = 8) -> dict:
    """Compare G_{nu/mu} at x_i = 1 - (1-q)t/(2L), y = 1 with the ASEP
    transition probability; the error should shrink like 1/L.

    Returns {"rows": [(L, value, reference, abs_error)], "orders": [...]}
    with a number on each truncation: "asep_bound", the leakage bound of
    the S-site ASEP reference (transition_prob_exact), and "window_leak",
    {L: 1 - total mass after the L sweeps}, the mass carried past site S by
    the S-site vertex kernel, which bounds that truncation's error while
    the kernel is stochastic.  Raises ValueError when some L < 1.
    """
    if any(L < 1 for L in L_list):
        raise ValueError(f"every row count L must be >= 1, got {L_list}")
    mu, nu = as_config(mu), as_config(nu)
    q = float(vertex_params.q)
    alpha, gamma = map_params(
        float(vertex_params.a),
        None if vertex_params.c_infinite else float(vertex_params.c),
        q,
    )
    ap = AsepParams(q=q, alpha=alpha, gamma=gamma, t=t, sites=sites)
    ref, asep_bound = transition_prob_exact(mu, nu, ap)
    hom = ModelParams(
        q=q,
        a=float(vertex_params.a),
        c=None if vertex_params.c_infinite else float(vertex_params.c),
        y=(1.0,),
        c_infinite=vertex_params.c_infinite,
    )
    rows = []
    window_leak = {}
    for L in L_list:
        x = 1.0 - (1.0 - q) * t / (2.0 * L)
        M = vertex_row_kernel(x, hom, sites)
        v = np.zeros(1 << sites)
        v[_config_to_mask(mu, sites)] = 1.0
        for _ in range(L):
            v = v @ M
        val = float(v[_config_to_mask(nu, sites)])
        rows.append((L, val, ref, abs(val - ref)))
        window_leak[L] = float(1.0 - v.sum())
    orders = []
    for (L1, _, _, e1), (L2, _, _, e2) in zip(rows, rows[1:]):
        if e2 > 0:
            orders.append(math.log(e1 / e2) / math.log(L2 / L1))
    return {
        "rows": rows,
        "orders": orders,
        "alpha": alpha,
        "gamma": gamma,
        "asep_bound": asep_bound,
        "window_leak": window_leak,
    }
