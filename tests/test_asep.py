import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace6v import asep
from halfspace6v.asep import (
    MAX_ARRAY_BYTES,
    AsepParams,
    asep_contours,
    generator_matrix,
    leakage_bound,
    map_params,
    simulate_gillespie,
    transition_distribution_exact,
    transition_prob_exact,
    transition_prob_formula,
    vertex_limit_check,
    vertex_row_kernel,
    wilson_interval,
)
from halfspace6v.errors import (
    ArityError,
    CapExceeded,
    ContourInvalid,
    CutoffTooSmall,
    DivisionByZero,
)
from halfspace6v.rowops import KIND_A, OperatorStack, in_probability_regime
from halfspace6v.symfun import ContourSpec, validate_contours
from halfspace6v.weights import ModelParams
from test_acceptance import family_wise_rejects

AP = AsepParams(q=0.25, alpha=0.5, gamma=0.0, t=1.0, sites=8)


def _mask(cfg):
    return sum(1 << (p - 1) for p in cfg)


def test_map_params_examples():
    assert map_params(F(-1), F(2), F(1, 2)) == (F(1, 2), F(1, 4))
    assert map_params(F(3), F(7), F(1)) == (0, 0)
    alpha, gamma = map_params(F(3), None, F(1, 4))
    assert alpha == F(9, 8) and gamma == 0
    with pytest.raises(DivisionByZero):
        map_params(F(1), F(2), F(1, 2))


def test_generator_conservation():
    L = generator_matrix(AsepParams(q=0.25, alpha=0.5, gamma=0.3, t=0.0, sites=5))
    assert np.abs(L.sum(axis=1)).max() < 1e-13


def test_generator_apply_on_empty_delta():
    # the generator applied to the delta at mu is row mu of generator_matrix
    row = generator_matrix(AsepParams(q=0.25, alpha=0.5, gamma=0.0, t=0.0, sites=4))[_mask(())]
    assert abs(row[_mask((1,))] - 0.5) < 1e-14
    assert abs(row[_mask(())] + 0.5) < 1e-14


def test_exclusion_blocks_left_hop():
    # from (2,1): right hop of the particle at 2 enabled, left hop blocked
    ap = AsepParams(q=0.7, alpha=0.0, gamma=0.0, t=0.0, sites=4)
    row = generator_matrix(ap)[_mask((2, 1))]
    assert abs(row[_mask((3, 1))] - 1.0) < 1e-14
    assert row[_mask((2,))] == 0  # no annihilation; (1,) states unreachable


def test_transition_t0_is_delta():
    p, _ = transition_prob_exact((2, 1), (2, 1), AsepParams(q=0.25, alpha=0.5, gamma=0.3, t=0.0, sites=6))
    assert p == 1.0


def test_birth_only_boundary_survival():
    p, leak = transition_prob_exact((), (), AP)
    assert abs(p - math.exp(-0.5)) < 1e-12
    assert leak < 1e-4


def test_small_t_linear_injection():
    ap = AsepParams(q=0.25, alpha=0.5, gamma=0.1, t=1e-4, sites=6)
    p, _ = transition_prob_exact((), (1,), ap)
    assert abs(p / (0.5e-4) - 1) < 1e-3


def test_mass_conserved_and_monotone_truncation():
    dist = transition_distribution_exact((), AP)
    assert abs(dist.sum() - 1.0) < 1e-12
    ap9 = AsepParams(q=0.25, alpha=0.5, gamma=0.0, t=1.0, sites=9)
    leak = leakage_bound((), AP)
    for nu in [(), (1,), (2, 1)]:
        p8, _ = transition_prob_exact((), nu, AP)
        p9, _ = transition_prob_exact((), nu, ap9)
        assert abs(p8 - p9) <= leak


def test_cutoff_too_small():
    with pytest.raises(CutoffTooSmall):
        transition_prob_exact((), (), AsepParams(q=0.25, alpha=0.5, gamma=0.0, t=3.0, sites=3))


def test_no_injection_no_leakage():
    # from the empty line at alpha = 0 nothing ever enters
    ap = AsepParams(q=0.25, alpha=0.0, t=1.0, sites=6)
    assert transition_prob_exact((), (1,), ap) == (0.0, 0.0)


@pytest.mark.parametrize("S, q, alpha, gamma, t", [
    (3, 0.0, 0.05, 0.0, 2.0),
    (4, 0.25, 0.5, 0.3, 1.0),
    (5, 0.6, 2.0, 0.0, 0.3),
    (6, 0.25, 0.05, 0.3, 2.0),
])
def test_empty_start_leakage_bounds_truncation_error(S, q, alpha, gamma, t):
    # every state's probability on S sites against S + 8 sites, whose own
    # truncation error is far below the S-site bound
    ap = AsepParams(q=q, alpha=alpha, gamma=gamma, t=t, sites=S)
    small = transition_distribution_exact((), ap)
    large = transition_distribution_exact((), replace(ap, sites=S + 8))
    assert np.abs(small - large[: 1 << S]).max() <= leakage_bound((), ap)


def test_formula_requires_gamma_zero():
    with pytest.raises(ArityError):
        transition_prob_formula((1,), AsepParams(q=0.25, alpha=0.5, gamma=0.1, t=1.0, sites=8))


def test_formula_n0():
    assert transition_prob_formula((), AP) == math.exp(-0.5)


def test_formula_node_on_pole_raises():
    # centre 3.5, radius 0.5: the theta = 0 node is w = 1/q = 4.0
    circle = ContourSpec(((3.5 + 0j, 0.5),))
    with pytest.raises(ContourInvalid):
        validate_contours(circle, [1.0], asep._formula_poles(AP), AP.q)


def test_formula_rejects_caller_circle_over_a_pole():
    # radius 0.9 around 1 takes in the pole at w = q; the quadrature on it
    # returned 0.24758 where the value is 0.24615
    ap = AsepParams(q=0.25, alpha=0.5, t=1.0)
    with pytest.raises(ContourInvalid):
        validate_contours(ContourSpec(((1.0, 0.9),)), [1.0], asep._formula_poles(ap), ap.q)


@pytest.mark.parametrize("nu, recorded", [
    ((3, 2, 1), 9.879215953207394e-05),
    ((4, 3, 2, 1), 4.392218847952541e-08),
])
def test_formula_three_and_four_particles(nu, recorded):
    """Values recorded from the broadcast-product quadrature (the same rule,
    summed in another order), and the exact route within its leakage bound."""
    ap = AsepParams(q=0.26, alpha=0.51, t=1.0, sites=12)
    pf = transition_prob_formula(nu, ap, nodes=64)
    assert abs(pf - recorded) <= 1e-12 * recorded
    px, leak = transition_prob_exact((), nu, ap)
    assert abs(pf - px) <= leak


def test_uniformization_term_cap_raises(monkeypatch):
    # a negative tolerance is never met: the series stops at its term cap
    monkeypatch.setattr(asep, "_SERIES_TOL", -1.0)
    ap = AsepParams(q=0.25, alpha=0.5, t=0.001, sites=3)
    with pytest.raises(CapExceeded):
        transition_distribution_exact((), ap)


def test_formula_vs_exact_reference_point():
    ap = AsepParams(q=0.25, alpha=0.5, gamma=0.0, t=0.5, sites=8)
    pf = transition_prob_formula((1,), ap, nodes=128)
    px, _ = transition_prob_exact((), (1,), ap)
    assert abs(pf - px) < 1e-6


def test_formula_vs_exact_two_particles():
    pf = transition_prob_formula((2, 1), AP, nodes=128)
    px, _ = transition_prob_exact((), (2, 1), AP)
    assert abs(pf - px) < 1e-5


def test_contours_reject_alpha_q_one():
    from halfspace6v.errors import ContourInvalid

    with pytest.raises(ContourInvalid):
        asep_contours(AsepParams(q=0.25, alpha=0.75, gamma=0.0, t=1.0, sites=4), 1)


@pytest.mark.parametrize("nu", [(1,), (2, 1), (3, 2, 1)])
def test_formula_at_zero_injection_rate(nu):
    # at alpha = 0 nothing enters the empty line, and the formula's factor
    # q + alpha - 1 - alpha w is the constant q - 1, with no pole to exclude
    ap = AsepParams(q=0.25, alpha=0.0, t=1.0, sites=12)
    assert transition_prob_formula(nu, ap) == 0.0
    assert transition_prob_exact((), nu, ap)[0] == 0.0
    assert asep._formula_poles(replace(ap, alpha=0.5)) == [0.0, 0.25, 4.0, -0.5]


def test_gillespie_frozen_configuration():
    ap = AsepParams(q=0.0, alpha=0.0, gamma=0.0, t=5.0, sites=4)
    emp = simulate_gillespie((4, 3, 2, 1), ap, samples=25, seed=1)
    assert list(emp) == [(4, 3, 2, 1)]
    assert emp[(4, 3, 2, 1)][0] == 1.0


def test_gillespie_deterministic_and_within_3_sigma():
    # one 3-sigma interval per seen state would reject a rare state seen once
    # far too often: the histogram is judged family-wise at the 3-sigma level
    emp = simulate_gillespie((), AP, samples=8000, seed=42)
    emp2 = simulate_gillespie((), AP, samples=8000, seed=42)
    assert emp == emp2
    dist = transition_distribution_exact((), AP)
    counts = {_mask(cfg): round(ph * 8000) for cfg, (ph, _, _) in emp.items()}
    assert not family_wise_rejects(counts, dist, 8000)


def test_gillespie_empty_survival_3sigma():
    emp = simulate_gillespie((), AP, samples=8000, seed=7)
    ph, lo, hi = emp[()]
    assert lo <= math.exp(-0.5) <= hi


def test_wilson_interval_basic():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi and 0 <= lo < hi <= 1


def test_vertex_limit_t0_exact():
    vp = ModelParams(q=0.25, a=3.0, c_infinite=True, y=(1.0,))
    rep = vertex_limit_check((), (), vp, t=0.0, L_list=(4,), sites=5)
    assert rep["rows"][0][3] == 0.0


def test_vertex_limit_first_order():
    vp = ModelParams(q=0.25, a=3.0, c_infinite=True, y=(1.0,))
    rep = vertex_limit_check((), (1,), vp, t=0.5, L_list=(8, 16, 32), sites=7)
    errs = [row[3] for row in rep["rows"]]
    assert errs[0] > errs[1] > errs[2]
    assert all(0.7 < o < 1.3 for o in rep["orders"])


def test_vertex_limit_finite_c():
    vp = ModelParams(q=0.25, a=-1.0, c=2.0, y=(1.0,))
    rep = vertex_limit_check((), (1,), vp, t=0.5, L_list=(8, 16), sites=7)
    assert rep["gamma"] > 0
    assert rep["rows"][1][3] < rep["rows"][0][3]


@pytest.mark.parametrize("L", [0, -5])
def test_vertex_limit_rejects_nonpositive_row_count(L):
    # L = 0 divided by zero; L = -5 ran no sweep and reported a row
    vp = ModelParams(q=0.25, a=3.0, c_infinite=True, y=(1.0,))
    with pytest.raises(ValueError, match="L must be >= 1"):
        vertex_limit_check((), (1,), vp, t=0.5, L_list=(8, L), sites=5)


@pytest.mark.parametrize("sites", [0, -1])
def test_vertex_kernel_rejects_no_sites(sites):
    # sites = 0 returned the (1, 1, 4) boundary array, not a 2-D kernel
    with pytest.raises(ValueError, match="sites >= 1"):
        vertex_row_kernel(0.9, KERNEL_PARAMS[0], sites)


def test_vertex_limit_reports_truncations():
    vp = ModelParams(q=0.25, a=3.0, c_infinite=True, y=(1.0,))
    reps = {
        S: vertex_limit_check((), (1,), vp, t=0.4, L_list=(16, 32), sites=S) for S in (6, 8)
    }
    ap = AsepParams(q=0.25, alpha=reps[6]["alpha"], gamma=reps[6]["gamma"], t=0.4, sites=6)
    assert reps[6]["asep_bound"] == transition_prob_exact((), (1,), ap)[1]
    for L in (16, 32):
        assert all(0 <= rep["window_leak"][L] < 1 for rep in reps.values())
        assert reps[6]["window_leak"][L] > reps[8]["window_leak"][L]
        # the mass missing from the empty row of the L-th kernel power
        M = vertex_row_kernel(1.0 - 0.75 * 0.4 / (2.0 * L), vp, 6)
        kept = np.linalg.matrix_power(M, L)[0].sum()
        assert abs(reps[6]["window_leak"][L] - (1.0 - kept)) < 1e-12


def _per_mask_kernel(x, params, sites):
    """Reference kernel: the one-row stack's element for every pair of
    bitmasks, contracted as one family."""
    masks = [tuple(s for s in range(sites, 0, -1) if m >> (s - 1) & 1) for m in range(1 << sites)]
    pairs = [(mu, nu) for mu in masks for nu in masks]
    w = OperatorStack([(KIND_A, x)], params).elements(pairs)
    return np.array(w, dtype=float).reshape(len(masks), len(masks))


KERNEL_PARAMS = [
    ModelParams(q=0.25, a=3.0, c_infinite=True, y=(1.0,)),
    ModelParams(q=0.25, a=-1.0, c=2.0, y=(1.0,)),
    ModelParams(q=0.4, a=-0.5, c=3.0, y=(0.8, 1.25, 0.9, 1.1)),
]


@pytest.mark.parametrize("sites", range(1, 7))
@pytest.mark.parametrize("vp", KERNEL_PARAMS, ids=["c_inf", "c_finite", "y_inhom"])
def test_vertex_kernel_matches_per_mask_sweeps(vp, sites):
    for x in (0.5, 0.97):
        got = vertex_row_kernel(x, vp, sites)
        assert np.abs(got - _per_mask_kernel(x, vp, sites)).max() <= 1e-14


def test_vertex_kernel_rows_conserve_mass():
    # every row of one sweep sums to 1 on the half-line; the 6-site kernel
    # loses exactly what is carried past site 6, which a 10-site window keeps
    # up to its own loss (about 1e-14 at x = 0.999)
    vp = KERNEL_PARAMS[1]
    x = 0.999
    assert in_probability_regime(x, vp)
    m6, m10 = vertex_row_kernel(x, vp, 6), vertex_row_kernel(x, vp, 10)
    assert m10.min() >= 0.0
    assert np.array_equal(m10[:64, :64], m6)
    rows = m6.sum(axis=1) + m10[:64, 64:].sum(axis=1)
    assert np.abs(rows - 1.0).max() <= 1e-12


def test_vertex_kernel_complex_entries_raise():
    vp = KERNEL_PARAMS[0]
    with pytest.raises(ValueError, match="complex"):
        vertex_row_kernel(0.9 + 0.05j, vp, 3)
    # complex weights with zero imaginary parts give the real kernel
    got = vertex_row_kernel(0.9 + 0j, vp, 3)
    assert got.dtype == float and np.array_equal(got, vertex_row_kernel(0.9, vp, 3))


def test_vertex_kernel_first_refused_size_allocates_nothing():
    # the contraction holds the 4-channel array of S-1 sites next to the
    # output: 16 * 4^S bytes, accepted up to 12 sites
    assert 16 * 4**12 <= MAX_ARRAY_BYTES < 16 * 4**13
    vp = KERNEL_PARAMS[0]
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="1,024 MiB"):
            vertex_row_kernel(0.9, vp, 13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _dense_generator(params):
    """Reference generator: one Python loop over masks and their moves."""
    S, q = params.sites, params.q
    L = np.zeros((1 << S, 1 << S))
    for m in range(1 << S):
        moves = []
        if m & 1:
            if params.gamma:
                moves.append((m & ~1, params.gamma))
        elif params.alpha:
            moves.append((m | 1, params.alpha))
        for s in range(1, S + 1):
            bit = 1 << (s - 1)
            if not m & bit:
                continue
            if s < S and not m & (bit << 1):
                moves.append((m & ~bit | bit << 1, 1.0))
            if s > 1 and not m & (bit >> 1) and q:
                moves.append((m & ~bit | bit >> 1, q))
        for m2, r in moves:
            L[m, m2] += r
            L[m, m] -= r
    return L


def _dense_uniformization(mask, params, tol=1e-13):
    L = _dense_generator(params)
    lam = params.sites * (1.0 + params.q) + params.alpha + params.gamma
    P = np.eye(L.shape[0]) + L / lam
    v = np.zeros(L.shape[0])
    v[mask] = 1.0
    weight = math.exp(-lam * params.t)
    out, acc, k = weight * v, weight, 0
    while 1.0 - acc > tol:
        k += 1
        v = v @ P
        weight *= lam * params.t / k
        out += weight * v
        acc += weight
    return out


rates = st.one_of(st.just(0.0), st.floats(0.05, 2.0))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    st.integers(1, 8), rates, rates, rates, st.floats(0.0, 1.5), st.integers(0, 255)
)
def test_table_uniformization_matches_dense_reference(sites, q, alpha, gamma, t, start):
    ap = AsepParams(q=q, alpha=alpha, gamma=gamma, t=t, sites=sites)
    mask = start % (1 << sites)
    mu = tuple(s + 1 for s in reversed(range(sites)) if mask >> s & 1)
    assert np.array_equal(generator_matrix(ap), _dense_generator(ap))
    got = transition_distribution_exact(mu, ap)
    assert np.abs(got - _dense_uniformization(mask, ap)).max() <= 1e-14


# Histograms of simulate_gillespie((2, 1), GOLDEN_AP, 2000, seed), recorded
# with the per-event streams: event k of replica r reads doubles 2r and 2r+1
# of the Philox stream with key (seed << 64) + k.
GOLDEN_AP = AsepParams(q=0.25, alpha=0.5, gamma=0.3, t=1.0, sites=6)
GOLDEN = {
    42: {
        (2, 1): 617, (3, 2): 180, (3, 1): 408, (5,): 20, (2,): 155, (4, 1): 142,
        (5, 2): 30, (4, 2): 87, (4, 2, 1): 21, (4, 3): 21, (4,): 67, (3,): 119,
        (1,): 13, (3, 2, 1): 26, (5, 1): 38, (6, 1): 12, (5, 3): 8, (4, 3, 1): 8,
        (6, 3): 4, (5, 2, 1): 4, (6, 3, 1): 2, (6, 2): 8, (6,): 5, (5, 3, 1): 2,
        (5, 4): 1, (4, 3, 2): 1, (6, 4): 1,
    },
    2**64 - 1: {
        (4, 1): 154, (3, 2): 181, (3, 1): 406, (2,): 136, (2, 1): 630, (3,): 129,
        (4, 2): 78, (4,): 54, (3, 2, 1): 33, (4, 3): 19, (1,): 25, (5, 2): 29,
        (5, 1): 47, (4, 3, 2): 1, (6, 2): 4, (5, 4): 1, (6, 3): 4, (4, 3, 1): 8,
        (5,): 12, (5, 3): 9, (4, 2, 1): 13, (6, 1): 8, (5, 2, 1): 5, (6,): 6,
        (6, 2, 1): 4, (5, 3, 1): 2, (): 2,
    },
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_gillespie_golden_histogram(seed):
    emp = simulate_gillespie((2, 1), GOLDEN_AP, samples=2000, seed=seed)
    expected = {
        cfg: (c / 2000, *wilson_interval(c, 2000)) for cfg, c in GOLDEN[seed].items()
    }
    assert emp == expected
    assert list(emp) == list(expected)


@pytest.mark.parametrize("field", ["q", "alpha", "gamma", "t"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -0.5])
def test_asep_params_reject_non_finite_or_negative(field, value):
    # t = inf would leave the Gillespie loop running forever when gamma > 0
    kw = {"q": 0.25, "alpha": 0.5, "gamma": 0.3, "t": 0.5, "sites": 4, field: value}
    with pytest.raises(ValueError, match=field):
        AsepParams(**kw)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_gillespie_seed_out_of_range(seed):
    with pytest.raises(ValueError, match="seed must lie"):
        simulate_gillespie((), AP, samples=1, seed=seed)


def _scalar_gillespie(mu, params, samples, seed):
    """Reference sampler: one replica at a time, event k of replica r reading
    doubles 2r and 2r+1 of a fresh Philox stream with key (seed << 64) + k."""
    types = asep._move_types(params)
    counts = {}
    for r in range(samples):
        mask, t, k = _mask(mu), 0.0, 0
        while True:
            cum, acc = [], 0.0
            for flip, fixed, need, rate in types:
                acc += rate if mask & fixed == need else 0.0
                cum.append(acc)
            if not acc:
                break
            stream = np.random.Generator(np.random.Philox(key=(seed << 64) + k))
            u, v = stream.random(2 * r + 2)[2 * r:]
            k += 1
            t += -np.log1p(-u) / acc
            if t >= params.t:
                break
            i = sum(c <= v * acc for c in cum)
            if i < len(types):
                mask ^= types[i][0]
        counts[mask] = counts.get(mask, 0) + 1
    return {
        asep._mask_to_config(m): (c / samples, *wilson_interval(c, samples))
        for m, c in counts.items()
    }


SCALAR_CASES = {
    "empty": ((), GOLDEN_AP, 1),
    "two_particles": ((2, 1), GOLDEN_AP, 5),
    "gamma_zero": ((3, 1), AsepParams(q=0.25, alpha=0.5, t=1.5, sites=6), 9),
    "q_zero": ((2,), AsepParams(q=0.0, alpha=0.7, gamma=0.4, t=1.0, sites=5), 11),
    "frozen": ((4, 3, 2, 1), AsepParams(q=0.0, alpha=0.0, t=2.0, sites=4), 13),
    "seed_max": ((1,), GOLDEN_AP, 2**64 - 1),
}


@pytest.mark.parametrize("case", sorted(SCALAR_CASES))
def test_gillespie_matches_scalar_reference(case):
    mu, ap, seed = SCALAR_CASES[case]
    got = simulate_gillespie(mu, ap, samples=301, seed=seed)
    assert list(got.items()) == list(_scalar_gillespie(mu, ap, 301, seed).items())


def test_gillespie_block_size_does_not_change_output(monkeypatch):
    full = simulate_gillespie((2, 1), GOLDEN_AP, samples=500, seed=3)
    monkeypatch.setattr(asep, "_BLOCK", 7)
    assert list(simulate_gillespie((2, 1), GOLDEN_AP, samples=500, seed=3).items()) == list(
        full.items()
    )


def test_gillespie_replicas_are_independent_of_the_others():
    # replicas 0..1999 take the same paths in both runs
    small = simulate_gillespie((2, 1), GOLDEN_AP, samples=2000, seed=8)
    large = simulate_gillespie((2, 1), GOLDEN_AP, samples=4000, seed=8)
    for cfg, (ph, _, _) in small.items():
        assert round(ph * 2000) <= round(large[cfg][0] * 4000), cfg


@pytest.mark.parametrize("v, expected", [(0.0, (2,)), (1.0, (1,))])
def test_gillespie_never_takes_a_zero_rate_move(monkeypatch, v, expected):
    # from (1,) with gamma = 0 the first move type, entry at site 1, has rate
    # 0: V = 0 takes the next one (the hop to 2), V * total = total takes none
    def one_event(seed, k, first, n):
        return np.tile([0.5 if k == 0 else 1.0 - 2.0**-53, v], (n, 1))

    monkeypatch.setattr(asep, "_event_uniforms", one_event)
    ap = AsepParams(q=0.25, alpha=0.5, t=1.0, sites=4)
    emp = simulate_gillespie((1,), ap, samples=5, seed=0)
    assert list(emp) == [expected] and emp[expected][0] == 1.0


def test_gillespie_mask_width_cap():
    # 62 sites fill the int64 masks and still match the Python-int reference
    ap = AsepParams(q=0.25, alpha=0.5, gamma=0.3, t=1.0, sites=62)
    got = simulate_gillespie((62, 60, 1), ap, samples=50, seed=4)
    assert list(got.items()) == list(_scalar_gillespie((62, 60, 1), ap, 50, 4).items())
    with pytest.raises(CapExceeded, match="62-site"):
        simulate_gillespie((), AsepParams(q=0.25, alpha=0.5, t=0.1, sites=63), samples=1)


def test_sixteen_sites_within_leakage_of_fourteen():
    ap = AsepParams(q=0.25, alpha=0.5, gamma=0.2, t=2.0, sites=14)
    p14, leak14 = transition_prob_exact((2, 1), (3, 1), ap)
    p16, leak16 = transition_prob_exact((2, 1), (3, 1), replace(ap, sites=16))
    assert leak16 < leak14 < 1e-4
    assert abs(p16 - p14) <= leak14 + leak16


def test_move_table_over_cap_raises_before_allocating():
    # 24 sites: about 8 GiB of edges, refused from the edge count alone
    with pytest.raises(CapExceeded, match="MiB"):
        transition_distribution_exact((), AsepParams(q=0.25, alpha=0.5, t=1.0, sites=24))


def test_dense_arrays_over_cap_raise_before_allocating():
    # a dense 2^15 x 2^15 array is 8 GiB
    assert 8 * 4**15 > MAX_ARRAY_BYTES
    vp = ModelParams(q=0.25, a=3.0, c_infinite=True, y=(1.0,))
    with pytest.raises(CapExceeded, match="MiB"):
        vertex_row_kernel(0.9, vp, 15)
    with pytest.raises(CapExceeded, match="MiB"):
        generator_matrix(AsepParams(q=0.25, alpha=0.5, sites=15))
