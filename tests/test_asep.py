import math
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace6v.asep import (
    MAX_ARRAY_BYTES,
    AsepParams,
    asep_contours,
    generator_apply,
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
from halfspace6v.symfun import ContourSpec
from halfspace6v.weights import ModelParams

AP = AsepParams(q=0.25, alpha=0.5, gamma=0.0, t=1.0, sites=8)


def test_map_params_examples():
    assert map_params(F(-1), F(2), F(1, 2)) == (F(1, 2), F(1, 4))
    assert map_params(F(3), F(7), F(1)) == (0, 0)
    alpha, gamma = map_params(F(3), None, F(1, 4), c_infinite=True)
    assert alpha == F(9, 8) and gamma == 0
    with pytest.raises(DivisionByZero):
        map_params(F(1), F(2), F(1, 2))


def test_generator_conservation():
    L = generator_matrix(AsepParams(q=0.25, alpha=0.5, gamma=0.3, t=0.0, sites=5))
    assert np.abs(L.sum(axis=1)).max() < 1e-13


def test_generator_apply_on_empty_delta():
    out = generator_apply({(): 1.0}, AsepParams(q=0.25, alpha=0.5, gamma=0.0, t=0.0, sites=4))
    assert abs(out[(1,)] - 0.5) < 1e-14
    assert abs(out[()] + 0.5) < 1e-14


def test_exclusion_blocks_left_hop():
    # from (2,1): right hop of the particle at 2 enabled, left hop blocked
    ap = AsepParams(q=0.7, alpha=0.0, gamma=0.0, t=0.0, sites=4)
    out = generator_apply({(2, 1): 1.0}, ap)
    assert (3, 1) in out and abs(out[(3, 1)] - 1.0) < 1e-14
    assert (2,) not in out  # no annihilation; (1,) states unreachable


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


def test_formula_requires_gamma_zero():
    with pytest.raises(ArityError):
        transition_prob_formula((1,), AsepParams(q=0.25, alpha=0.5, gamma=0.1, t=1.0, sites=8))


def test_formula_n0():
    assert transition_prob_formula((), AP) == math.exp(-0.5)


def test_formula_node_on_pole_raises():
    # centre 3.5, radius 0.5: the theta = 0 node is w = 1/q = 4.0
    circle = ContourSpec(((3.5 + 0j, 0.5),), 64)
    with pytest.raises(ContourInvalid):
        transition_prob_formula((1,), AP, contours=circle, nodes=64)


def test_uniformization_term_cap_raises():
    # a negative tolerance is never met: the series stops at its term cap
    ap = AsepParams(q=0.25, alpha=0.5, t=0.001, sites=3)
    with pytest.raises(CapExceeded):
        transition_distribution_exact((), ap, series_tol=-1.0)


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


def test_gillespie_frozen_configuration():
    ap = AsepParams(q=0.0, alpha=0.0, gamma=0.0, t=5.0, sites=4)
    emp = simulate_gillespie((4, 3, 2, 1), ap, samples=25, seed=1)
    assert list(emp) == [(4, 3, 2, 1)]
    assert emp[(4, 3, 2, 1)][0] == 1.0


def test_gillespie_deterministic_and_within_3_sigma():
    emp = simulate_gillespie((), AP, samples=8000, seed=42)
    emp2 = simulate_gillespie((), AP, samples=8000, seed=42)
    assert emp == emp2
    dist = transition_distribution_exact((), AP)
    for cfg, (ph, lo, hi) in emp.items():
        mask = 0
        for p in cfg:
            mask |= 1 << (p - 1)
        assert lo <= dist[mask] <= hi, (cfg, dist[mask], (lo, hi))


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


def test_generator_apply_matches_dense_reference():
    ap = AsepParams(q=0.4, alpha=0.7, gamma=0.3, t=0.0, sites=5)
    f = {(): 0.5, (2, 1): 1.0, (5, 3): -0.25}
    vec = np.zeros(32)
    for cfg, v in f.items():
        vec[sum(1 << (p - 1) for p in cfg)] = v
    ref = vec @ _dense_generator(ap)
    out = generator_apply(f, ap)
    assert len(out) == np.count_nonzero(ref)
    for cfg, v in out.items():
        assert abs(v - ref[sum(1 << (p - 1) for p in cfg)]) <= 1e-15


# Histograms of simulate_gillespie((2, 1), GOLDEN_AP, 2000, seed) as first
# recorded with one freshly constructed Philox generator per replica.
GOLDEN_AP = AsepParams(q=0.25, alpha=0.5, gamma=0.3, t=1.0, sites=6)
GOLDEN = {
    42: {
        (3, 1): 399, (4, 2): 89, (2, 1): 641, (3,): 124, (3, 2): 162, (5,): 21,
        (2,): 155, (5, 2, 1): 8, (5, 3): 8, (4, 3): 19, (5, 2): 42, (4,): 47,
        (4, 3, 1): 7, (5, 1): 42, (4, 1): 150, (1,): 14, (6, 1): 14,
        (3, 2, 1): 25, (4, 2, 1): 15, (6, 2): 3, (5, 3, 1): 1, (6,): 4,
        (6, 2, 1): 3, (4, 3, 2): 2, (6, 3): 2, (): 2, (6, 3, 1): 1,
    },
    2**64 - 1: {
        (4, 1): 157, (4, 3, 1): 3, (2, 1): 634, (3, 1): 366, (6, 1): 17,
        (2,): 154, (3,): 112, (5, 2): 27, (3, 2): 194, (4, 2): 84,
        (4, 2, 1): 20, (5, 2, 1): 10, (3, 2, 1): 28, (4,): 57, (1,): 16,
        (6, 2, 1): 4, (5, 4): 5, (5,): 22, (5, 3): 7, (6, 4): 3, (5, 1): 42,
        (4, 3): 22, (6, 3): 4, (6, 2): 5, (6,): 5, (): 1, (6, 3, 1): 1,
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


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_gillespie_seed_out_of_range(seed):
    with pytest.raises(ValueError, match="seed must lie"):
        simulate_gillespie((), AP, samples=1, seed=seed)


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
