"""Differential suite: independent routes agree at random rational points.

Hypothesis draws the points (derandomized, so every run sees the same
examples); a point where a closed form hits a removable coincidence or a
weight pole (DegeneratePoint) is redrawn rather than resolved.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from halfspace6v.errors import DegeneratePoint
from halfspace6v.pfaffian import det_exact, pfaffian
from halfspace6v.rowops import partition_G
from halfspace6v.symfun import g_subset, z_triangular_vec
from halfspace6v.triangular import (
    TriangularSpec,
    z_altform,
    z_enumerate,
    z_pfaffian,
    z_subset_kuperberg,
)
from halfspace6v.weights import ModelParams

SETTINGS = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)

rationals = st.builds(F, st.integers(-97, 97), st.integers(1, 97))
# exact zeros force the Pfaffian's pivot search past the first row
entries = st.one_of(st.just(F(0)), rationals)


@st.composite
def skew_matrices(draw, max_order=14):
    n = 2 * draw(st.integers(1, max_order // 2))
    M = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = draw(entries)
            M[i][j], M[j][i] = v, -v
    return M


def nonzero_rationals(bound):
    return st.builds(
        lambda p, sign, d: F(sign * p, d),
        st.integers(1, bound),
        st.sampled_from((1, -1)),
        st.integers(1, bound),
    )


@st.composite
def model_points(draw, m, bound=40):
    """(params, alphabet): distinct x's off the boundary poles a and c."""
    small = nonzero_rationals(bound)
    q, a, c = draw(small), draw(small), draw(small)
    q = q if q != 1 else -q
    c = c if c != a else -c
    xs = draw(st.lists(small.filter(lambda v: v not in (a, c)), min_size=m, max_size=m, unique=True))
    return ModelParams(q=q, a=a, c=c, y=(F(1),)), tuple(xs)


def _hadamard_scale(M):
    """sqrt of the Hadamard bound on |det M|, a scale for |Pf M|."""
    return math.sqrt(math.prod(max(1.0, math.hypot(*map(float, row))) for row in M))


@SETTINGS
@given(skew_matrices())
def test_exact_pf_squared_is_det(M):
    pf = pfaffian(M)
    assert isinstance(pf, F)
    assert pf * pf == det_exact(M)


@SETTINGS
@given(skew_matrices(max_order=10))
def test_exact_and_complex_pfaffian_agree(M):
    exact = pfaffian(M)
    approx = pfaffian([[complex(v) for v in row] for row in M])
    assert abs(approx - complex(exact)) <= 1e-9 * _hadamard_scale(M)


@SETTINGS
@given(st.integers(1, 5), st.lists(skew_matrices(max_order=10), min_size=1, max_size=1))
def test_batched_pfaffian_equals_per_lane(lanes, base):
    (M,) = base
    n = len(M)
    A = np.array(M, dtype=complex)
    # lane l scales the upper triangle by (1 + l i) and zeroes lane 1's first
    # row, so lanes differ in value and pivot order and one may be singular
    batch = np.stack([A * (1 + 1j * lane) for lane in range(lanes)])
    if lanes > 1:
        batch[1, 0, :] = 0
        batch[1, :, 0] = 0
    batch = np.triu(batch) - np.swapaxes(np.triu(batch), 1, 2)
    got = pfaffian(batch)
    assert got.shape == (lanes,)
    for lane in range(lanes):
        one = pfaffian(batch[lane].tolist())
        assert abs(got[lane] - one) <= 1e-12 * max(1.0, abs(one))
    assert pfaffian(batch.reshape(1, lanes, n, n)).shape == (1, lanes)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@settings(SETTINGS, max_examples=10)
@given(data=st.data())
def test_z_routes_equal_enumeration(m, data):
    params, xs = data.draw(model_points(m))
    spec = TriangularSpec(xs, params)
    try:
        routes = (z_pfaffian(spec), z_subset_kuperberg(spec), z_altform(spec))
    except DegeneratePoint:
        reject()
    expected = z_enumerate(spec)
    assert all(v == expected for v in routes), (routes, expected)


# m = 7, 8 need Pfaffians of order 6 and 8 inside one alphabet
@pytest.mark.parametrize("m", [2, 3, 5, 7, 8])
@settings(SETTINGS, max_examples=8)
@given(data=st.data())
def test_z_triangular_vec_equals_subset_sum(m, data):
    params, xs = data.draw(model_points(m, bound=12))
    try:
        expected = complex(z_subset_kuperberg(TriangularSpec(xs, params)))
    except DegeneratePoint:
        reject()
    cparams = ModelParams(q=complex(params.q), a=complex(params.a), c=complex(params.c))
    got = complex(z_triangular_vec([complex(x) for x in xs], cparams))
    assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected)), (got, expected)


@settings(SETTINGS, max_examples=20)
@given(
    model_points(2, bound=12),
    st.sampled_from([(1,), (2,), (2, 1), (3, 1)]),
)
def test_g_routes_agree(point, nu):
    params, xs = point
    try:
        routes = (
            partition_G(nu, (), xs, params, method="lattice"),
            partition_G(nu, (), xs, params, method="stack"),
            g_subset(nu, xs, params),
        )
    except DegeneratePoint:
        # a pole of the weights (x y q = 1, ...): every route raises
        reject()
    assert routes[0] == routes[1] == routes[2], routes
