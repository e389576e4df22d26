import random
from fractions import Fraction as F

import numpy as np
import pytest

from halfspace6v import symfun
from halfspace6v.errors import ArityError, ContourInvalid, DegeneratePoint, GuardViolated
from halfspace6v.rowops import KIND_B, OperatorStack, partition_G
from halfspace6v.symfun import (
    ContourSpec,
    cauchy_check,
    default_orthogonality_contour,
    g_contour,
    g_subset,
    nested_contours,
    nested_trapezoid,
    orthogonality_check,
    validate_contours,
    verify_g_recursion_suite,
    z_triangular_vec,
)
from halfspace6v.triangular import TriangularSpec, z_pfaffian, z_subset_kuperberg
from halfspace6v.weights import ModelParams, h_func

P = ModelParams(q=F(1, 4), a=F(3), c=F(-2), y=(F(1),))
P_INHOM = ModelParams(q=F(1, 4), a=F(3), c=F(-2), y=(F(4, 5), F(6, 5), F(1)))


def test_g_subset_empty_is_Z():
    xs = (F(1, 2), F(2, 5), F(3, 8))
    assert g_subset((), xs, P) == z_subset_kuperberg(TriangularSpec(xs, P))


def test_g_subset_single_site_closed_form():
    x = F(1, 2)
    assert g_subset((1,), (x,), P) == h_func(x, P) * (1 - P.q) * x / (1 - P.q * x)


def test_g_subset_needs_enough_variables():
    with pytest.raises(ArityError):
        g_subset((2, 1), (F(1, 2),), P)


@pytest.mark.parametrize("params", [P, P_INHOM])
def test_g_subset_matches_operator_oracle(params):
    xs = (F(1, 2), F(2, 5))
    for nu in [(), (1,), (2,), (3,), (2, 1), (4, 2), (5, 3, 1)[:2]]:
        assert g_subset(nu, xs, params) == partition_G(nu, (), xs, params), nu


def test_g_subset_three_rows_exact():
    xs = (F(1, 2), F(2, 5), F(3, 8))
    for nu in [(2, 1), (3, 2, 1), (4, 1), (6, 3)]:
        assert g_subset(nu, xs, P_INHOM) == partition_G(nu, (), xs, P_INHOM), nu


def test_c_inf_g_subset_factorises():
    pci = ModelParams(q=F(1, 4), a=F(3), c_infinite=True)
    xs = (F(1, 2), F(2, 5))
    assert g_subset((1,), xs, pci) == partition_G((1,), (), xs, pci)


def test_c_inf_contour_formula():
    # factorized integrand at c -> infinity still reproduces the subset form
    pci = ModelParams(q=F(1, 4), a=F(3), c_infinite=True)
    v = g_contour((1,), (F(1, 2),), pci, nodes=128)
    assert abs(v - float(g_subset((1,), (F(1, 2),), pci))) < 1e-8


def test_z_triangular_vec_matches_scalar():
    xs = (0.32, 0.57, 0.71, 0.44)
    ref = z_subset_kuperberg(TriangularSpec(xs, ModelParams(q=0.25, a=3.0, c=-2.0)))
    vec = z_triangular_vec(list(xs), ModelParams(q=0.25, a=3.0, c=-2.0))
    assert abs(complex(ref) - complex(vec)) < 1e-12


@pytest.mark.parametrize(
    "xs",
    [
        (F(1), F(1, 3), F(2, 7)),
        (F(4), F(1, 3), F(2, 7)),
        (F(2, 5), F(1), F(-3, 7), F(5, 9), F(1, 6)),
        (F(2, 5), F(4), F(-3, 7), F(5, 9), F(1, 6)),
    ],
)
def test_z_triangular_vec_odd_alphabet_through_1_and_1_over_q(xs):
    # 1 and 1/q = 4 are where an appended entry 1 would divide 0 by 0
    p = ModelParams(q=F(1, 4), a=F(3), c=F(-2))
    ref = complex(z_subset_kuperberg(TriangularSpec(xs, p)))
    vec = complex(z_triangular_vec([complex(x) for x in xs], p))
    assert abs(vec - ref) <= 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("xs", [(F(1, 2), F(1, 2)), (F(1, 2), F(2))])
def test_z_triangular_vec_scalar_pole_raises_degenerate_point(xs):
    # coinciding entries and x_1 x_2 = 1, as z_pfaffian
    with pytest.raises(DegeneratePoint):
        z_triangular_vec(xs, P)
    with pytest.raises(DegeneratePoint):
        g_contour((), xs, P)
    with pytest.raises(DegeneratePoint):
        z_pfaffian(TriangularSpec(xs, P))


@pytest.mark.parametrize("c_infinite", [False, True])
def test_z_triangular_vec_open_grid_matches_lanes(c_infinite):
    p = ModelParams(q=0.25, a=3.0, c=None if c_infinite else -2.0, c_infinite=c_infinite)
    w1 = (0.3 + 0.2 * np.exp(2j * np.pi * np.arange(5) / 5))[:, None]
    w2 = (-0.4 + 0.1 * np.exp(2j * np.pi * np.arange(4) / 4))[None, :]
    grid = z_triangular_vec([0.55, w1, 0.7, w2, -0.2], p)
    assert grid.shape == (5, 4)
    for i in range(5):
        for j in range(4):
            lane = z_triangular_vec([0.55, complex(w1[i, 0]), 0.7, complex(w2[0, j]), -0.2], p)
            assert abs(grid[i, j] - lane) <= 1e-14 * max(1.0, abs(lane))


@pytest.mark.parametrize("nodes", [128, 256])
def test_g_contour_clustered_alphabet(nodes):
    # seven clustered x's: the integrand's Z is one Pfaffian of order 8, with
    # none of the cancellation of an even-subset sum
    p = ModelParams(q=F(1, 10), a=F(3), c=F(-2), y=(F(1),))
    xs = tuple(F(k, 20) for k in range(9, 16))
    ref = float(g_subset((1,), xs, p))
    v = g_contour((1,), xs, p, nodes=nodes, check_convergence=False)
    assert abs(v - ref) <= 1e-7 * abs(ref)


def test_g_contour_pfaffian_order_8():
    # L = 7 plus one contour variable: the integrand's Z is a Pfaffian of
    # order 8
    p = ModelParams(q=F(1, 10), a=F(10), c=F(-2), y=(F(1),))
    xs = tuple(F(k, 10) for k in range(3, 10))
    v = g_contour((1,), xs, p, nodes=64)
    assert abs(v - float(g_subset((1,), xs, p))) < 1e-8


# centre 2.5, radius 0.5: the theta = 0 node is w = 3.0, the pole w = a
POLE_CIRCLE = ContourSpec(((2.5 + 0j, 0.5),), 64)


def test_g_contour_node_on_pole_raises():
    with pytest.raises(ContourInvalid):
        g_contour((1,), (F(1, 2),), P, contours=POLE_CIRCLE, nodes=64)


def test_g_contour_n0_is_Z():
    xs = (F(1, 2), F(2, 5))
    v = g_contour((), xs, P)
    assert abs(v - complex(z_subset_kuperberg(TriangularSpec(xs, P)))) < 1e-12


def test_g_contour_matches_subset_n1():
    v = g_contour((1,), (F(1, 2),), P, nodes=128)
    assert abs(v - float(g_subset((1,), (F(1, 2),), P))) < 1e-8
    xs = (F(1, 2), F(2, 5))
    v = g_contour((2,), xs, P, nodes=128)
    assert abs(v - float(g_subset((2,), xs, P))) < 1e-8


def test_g_contour_matches_subset_n2():
    p = ModelParams(q=F(1, 10), a=F(3), c=F(-2), y=(F(1),))
    xs = (F(4, 5), F(7, 10))
    v = g_contour((2, 1), xs, p, nodes=96)
    ref = float(g_subset((2, 1), xs, p))
    assert abs(v - ref) < 1e-6 * abs(ref)


NESTED = ContourSpec(((0j, 0.5), (0j, 0.7), (0j, 0.9)))


def _test_integrand(ws):
    val = 1
    for i, w in enumerate(ws):
        val = val * np.exp(w) / (w - 0.1 * (i + 1))
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            val = val * (1 + ws[i] * ws[j])
    return val


@pytest.mark.parametrize("n, nodes", [(1, 64), (2, 12), (3, 8)])
def test_nested_trapezoid_chunk_bound(monkeypatch, n, nodes):
    # (3, 8) has nodes**(n-1) = 64 above the cap of 50: two axes are split
    contours = ContourSpec(NESTED.circles[:n])
    expected = nested_trapezoid(contours, _test_integrand, nodes)
    sizes = []

    def spy(ws):
        sizes.append(int(np.prod(np.broadcast_shapes(*(w.shape for w in ws)))))
        return _test_integrand(ws)

    monkeypatch.setattr(symfun, "QUADRATURE_LANES", 50)
    got = nested_trapezoid(contours, spy, nodes)
    assert max(sizes) <= 50 and sum(sizes) == nodes**n
    assert abs(got - expected) <= 1e-14 * abs(expected)


def test_contour_validation_rejects_bad_circles():
    spec = ContourSpec(((0.5 + 0j, 1.0),))
    with pytest.raises(ContourInvalid):
        validate_contours(spec, [0.5], [0.6], 0.25)  # excluded point inside
    with pytest.raises(ContourInvalid):
        validate_contours(ContourSpec(((0.5, 0.1), (0.5, 0.05))), [0.45], [5.0], 0.25)


def test_nested_contours_constructor():
    spec = nested_contours([0.5], [0.125, 8.0, 4.0, 3.0, -2.0], 1, 0.25)
    validate_contours(spec, [0.5], [0.125, 8.0, 4.0, 3.0, -2.0], 0.25)


def test_recursion_suite():
    rep = verify_g_recursion_suite((1,), (F(1, 2),), P)
    assert rep["residue_at_qx1"][0] and rep["residue_at_qx1"][1] < 1e-6
    assert rep["decay_at_large_y"][0]
    rep = verify_g_recursion_suite((2, 1), (F(1, 2), F(2, 5)), P)
    assert all(ok for ok, _ in rep.values())
    assert verify_g_recursion_suite((), (F(1, 2),), P)["vacuous"][0]


def test_cauchy_check_decays():
    xs, zs = (F(9, 10),), (F(1, 3),)
    rep = cauchy_check((), (), xs, zs, P, cutoff=10)
    assert rep["decay_ok"] and rep["final_residual"] < 1e-7
    rep = cauchy_check((), (1,), xs, zs, P, cutoff=10)
    assert rep["decay_ok"] and rep["final_residual"] < 1e-7


def test_cauchy_guard_violation():
    with pytest.raises(GuardViolated):
        cauchy_check((), (), (F(5),), (F(1, 3),), P, cutoff=4)


ORTH_PARAMS = ModelParams(
    q=0.25,
    a=3.0,
    c=None,
    y=tuple(1.0 / (1.5 + 0.1 * j) for j in range(1, 6)),
    c_infinite=True,
)


def test_orthogonality_diagonal_and_off():
    assert abs(orthogonality_check((1,), (1,), ORTH_PARAMS, nodes=128) - 1) < 1e-6
    assert abs(orthogonality_check((), (1,), ORTH_PARAMS, nodes=128)) < 1e-6
    assert abs(orthogonality_check((2,), (1,), ORTH_PARAMS, nodes=128)) < 1e-6


@pytest.mark.parametrize("kappa", [(3, 2, 1), (2, 1), (1,)])
def test_orthogonality_three_variables(kappa):
    """Three-fold orthogonality against nu = (3, 2, 1) on 64^3 nodes.

    Parts of size 4 need at least 96 nodes for 1e-6 ((4, 2, 1) against
    (3, 2, 1) is off by 2e-4 at 64 nodes and by 4.4e-7 at 96); they are
    checked at 96^3 in test_orthogonality_parts_of_size_four.
    """
    v = orthogonality_check(kappa, (3, 2, 1), ORTH_PARAMS, nodes=64)
    assert abs(v - (1.0 if kappa == (3, 2, 1) else 0.0)) < 1e-6


@pytest.mark.parametrize("kappa, nu", [((4, 2, 1), (3, 2, 1)), ((4, 2, 1), (4, 2, 1))])
def test_orthogonality_parts_of_size_four(kappa, nu):
    """Parts of size 4 on 96^3 nodes.  Error against delta at 64 / 80 / 96
    nodes: diagonal 4.4e-5 / 2.1e-6 / 9.9e-8, off-diagonal 2e-4 / 9.3e-6 /
    4.4e-7, so 96 is the smallest of these that reaches 1e-6."""
    v = orthogonality_check(kappa, nu, ORTH_PARAMS, nodes=96)
    assert abs(v - (1.0 if kappa == nu else 0.0)) < 1e-6


@pytest.mark.parametrize("n, N", [(2, 161), (3, 65)])
def test_symmetric_grid_equals_full_grid(n, N):
    """F_kappa from one stack per sorted block of node tuples, each other
    ordering filled by transposing, equals one stack on the whole open grid.
    Symmetry is a theorem checked by bb_commute; this keeps the blocked
    evaluation honest.  161 nodes leave a shorter last chunk."""
    w, _ = default_orthogonality_contour(ORTH_PARAMS, 3).nodes_of(0, N)
    kappa = (3, 1)[: n - 1]

    def f_kappa(ws):
        return OperatorStack([(KIND_B, x) for x in ws], ORTH_PARAMS).element(kappa, ())

    got = symfun.symmetric_grid(f_kappa, w, n)
    # the plain stack on the whole open grid, in slabs of the first axis to
    # bound memory (at 65^3 in one piece its transfer cache takes over 0.8 GiB)
    full = np.concatenate(
        [f_kappa(np.ix_(w[s : s + 5], *[w] * (n - 1))) for s in range(0, N, 5)]
    )
    assert got.shape == full.shape == (N,) * n
    assert np.max(np.abs(got - full)) <= 1e-13 * np.max(np.abs(full))
    # every grid point is filled exactly once
    ones = symfun.symmetric_grid(lambda ws: 1.0, w, n)
    assert np.all(ones == 1.0)


def test_orthogonality_node_on_pole_raises():
    with pytest.raises(ContourInvalid):
        orthogonality_check((1,), (1,), ORTH_PARAMS, nodes=64, contour=POLE_CIRCLE)


def test_orthogonality_requires_c_infinite():
    with pytest.raises(ArityError):
        orthogonality_check((1,), (1,), P)


def test_orthogonality_contour_constraints():
    spec = default_orthogonality_contour(ORTH_PARAMS, 4)
    (center, radius), = spec.circles
    q = 0.25
    # q-image of the circle stays off the circle's own disk
    assert abs(q * center - center) > radius * (1 + q)


def test_cauchy_check_general_mu():
    # lambda runs over part-wise dominated configurations (lambda = mu included)
    xs, zs = (F(9, 10),), (F(1, 3),)
    for mu in [(1,), (2,), (2, 1)]:
        rep = cauchy_check(mu, (), xs, zs, P, cutoff=12)
        assert rep["decay_ok"] and rep["final_residual"] < 1e-8, (mu, rep["final_residual"])


def test_g_contour_inhomogeneous_y():
    # the integrand's column products depend on y up to nu_1
    v = g_contour((2,), (F(1, 2),), P_INHOM, nodes=128)
    assert abs(v - float(g_subset((2,), (F(1, 2),), P_INHOM))) < 1e-10
    p2 = ModelParams(q=F(1, 10), a=F(3), c=F(-2), y=(F(4, 5), F(6, 5), F(1)))
    v = g_contour((2, 1), (F(4, 5), F(7, 10)), p2, nodes=96)
    assert abs(v - float(g_subset((2, 1), (F(4, 5), F(7, 10)), p2))) < 1e-10
