import math
import random
from fractions import Fraction as F
from functools import partial, reduce

import numpy as np
import pytest

from halfspace6v import symfun
from halfspace6v.errors import (
    ArityError,
    ContourInvalid,
    DegeneratePoint,
    GuardViolated,
    QuadratureNotConverged,
)
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
from test_weights import count_fraction_arithmetic

P = ModelParams(q=F(1, 4), a=F(3), c=F(-2), y=(F(1),))
P_INHOM = ModelParams(q=F(1, 4), a=F(3), c=F(-2), y=(F(4, 5), F(6, 5), F(1)))


def test_g_subset_makes_one_fraction_on_rational_input(monkeypatch):
    """G_(3,1) of three rational variables by the subset formula: three
    2-subsets, each with two permutations and a Kuperberg sum on its
    complement, and a constant count of Fraction operations."""
    xs = (F(1, 3), F(2, 5), F(3, 7))
    expected = partition_G((3, 1), (), xs, P_INHOM)
    with monkeypatch.context() as m:
        calls = count_fraction_arithmetic(m)
        got = g_subset((3, 1), xs, P_INHOM)
    assert got == expected and type(got) is F
    assert len(calls) <= 2, calls


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


def _lanes(factors, shape):
    """The product of z_factors' factors on each lane of an open grid of
    this shape, its one bond label summed."""
    plain, bonded = [np.ones(shape)], [np.ones(shape + (1,))]
    for f in factors:
        if isinstance(f, tuple):
            bonded.append(f[0].reshape((1,) * (len(shape) + 1 - f[0].ndim) + f[0].shape))
        else:
            plain.append(f)
    return np.prod(np.broadcast_arrays(*plain), axis=0) * np.prod(
        np.broadcast_arrays(*bonded), axis=0
    ).sum(-1)


@pytest.mark.parametrize("c_infinite", [False, True])
def test_z_triangular_vec_open_grid_matches_lanes(c_infinite):
    """z_factors contracted on an open grid of 1 to 4 w's equals the scalar
    z_triangular_vec on every lane: both kernel parities, with and without
    a fixed index joining the w side, and the 3-matching sums (w side of
    order 4)."""
    p = ModelParams(q=0.25, a=3.0, c=None if c_infinite else -2.0, c_infinite=c_infinite)
    circles = [(0.3, 0.2, 5), (-0.4, 0.1, 4), (1.9, 0.3, 3), (-2.6, 0.4, 3)]
    for xs in ([0.55, 0.7, -0.2], [0.55, 0.7]):
        for n in range(1, 5):
            ws = np.ix_(*(c + r * np.exp(2j * np.pi * np.arange(k) / k) for c, r, k in circles[:n]))
            shape = tuple(k for _, _, k in circles[:n])
            grid = _lanes(symfun.z_factors(xs, ws, p), shape)
            for lane in np.ndindex(*shape):
                ref = z_triangular_vec(xs + [1 / complex(w.ravel()[i]) for w, i in zip(ws, lane)], p)
                assert abs(grid[lane] - ref) <= 1e-13 * max(1.0, abs(ref)), (xs, n, lane)


def test_z_factors_singular_fixed_block_raises():
    # h(0) = 1: the fixed block of Z_3(0, 1/w_1, 1/w_2), the x and the
    # border, is [[0, h - 1], [1 - h, 0]] = 0
    with pytest.raises(DegeneratePoint):
        symfun.z_factors([F(0)], np.ix_([0.3 + 0.1j, 0.2], [0.4 - 0.2j]), P)


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
POLE_CIRCLE = ContourSpec(((2.5 + 0j, 0.5),))


def test_g_contour_node_on_pole_raises():
    integrand = partial(symfun._g_integrand_factors, xs=[0.5 + 0j], nu=(1,), params=P)
    with pytest.raises(ContourInvalid):
        nested_trapezoid(POLE_CIRCLE, integrand, 64)


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


X3 = (F(4, 5), F(7, 10), F(3, 5))


@pytest.mark.parametrize(
    "nu, xs, c_infinite, nodes",
    [
        ((3, 2, 1), X3, False, 64),
        ((3, 2, 1), X3 + (F(1, 2),), False, 128),
        ((2, 1), X3, False, 64),
        ((3, 2, 1), X3, True, 64),
    ],
    ids=["x-joins-w-side", "bordered", "no-move", "c-infinite"],
)
def test_g_contour_three_variables(nu, xs, c_infinite, nodes):
    """Every parity of z_factors' kernel split: Z_6 with one x joining the
    w side, Z_7 bordered with a fixed block of 5 (its w side of order 4 is
    a sum of 3 matchings), Z_5 with nothing moved, and the product form at
    c = infinity.  Errors 2.9e-15, 5.4e-12, 3.8e-15 and 1.7e-15; at 64
    nodes the L = 4 case drifts by 9.8e-7 under doubling."""
    p = ModelParams(q=F(1, 10), a=F(3), c=None if c_infinite else F(-2), y=(F(1),),
                    c_infinite=c_infinite)
    ref = float(g_subset(nu, xs, p))
    assert abs(g_contour(nu, xs, p, nodes=nodes) - ref) <= 1e-8 * abs(ref)


NESTED = ContourSpec(((0j, 0.5), (0j, 0.7), (0j, 0.9)))


def _test_integrand(ws):
    val = 1
    for i, w in enumerate(ws):
        val = val * np.exp(w) / (w - 0.1 * (i + 1))
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            val = val * (1 + ws[i] * ws[j])
    return val


def _factor_kinds(ws):
    """One-variable, pair and scalar factors of one integrand."""
    factors = [np.exp(w) / (w - 0.1 * (i + 1)) for i, w in enumerate(ws)]
    factors += [1 + ws[i] * ws[j] for i in range(len(ws)) for j in range(i + 1, len(ws))]
    return factors + [0.5 - 0.25j, np.float64(2.0)]


def _bond_chain(ws):
    """A chain of 2 x 2 matrices, one per variable, closed by a bond-labelled
    row vector on the first variable and a column vector on the last:
    u(w_1) T(w_2) .. T(w_{n-1}) v(w_n), as bond-labelled factors and, for
    comparison, multiplied out on the whole grid."""
    n = len(ws)
    u = np.stack([np.ones_like(ws[0]), ws[0]], axis=-1)
    v = np.stack([1 / (2 - ws[-1]), np.cos(ws[-1])], axis=-1)
    mats = [np.stack([np.stack([1 + 0 * w, w], -1), np.stack([w * w, 2 - w], -1)], -2)
            for w in ws[1:-1]]
    labels = "ABCDEFGH"
    factors = [(u, "A")] + [(m, labels[i : i + 2]) for i, m in enumerate(mats)]
    factors.append((v, labels[n - 2]))
    full = u
    for m in mats:
        full = np.einsum("...i,...ij->...j", full, m)
    return factors, np.einsum("...i,...i->...", full, v)


@pytest.mark.parametrize("chain", [None, _bond_chain])
def test_nested_trapezoid_calls_integrand_once(chain):
    """The integrand is called once, on the whole open grid, also when it
    returns bond-labelled factors."""
    shapes = []

    def spy(ws):
        shapes.append([w.shape for w in ws])
        return [_test_integrand(ws)] + (chain(ws)[0] if chain else [])

    nested_trapezoid(NESTED, spy, 8)
    assert shapes == [[(8, 1, 1), (1, 8, 1), (1, 1, 8)]]


@pytest.mark.parametrize("n, nodes", [(1, 64), (2, 12), (3, 8)])
def test_nested_trapezoid_factors_match_product(n, nodes):
    """Contracting the factors one variable at a time sums the same grid as
    multiplying them all into one array.  From n = 2 a chain of
    bond-labelled matrix factors, summed over its labels, matches its
    product formed on the whole grid."""

    def product(ws):
        return np.prod(np.broadcast_arrays(*_factor_kinds(ws)), axis=0)

    contours = ContourSpec(NESTED.circles[:n])
    got = nested_trapezoid(contours, _factor_kinds, nodes)
    expected = nested_trapezoid(contours, product, nodes)
    assert abs(got - expected) <= 1e-13 * abs(expected)
    if n > 1:
        got = nested_trapezoid(contours, lambda ws: _factor_kinds(ws) + _bond_chain(ws)[0], nodes)
        expected = nested_trapezoid(
            contours,
            lambda ws: np.prod(np.broadcast_arrays(*_factor_kinds(ws), _bond_chain(ws)[1]), axis=0),
            nodes,
        )
        assert abs(got - expected) <= 1e-13 * abs(expected)


def test_nested_trapezoid_non_finite_factor_raises():
    # w = 1 is a node: 1/(w - 1) is inf there while (w - 1) is 0, so their
    # product is nan; each factor is checked on its own
    unit = ContourSpec(((0j, 1.0),))
    with pytest.raises(ContourInvalid):
        nested_trapezoid(unit, lambda ws: [1 / (ws[0] - 1), ws[0] - 1], 4)
    # finite factors whose product overflows
    with pytest.raises(ContourInvalid):
        nested_trapezoid(unit, lambda ws: [1e200 * ws[0], 1e200 * ws[0]], 4)


def test_contour_validation_rejects_bad_circles():
    spec = ContourSpec(((0.5 + 0j, 1.0),))
    with pytest.raises(ContourInvalid):
        validate_contours(spec, [0.5], [0.6], 0.25)  # excluded point inside
    with pytest.raises(ContourInvalid):
        validate_contours(ContourSpec(((0.5, 0.1), (0.5, 0.05))), [0.45], [5.0], 0.25)


@pytest.mark.parametrize("circles, rule", [
    (((1.5, 0.2), (1.5, 0.1)), "not strictly nested"),
    (((2j, 1.0), (2j, 2.0)), "q-image of an outer circle"),
    (((1.5, 0.3), (1.5, 0.7)), "inverse of an outer circle"),
    (((0.5, 0.1), (0.5, 0.2)), "q/w image"),
])
def test_contour_validation_rejects_each_pair_rule(circles, rule):
    # each pair of circles breaks the named rule and no other (q = 1/4)
    with pytest.raises(ContourInvalid, match=rule):
        validate_contours(ContourSpec(circles), [], [], 0.25, pair_q_inverse=True)


@pytest.mark.parametrize("q, xs, nu, validations", [
    (0.1, (0.3, 0.2), (3, 2, 1), 2),
    (0.3, (0.6,), (3, 2, 1), 5),
    (0.2, (0.6, 0.5), (2, 1), 2),
])
def test_nested_contours_shrinks_until_the_pair_rules_hold(monkeypatch, q, xs, nu, validations):
    p = ModelParams(q=q, a=3.0, c=-2.0, y=(1.0,))
    calls = []

    def spy(spec, *args, **kwargs):
        calls.append(spec)
        return validate_contours(spec, *args, **kwargs)

    monkeypatch.setattr(symfun, "validate_contours", spy)
    ws = [complex(x) for x in xs]
    spec = nested_contours(ws, symfun._g_contour_poles(nu, ws, p), len(nu), q, pair_q_inverse=True)
    assert len(calls) == validations and calls[-1] is spec


@pytest.mark.parametrize("q, xs, nu, nodes", [
    (0.1, (0.3, 0.2), (3, 2, 1), 128),
    (0.2, (0.6, 0.5), (2, 1), 256),
])
def test_g_contour_on_shrunk_circles(q, xs, nu, nodes):
    # with more parts than variables g_subset does not apply; the operator
    # route gives G = 0 there
    p = ModelParams(q=q, a=3.0, c=-2.0, y=(1.0,))
    expected = g_subset(nu, xs, p) if len(nu) <= len(xs) else partition_G(nu, (), xs, p)
    assert abs(g_contour(nu, xs, p, nodes=nodes) - expected) < 1e-8


def test_g_contour_more_parts_than_variables_is_zero(monkeypatch):
    # three parts on one variable: G vanishes, as on the operator route, and
    # g_contour returns 0 without building a circle (on the circles that
    # nested_contours would shrink to here, node doubling does not converge)
    p = ModelParams(q=0.3, a=3.0, c=-2.0, y=(1.0,))

    def no_circles(*args, **kwargs):
        raise AssertionError("a contour was built")

    monkeypatch.setattr(symfun, "nested_contours", no_circles)
    assert g_contour((3, 2, 1), (0.6,), p) == 0 == partition_G((3, 2, 1), (), (0.6,), p)


def test_nested_contours_no_annulus_raises():
    # 1/a = 1/3 lies within the reach of the x's from their centroid
    p = ModelParams(q=0.1, a=3.0, c=-2.0, y=(1.0,))
    with pytest.raises(ContourInvalid, match="no annulus"):
        g_contour((1,), (0.9, 0.5, 0.3), p)


def test_g_contour_unconverged_raises():
    p = ModelParams(q=0.25, a=3.0, c=-2.0, y=(1.0,))
    with pytest.raises(QuadratureNotConverged):
        g_contour((1,), (0.5,), p, nodes=2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_nested_contours_constructor(n):
    """Radii spaced geometrically in (r_lo, r_hi), one circle at
    sqrt(r_lo r_hi).  The one enclosed point is the centre, so r_lo is the
    floor; the nearest excluded point 0.125 gives r_hi = 0.375."""
    spec = nested_contours([0.5], [0.125, 8.0, 4.0, 3.0, -2.0], n, 0.25)
    validate_contours(spec, [0.5], [0.125, 8.0, 4.0, 3.0, -2.0], 0.25)
    r_hi = 0.375
    r_lo = symfun._R_LO_FLOOR * r_hi
    radii = [r for c, r in spec.circles]
    assert all(c == 0.5 for c, _ in spec.circles)
    ratio = radii[0] / r_lo
    assert all(b / a == pytest.approx(ratio, rel=1e-12) for a, b in zip(radii, radii[1:]))
    assert r_lo < radii[0] and radii[-1] * ratio <= r_hi * (1 + 1e-12)
    if n == 1:
        assert radii[0] == pytest.approx(math.sqrt(r_lo * r_hi), rel=1e-12)


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

    On the default circle the diagonal case is off by 2.6e-11 at 32 nodes
    and 1.1e-15 at 48; the off-diagonal ones are below 1e-18 at every node
    count.  Parts of size 4 are checked in
    test_orthogonality_parts_of_size_four and test_orthogonality_48_nodes.
    """
    v = orthogonality_check(kappa, (3, 2, 1), ORTH_PARAMS, nodes=64)
    assert abs(v - (1.0 if kappa == (3, 2, 1) else 0.0)) < 1e-6


@pytest.mark.parametrize("kappa, nu", [((4, 2, 1), (3, 2, 1)), ((4, 2, 1), (4, 2, 1))])
def test_orthogonality_parts_of_size_four(kappa, nu):
    """Parts of size 4 on 96^3 nodes.  Error against delta on the default
    circle at 64 / 80 / 96 nodes: diagonal 6.8e-12 / 7.8e-15 / 8.0e-16,
    off-diagonal 2.5e-11 / 3.5e-14 / 1.1e-14."""
    v = orthogonality_check(kappa, nu, ORTH_PARAMS, nodes=96)
    assert abs(v - (1.0 if kappa == nu else 0.0)) < 1e-6


@pytest.mark.parametrize("kappa, nu", [((4, 2, 1), (3, 2, 1)), ((4, 2, 1), (4, 2, 1))])
def test_orthogonality_48_nodes(kappa, nu):
    """The default circle sits at the geometric mean of its annulus
    (nested_contours), where the trapezoid rate is smallest: parts of size
    4 reach 1e-6 on 48^3 nodes (2.5e-8 off the diagonal, 6.7e-9 on it).  A
    circle at 0.7 r_hi + 0.3 r_lo was off by 4.1e-3 and 9.2e-4 here."""
    v = orthogonality_check(kappa, nu, ORTH_PARAMS, nodes=48)
    assert abs(v - (1.0 if kappa == nu else 0.0)) < 1e-6


@pytest.mark.parametrize("kappa, nu", [((4, 3, 2, 1), (4, 3, 2, 1)), ((4, 3, 2), (4, 3, 2, 1))])
def test_orthogonality_four_variables(kappa, nu):
    """Four-fold orthogonality on 40^4 nodes: the chain of transfer
    matrices keeps every intermediate of the contraction within
    symfun.PATH_CAP elements.  Errors against delta: 1.7e-7 on the
    diagonal, 5e-18 off it."""
    v = orthogonality_check(kappa, nu, ORTH_PARAMS, nodes=40)
    assert abs(v - (1.0 if kappa == nu else 0.0)) < 1e-6


def test_orthogonality_builds_one_stack(monkeypatch):
    """One call builds one single-row OperatorStack, on the circle's nodes,
    however many variables and grid points it integrates over."""
    built = []

    class Spy(OperatorStack):
        def __init__(self, rows, params):
            built.append([np.shape(s) for _, s in rows])
            super().__init__(rows, params)

    monkeypatch.setattr(symfun, "OperatorStack", Spy)
    orthogonality_check((3, 2, 1), (3, 2, 1), ORTH_PARAMS, nodes=24)
    assert built == [[(24,)]]


CHAIN_ALPHABET = (F(1, 3), F(2, 7), F(3, 5), F(5, 11))


@pytest.mark.parametrize("c_infinite", [True, False])
@pytest.mark.parametrize("kappa", [(2, 1), (3, 1), (3, 2, 1), (4, 2, 1), (4, 3, 2, 1)])
def test_transfer_chain_equals_stack(kappa, c_infinite):
    """[M(z_1) .. M(z_n)]_{kappa, ()}, the chain the orthogonality check
    contracts, equals the n-row stack's element exactly, for n from |kappa|
    to 4: inserting the identity on the configurations kappa dominates
    between the rows loses no term."""
    params = ModelParams(
        q=F(1, 4),
        a=F(3),
        c=None if c_infinite else F(-2),
        y=(F(4, 5), F(6, 5), F(1)),
        c_infinite=c_infinite,
    )
    for n in range(len(kappa), 5):
        zs = CHAIN_ALPHABET[:n]
        mats = [symfun._b_transfer(kappa, z, params) for z in zs]
        states = mats[0][0]
        chain = reduce(np.dot, [m for _, m in mats])
        got = chain[states.index(kappa), states.index(())]
        want = OperatorStack([(KIND_B, z) for z in zs], params).element(kappa, ())
        assert got == want and isinstance(got, F) and got != 0, (kappa, n)


def test_orthogonality_node_on_pole_raises():
    points = symfun._orthogonality_points(ORTH_PARAMS, 1)
    with pytest.raises(ContourInvalid):
        validate_contours(POLE_CIRCLE, *points, ORTH_PARAMS.q)


def test_orthogonality_rejects_caller_circle_over_a_pole():
    # radius 0.40 around 1.75 takes in y_4/q = 2.105; the quadrature on it
    # returned 13.05 where the value is 1
    points = symfun._orthogonality_points(ORTH_PARAMS, 4)
    with pytest.raises(ContourInvalid):
        validate_contours(ContourSpec(((1.75, 0.40),)), *points, ORTH_PARAMS.q)


def test_g_contour_rejects_caller_circle_over_a_pole():
    # radius 0.3 around 1/2 takes in the pole 1/a = 1/3; the quadrature on
    # it returned 0.157 where g_subset gives 0.309
    xs = [0.5 + 0j]
    with pytest.raises(ContourInvalid):
        validate_contours(ContourSpec(((0.5, 0.3),)), xs, symfun._g_contour_poles((1,), xs, P), P.q)


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


def test_g_contour_32_nodes():
    """Default circles at the geometric mean of the annulus reach 1e-8 at 32
    nodes without doubling (off by 3.4e-11; a ladder from 0.25 to 0.85 of
    the annulus was off by 1.9e-6)."""
    p2 = ModelParams(q=F(1, 10), a=F(3), c=F(-2), y=(F(4, 5), F(6, 5), F(1)))
    v = g_contour((2, 1), (F(4, 5), F(7, 10)), p2, nodes=32, check_convergence=False)
    assert abs(v - float(g_subset((2, 1), (F(4, 5), F(7, 10)), p2))) < 1e-8
