"""Double-row operator tests against independent brute-force oracles."""

import itertools
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace6v import rowops
from halfspace6v.errors import DegeneratePoint, GuardViolated, TruncationTooSmall
from halfspace6v.pfaffian import det_exact
from halfspace6v.rowops import (
    KIND_A,
    KIND_B,
    OperatorStack,
    apply_double_row,
    as_config,
    g_lattice,
    guard_aa,
    guard_cauchy,
    partition_F,
    partition_G,
    stochastic_row_sum,
    triangle_states,
    verify_operator_identity,
)
from halfspace6v.symfun import g_subset
from halfspace6v.triangular import TriangularSpec, z_enumerate
from halfspace6v.weights import (
    DOTTED,
    ROTATED,
    STOCHASTIC,
    ModelParams,
    boundary_weight,
    bulk_weight,
    h_func,
)
from test_weights import _disable_fraction_arithmetic

P = ModelParams(q=F(1, 3), a=F(2), c=F(5), y=(F(1),))
P_INHOM = ModelParams(q=F(1, 3), a=F(2), c=F(5), y=(F(3, 4), F(5, 4), F(1)))


def brute_force_row(mu, nu, kind, x, n_cols, params):
    """One double row summed over the full product space of internal edges.

    Deliberately structure-free: channels (b, t) at every column boundary
    and the intermediate vertical edge m per column are enumerated
    exhaustively and weighted straight off the tables.
    """
    target = (0, 0) if kind == KIND_A else (0, 1)
    top_variant = STOCHASTIC if kind == KIND_A else DOTTED
    total = F(0)
    occ_mu, occ_nu = set(mu), set(nu)
    channels = list(itertools.product((0, 1), repeat=2))
    for chans in itertools.product(channels, repeat=n_cols + 1):
        if chans[-1] != target:
            continue
        for ms in itertools.product((0, 1), repeat=n_cols):
            w = boundary_weight(chans[0][0], chans[0][1], x, params)
            for j in range(1, n_cols + 1):
                if w == 0:
                    break
                (bL, tL), (bR, tR) = chans[j - 1], chans[j]
                m = ms[j - 1]
                eta_in = 1 if j in occ_mu else 0
                eta_out = 1 if j in occ_nu else 0
                yj = params.y_at(j)
                w = w * bulk_weight(eta_in, bR, m, bL, x / yj, ROTATED, params.q)
                if w == 0:
                    break
                w = w * bulk_weight(m, tL, eta_out, tR, x * yj, top_variant, params.q)
            else:
                total += w
    return total


@pytest.mark.parametrize("kind", [KIND_A, KIND_B])
def test_apply_double_row_against_brute_force(kind):
    x = F(2, 7)
    n = 3
    configs = [as_config(c) for r in range(4) for c in itertools.combinations((3, 2, 1), r)]
    stack = OperatorStack([(kind, x)], P_INHOM)
    for mu in configs:
        for nu in configs:
            assert stack.element(mu, nu) == brute_force_row(mu, nu, kind, x, n, P_INHOM), (mu, nu)


@pytest.mark.parametrize("kind", [KIND_A, KIND_B])
def test_apply_double_row_matches_stack_on_every_backend(kind):
    """The complex run and the mixed run (rational x under a complex q)
    agree with the exact one-row stack's elements within 1e-15."""
    x = F(2, 7)
    configs = [as_config(c) for r in range(4) for c in itertools.combinations((3, 2, 1), r)]
    pc = ModelParams(q=1 / 3 + 0j, a=2 + 0j, c=5 + 0j, y=(0.75 + 0j, 1.25 + 0j, 1 + 0j))
    stack = OperatorStack([(kind, x)], P_INHOM)
    for mu in configs:
        off_rational = [
            apply_double_row({mu: 1}, kind, complex(x), 3, pc),
            apply_double_row({mu: 1}, kind, x, 3, pc),
        ]
        for nu in configs:
            want = stack.element(mu, nu)
            for out in off_rational:
                assert abs(out.get(nu, 0) - want) <= 1e-15, (mu, nu, out.get(nu), want)


def test_bdot_left_eigenvector():
    z = F(2, 7)
    st = apply_double_row({(): 1}, KIND_B, z, 5, P)
    assert st == {(): h_func(z, P)}


def test_a_identity_at_one_on_bra():
    st = apply_double_row({(3, 1): 1}, KIND_A, F(1), 6, P)
    assert st == {(3, 1): F(1)}


def test_single_column_example():
    # q=1/3, a=2, c=5, y1=1, x=1/2, one column
    x = F(1, 2)
    st = apply_double_row({(): 1}, KIND_A, x, 1, P)
    h = h_func(x, P)
    assert st == {
        (): 1 - h,
        (1,): h * x * (1 - F(1, 3)) / (1 - F(1, 3) * x),
    }


def test_truncation_too_small():
    with pytest.raises(TruncationTooSmall):
        apply_double_row({(5,): 1}, KIND_A, F(1, 2), 3, P)


def test_partition_G_empty_alphabet():
    assert partition_G((2, 1), (2, 1), (), P) == 1
    assert partition_G((2,), (1,), (), P) == 0


def test_partition_G_rejects_unknown_method():
    xs = (F(1, 2), F(2, 5))
    for method in ("latice", "Stack", ""):
        with pytest.raises(ValueError):
            partition_G((2, 1), (), xs, P, method=method)
    with pytest.raises(ValueError):
        partition_G((1,), (1,), (), P, method="latice")
    assert partition_G((2, 1), (), xs, P, method="stack") == partition_G(
        (2, 1), (), xs, P, method="lattice"
    )


def test_partition_G_single_site_example():
    x = F(1, 2)
    v = partition_G((1,), (), (x,), P)
    assert v == h_func(x, P) * (1 - P.q) * x / (1 - P.q * x)


def test_lattice_equals_stack_route():
    xs = (F(1, 2), F(2, 5))
    stack = OperatorStack([(KIND_A, x) for x in xs], P_INHOM)
    for nu in [(), (1,), (2,), (2, 1), (3, 1), (4, 2)]:
        assert g_lattice(nu, xs, P_INHOM) == stack.element((), nu), nu


def test_truncation_independence_of_stack():
    # widening the explicit region (longer y prefix of equal values) must
    # not change the matrix element
    xs = (F(1, 2), F(2, 5))
    p1 = ModelParams(q=F(1, 3), a=F(2), c=F(5), y=(F(1),))
    p2 = ModelParams(q=F(1, 3), a=F(2), c=F(5), y=(F(1),) * 6)
    s1 = OperatorStack([(KIND_A, x) for x in xs], p1)
    s2 = OperatorStack([(KIND_A, x) for x in xs], p2)
    for nu in [(), (1,), (2, 1)]:
        assert s1.element((2,), nu) == s2.element((2,), nu)


def test_g_empty_is_y_independent():
    xs = (F(1, 2), F(2, 5))
    g1 = OperatorStack([(KIND_A, x) for x in xs], P).element((), ())
    g2 = OperatorStack([(KIND_A, x) for x in xs], P_INHOM).element((), ())
    assert g1 == g2


def test_partition_F_examples():
    z = F(2, 7)
    assert partition_F((), (), (z,), P) == h_func(z, P)
    assert partition_F((2, 1), (2, 1), (), P) == 1
    # brute-force oracle for mu=(1), nu=() on one column plus escaping tail
    total = F(0)
    for bL in (0, 1):
        for tL in (0, 1):
            kw = boundary_weight(bL, tL, z, P)
            for m in (0, 1):
                wb = bulk_weight(1, 0, m, bL, z / 1, ROTATED, P.q)
                wt = bulk_weight(m, tL, 0, 1, z * 1, DOTTED, P.q)
                total += kw * wb * wt
    assert partition_F((1,), (), (z,), P) == total


def test_stochastic_row_sums_exact():
    for mu in [(), (1,), (3, 1)]:
        assert stochastic_row_sum(mu, (F(1, 2),), P) == 1
    assert stochastic_row_sum((2,), (F(1, 2), F(2, 5)), P_INHOM) == 1


def test_empty_stack_is_identity():
    configs = list(rowops.configs_bounded(3, 3))
    pairs = [(m, n) for m in configs for n in configs]
    for params in (P, P_INHOM):
        assert OperatorStack([], params).elements(pairs) == [int(m == n) for m, n in pairs]
        assert all(stochastic_row_sum(mu, (), params) == 1 for mu in configs)


def test_symmetry_in_x_alphabet():
    xs = (F(1, 2), F(2, 5), F(3, 8))
    base = g_lattice((2, 1), xs, P)
    for perm in itertools.permutations(xs):
        assert g_lattice((2, 1), perm, P) == base
    # stack route with nonempty mu, one transposition
    s1 = OperatorStack([(KIND_A, xs[0]), (KIND_A, xs[1])], P)
    s2 = OperatorStack([(KIND_A, xs[1]), (KIND_A, xs[0])], P)
    assert s1.element((1,), (2,)) == s2.element((1,), (2,))


IDENTITY_CASES = [
    ("a_at_zero", {"spectral": ()}),
    ("a_at_one", {"spectral": ()}),
    ("a_inverse_pair", {"spectral": (F(9, 10),)}),
    ("aa_commute", {"spectral": (F(1, 2), F(2, 5))}),
    ("bb_commute", {"spectral": (F(1, 3), F(2, 7))}),
    ("ab_exchange", {"spectral": (F(1, 2), F(1, 3))}),
    ("stochastic_rows", {"spectral": (F(1, 2),)}),
]


@pytest.mark.parametrize("identity,kw", IDENTITY_CASES)
def test_operator_identities_exact(identity, kw):
    ok, resid = verify_operator_identity(identity, P, **kw)
    assert ok and resid == 0.0


def test_branching_stabilises():
    ok, resid = verify_operator_identity("branching", P, (F(1, 2), F(2, 5)))
    assert ok and resid < 1e-6


def test_guard_violated():
    with pytest.raises(GuardViolated):
        verify_operator_identity("a_inverse_pair", P, (F(2, 5),))
    assert guard_aa(F(1, 2), F(2, 5), P).passes
    assert not guard_cauchy((F(5),), (F(1, 3),), P).passes


def test_unitarity_sum_over_intermediates():
    # sum_kappa G_{nu/kappa}(1/x) G_{kappa/mu}(x) = delta via the two-row stack
    x = F(9, 10)
    stack = OperatorStack([(KIND_A, x), (KIND_A, 1 / x)], P)
    for mu in [(), (1,), (2,)]:
        for nu in [(), (1,), (2,)]:
            assert stack.element(mu, nu) == (1 if mu == nu else 0)


def test_partition_G_alphabet_recursions():
    x = F(1, 2)
    # a zero variable annihilates
    assert partition_G((1,), (), (x, F(0)), P) == 0
    # x_i = +-1 drops the variable
    for s in (F(1), F(-1)):
        for nu in [(), (1,), (2,)]:
            assert partition_G(nu, (), (x, s), P) == partition_G(nu, (), (x,), P)
    # a reciprocal pair drops out entirely (1/x must avoid the a, c poles)
    xr = F(2, 5)
    for nu in [(), (1,), (2, 1)]:
        assert partition_G(nu, (), (xr, 1 / xr), P) == (1 if nu == () else 0)


def test_lattice_equals_stack_random_points():
    # the staircase reduction and the operator contraction are independent
    # machines; they must agree identically as rational functions
    rng = random.Random(314)
    for _ in range(6):
        while True:
            q = F(rng.randint(-8, 8), rng.randint(9, 17))
            a = F(rng.randint(2, 9), rng.randint(1, 3))
            c = F(rng.randint(-9, -2), rng.randint(1, 3))
            y1 = F(rng.randint(1, 9), rng.randint(1, 9))
            xs = tuple(F(rng.randint(1, 9), rng.randint(10, 19)) for _ in range(2))
            if len(set(xs)) < 2 or y1 == 0:
                continue
            try:
                params = ModelParams(q=q, a=a, c=c, y=(y1,))
                stack = OperatorStack([(KIND_A, x) for x in xs], params)
                nu = rng.choice([(), (1,), (2,), (2, 1), (3,)])
                lhs = g_lattice(nu, xs, params)
                rhs = stack.element((), nu)
            except (ZeroDivisionError, ArithmeticError):
                continue
            assert lhs == rhs, (q, a, c, y1, xs, nu)
            break


def test_probability_regime_pointwise():
    from halfspace6v.rowops import in_probability_regime

    good = ModelParams(q=F(1, 4), a=F(3), c=F(-2), y=(F(1),))
    assert in_probability_regime(F(1, 2), good)
    # h(1/2) > 1 at these boundary parameters: not a probability kernel
    bad = ModelParams(q=F(1, 3), a=F(2), c=F(5), y=(F(1),))
    assert not in_probability_regime(F(1, 2), bad)
    # pole is reported as out-of-regime, not an exception
    assert not in_probability_regime(F(3), good)


def test_solve_dense_singular_integer_system_raises():
    # row 3 = row 1 + row 2, and a zero leading entry forces a row swap first
    M = [[0, 2, 1], [3, 1, 4], [3, 3, 5]]
    with pytest.raises(DegeneratePoint):
        rowops._solve_dense(M, [1, 2, 3])


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_solve_dense_integer_system_matches_cramer(n):
    """The fraction-free solve gives Cramer's rule, det(M_i)/det(M) by
    det_exact, as Fractions; zeros on the diagonal make it pivot."""
    rng = random.Random(40 + n)
    while True:
        M = [[rng.choice((0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(n)]
        det = det_exact(M)
        if det != 0:
            break
    b = [rng.randint(-9, 9) for _ in range(n)]
    cramer = [
        det_exact([row[:i] + [b[r]] + row[i + 1 :] for r, row in enumerate(M)]) / det
        for i in range(n)
    ]
    got = rowops._solve_dense(M, b)
    assert got == cramer and all(type(v) is F for v in got)
    # the same loop over complex entries agrees with numpy
    got_c = rowops._solve_dense([[complex(v) for v in row] for row in M], [complex(v) for v in b])
    ref = np.linalg.solve(np.array(M, dtype=complex), np.array(b, dtype=complex))
    assert np.max(np.abs(np.array(got_c) - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_stack_pole_raises_degenerate_point():
    # x_1 = y_1/q is a pole of one row weight; G itself is finite there
    p = ModelParams(q=F(1, 4), a=F(3), c=F(-2), y=(F(4, 5),))
    xs = (F(16, 5), F(1, 2))
    assert partition_G((2, 1), (), xs, p, method="lattice") == F(-1232, 65)
    assert g_subset((2, 1), xs, p) == F(-1232, 65)
    with pytest.raises(DegeneratePoint):
        partition_G((2, 1), (), xs, p, method="stack")


def test_stack_elements_pole_raises_degenerate_point():
    # the pole of the test above is in every column table: a family raises
    # it too, whichever pair it contracts first
    p = ModelParams(q=F(1, 4), a=F(3), c=F(-2), y=(F(4, 5),))
    stack = OperatorStack([(KIND_A, F(16, 5)), (KIND_A, F(1, 2))], p)
    with pytest.raises(DegeneratePoint):
        stack.elements([((), ()), ((), (2, 1)), ((1,), (2,))])


def test_lattice_and_subset_pole_raise_degenerate_point():
    # x_1 y_1 q = 1 is a pole of the weights both routes multiply out
    p = ModelParams(q=F(2), a=F(1, 3), c=F(1, 4), y=(F(1),))
    xs = (F(1), F(1, 2))
    with pytest.raises(DegeneratePoint):
        g_lattice((1,), xs, p)
    with pytest.raises(DegeneratePoint):
        g_subset((1,), xs, p)


@pytest.mark.parametrize("kinds", [(KIND_B, KIND_B), (KIND_A, KIND_B), (KIND_A, KIND_A)])
def test_stack_broadcast_lanes_match_flat_lanes(monkeypatch, kinds):
    """Rows on open-grid axes (5, 1) and (1, 7) give what the same stack
    gives on the 35 flattened lanes.  Bdot stacks resolve their tail
    without a solve; A rows reach the batched tail solve."""
    p = ModelParams(q=0.25, a=3.0, c=-2.0, y=(1.2, 0.8, 1.0))
    theta = 2 * np.pi * np.arange(12) / 12
    w = 0.62 + 0.05j + 0.08 * np.exp(1j * theta)
    grid = (w[:5].reshape(5, 1), w[3:10].reshape(1, 7))
    flat = [a.ravel() for a in np.broadcast_arrays(*grid)]
    solve, solves = rowops._solve_dense, []

    def spy(M, b):
        solves.append(len(M))
        return solve(M, b)

    monkeypatch.setattr(rowops, "_solve_dense", spy)
    open_stack = OperatorStack(list(zip(kinds, grid)), p)
    flat_stack = OperatorStack(list(zip(kinds, flat)), p)
    pairs = [((), ()), ((1,), ()), ((2,), (1,)), ((3, 1), ()), ((3, 1), (2,)), ((), (4, 1))]
    for mu, nu in pairs:
        got, ref = open_stack.element(mu, nu), flat_stack.element(mu, nu)
        assert got.shape == (5, 7)
        assert np.max(np.abs(got.ravel() - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))
    for mu in [(), (2,), (3, 1)]:
        got, ref = open_stack.row_sum(mu), flat_stack.row_sum(mu)
        assert got.shape == (5, 7)
        assert np.max(np.abs(got.ravel() - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))
    if KIND_A in kinds:
        assert solves


def test_single_element_keeps_no_prefix_frontiers():
    """One element call holds only its running frontier: with the column and
    tail caches warm, its peak memory does not grow with the column count."""
    p = ModelParams(q=0.25, a=3.0, c=-2.0, y=(1.0,))
    w = 0.62 + 0.05j + 0.08 * np.exp(2j * np.pi * np.arange(64) / 64)
    stack = OperatorStack([(KIND_A, w.reshape(64, 1)), (KIND_A, w.reshape(1, 64))], p)
    short, long = ((2,), (1,)), ((6,), (5,))  # 2 and 6 contracted columns
    for mu, nu in (short, long):
        stack.element(mu, nu)
    peaks = []
    for mu, nu in (short, long):
        tracemalloc.start()
        stack.element(mu, nu)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_exact_stack_values_and_types():
    """Skew elements at rational points: the fraction-free contraction gives
    the values an all-Fraction contraction gave, as Fractions (exact zeros
    may be ints), never floats."""
    xs, zs = (F(1, 2), F(2, 5)), (F(1, 3), F(2, 7))
    kappas = [k for r in range(4) for k in itertools.combinations(range(5, 0, -1), r)]
    stack = OperatorStack([(KIND_A, x) for x in xs], P_INHOM)
    family = stack.elements([((1,), kappa) for kappa in kappas])
    got = [
        partition_G((3, 2), (1,), xs, P_INHOM),
        partition_F((2, 1), (1,), zs, P_INHOM),
        stochastic_row_sum((2,), xs, P_INHOM),
        OperatorStack([(KIND_B, z) for z in zs], P_INHOM).row_sum((2,)),
        sum(family),
    ]
    expected = [
        F(17728, 221445),
        F(159751840, 232427811),
        F(1),
        F(17403660, 7043267),
        F(254584739147, 435160339250),
    ]
    assert got == expected
    for v in got + family:
        assert isinstance(v, (F, int)), type(v)
    # every family member resumed from a saved prefix equals its lone contraction
    assert family == [stack.element((1,), kappa) for kappa in kappas]


@pytest.mark.parametrize("spectral", [
    (F(1, 2), 0.4 + 0.1j),
    (np.array([0.5, 0.45 + 0.05j]), np.array([[0.4 + 0.1j], [0.3], [0.35 - 0.02j]])),
])
def test_mixed_stack_matches_complex_stack(spectral):
    """A stack that is not all rational (a Fraction row beside a complex
    row, or ndarray rows under a Fraction q) gives the all-complex stack's
    values."""
    p_complex = ModelParams(q=1 / 3, a=2.0, c=5.0, y=(0.75, 1.25, 1.0))
    kinds = (KIND_A, KIND_B)
    mixed = OperatorStack(list(zip(kinds, spectral)), P_INHOM)
    ref = OperatorStack(
        [(k, s.astype(complex) if isinstance(s, np.ndarray) else complex(s))
         for k, s in zip(kinds, spectral)],
        p_complex,
    )
    pairs = [((), ()), ((1,), ()), ((2,), (1,)), ((3, 1), (2,)), ((), (4, 1))]
    for got, want in zip(mixed.elements(pairs) + [mixed.row_sum((2,))],
                         ref.elements(pairs) + [ref.row_sum((2,))]):
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


def test_complex_lattice_values_and_den():
    """Off the rationals the line sweep carries den 1, and its values are
    those recorded before the sweep became fraction-free, within 1e-15."""
    pc = ModelParams(q=0.25 + 0.1j, a=3.0, c=-2.0, y=(0.8, 1.2, 1.0))
    xs = (0.5 + 0.1j, -0.3 + 0.2j, 0.7 - 0.05j, 0.2 + 0.4j, -0.6 - 0.1j)
    pm = ModelParams(q=0.25 + 0.1j, a=F(3), c=F(-2), y=(F(4, 5), F(6, 5), F(1)))
    xr = (F(1, 2), F(-3, 10), F(7, 10), F(1, 5))
    got = [
        z_enumerate(TriangularSpec(xs, pc)),
        g_lattice((3, 1), xs[:3], pc),
        z_enumerate(TriangularSpec(xr, pm)),
        g_lattice((2, 1), xr[:3], pm),
    ]
    expected = [
        0.00024224892103717782 + 9.025967608258763e-06j,
        -0.04435473545094005 + 0.034383418965597864j,
        -0.0010452101801205044 + 0.00015587613287137587j,
        -0.051896949102441206 + 0.009417434893952607j,
    ]
    for g, e in zip(got, expected):
        assert isinstance(g, complex) and abs(g - e) <= 1e-15 * abs(e), (g, e)
    assert triangle_states(xs, pc)[1] == 1
    assert triangle_states(xr, pm)[1] == 1


def test_exact_lattice_is_fraction_free():
    """Over the rationals the triangle is integers over one denominator, and
    G reduces to the Fraction the subset route gives."""
    xs = (F(1, 2), F(-3, 10), F(7, 10))
    values, den = triangle_states(xs, P_INHOM)
    assert den > 1 and all(isinstance(v, int) for v in values.values())
    assert g_lattice((2, 1), xs, P_INHOM) == g_subset((2, 1), xs, P_INHOM)


def test_mixed_stack_takes_den_one_path():
    """Rational rows under a complex q: the boundary weights stay Fractions
    over den 1, not integer numerators, and the elements are complex."""
    pm = ModelParams(q=0.25 + 0.1j, a=F(3), c=F(-2), y=P_INHOM.y)
    stack = OperatorStack([(KIND_A, F(1, 2)), (KIND_B, F(1, 3))], pm)
    values, den = stack._initial_frontier()
    assert den == 1 and all(isinstance(v, F) for v in values.values())
    ref = OperatorStack([(KIND_A, 0.5), (KIND_B, 1 / 3)], ModelParams(
        q=0.25 + 0.1j, a=3.0, c=-2.0, y=(0.75, 1.25, 1.0)))
    pairs = [((), ()), ((2,), (1,)), ((3, 1), (2,))]
    for got, want in zip(stack.elements(pairs), ref.elements(pairs)):
        assert isinstance(got, complex) and abs(got - want) <= 1e-14 * max(1.0, abs(want))


def test_int_spectral_values_under_a_complex_q():
    """A plain int spectral value in a complex stack is paired as a value
    over 1, like any other, so its K table is not taken over an integer
    denominator that the stack's close would never divide out."""
    pm = ModelParams(q=0.25 + 0.1j, a=F(3), c=F(-2))
    ref = ModelParams(q=0.25 + 0.1j, a=3.0, c=-2.0)
    pairs = [((), ()), ((2,), (1,))]
    got = OperatorStack([(KIND_A, 2), (KIND_B, F(1, 3))], pm).elements(pairs)
    want = OperatorStack([(KIND_A, 2.0), (KIND_B, 1 / 3)], ref).elements(pairs)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-14 * abs(w)
    g, w = (partition_G((1,), (), (x,), p, method="stack") for x, p in ((2, pm), (2.0, ref)))
    assert abs(g - w) <= 1e-14 * abs(w)


@pytest.mark.parametrize("kind", [KIND_A, KIND_B])
@pytest.mark.parametrize("exact", [True, False])
def test_column_moves_conserve_charge(kind, exact):
    """Each vertex conserves particles, so every move of one double row at
    one column has eta_in + b_right + t == eta_out + b + t_right."""
    x, q, ys = F(2, 7), P_INHOM.q, P_INHOM.y
    if not exact:
        x, q, ys = 0.3 + 0.1j, complex(q), [complex(y) for y in ys]
    for yj in ys:
        table, _ = rowops._column_moves(kind, x, yj, q, exact)
        moves = [(key, m) for key, ms in table.items() for m in ms]
        assert moves
        for (eta_in, (b, t)), (eta_out, (b_right, t_right), _) in moves:
            assert eta_in + b_right + t == eta_out + b + t_right


def test_exact_tables_run_no_fraction_arithmetic(monkeypatch):
    """On rational input the move tables, the stack's initial frontier and
    the triangle's edge states are built from numerators and denominators
    only: with every Fraction operation and constructor disabled they come
    out the same."""
    xs = (F(2, 7), F(-3, 5), F(1, 2))

    def build():
        moves = [rowops._column_moves(kind, x, yj, P_INHOM.q, True)
                 for kind in (KIND_A, KIND_B) for x in xs for yj in P_INHOM.y]
        stack = OperatorStack([(KIND_A, xs[0]), (KIND_B, xs[1])], P_INHOM)
        return moves, stack._initial_frontier(), triangle_states(xs, P_INHOM)

    expected = build()
    with monkeypatch.context() as m:
        _disable_fraction_arithmetic(m)
        got = build()
    assert got == expected


SMALL_CONFIGS = [as_config(c) for r in range(4) for c in itertools.combinations((3, 2, 1), r)]
SPECTRAL = (F(1, 2), F(2, 5), F(1, 3), F(2, 7), F(3, 7))


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(
    rows=st.lists(st.tuples(st.sampled_from((KIND_A, KIND_B)), st.sampled_from(SPECTRAL)),
                  min_size=1, max_size=2),
    pairs=st.lists(st.tuples(st.sampled_from(SMALL_CONFIGS), st.sampled_from(SMALL_CONFIGS)),
                   min_size=2, max_size=8, unique=True),
)
def test_family_across_charge_sectors_matches_single_elements(rows, pairs):
    """A family whose pairs differ in |nu| - |mu| (so in charge sector)
    gives each pair's lone element; one-row stacks match the brute-force
    row and A stacks with mu = () the staircase lattice."""
    family = OperatorStack(rows, P_INHOM).elements(pairs)
    for (mu, nu), got in zip(pairs, family):
        assert got == OperatorStack(rows, P_INHOM).element(mu, nu), (mu, nu)
        if len(rows) == 1:
            (kind, x), = rows
            assert got == brute_force_row(mu, nu, kind, x, 3, P_INHOM), (mu, nu)
        if mu == () and all(kind == KIND_A for kind, _ in rows):
            assert got == g_lattice(nu, [x for _, x in rows], P_INHOM), nu


def test_unreachable_charge_sector_is_exactly_zero():
    """|nu| - |mu| > R on R A rows: no boundary tuple has the charge the
    target needs, so the element is exactly 0 (and, for mu = (), equals the
    staircase lattice)."""
    x = (F(1, 2),)
    assert partition_G((3, 2, 1), (1,), x, P_INHOM) == 0
    assert partition_G((3, 2), (), x, P_INHOM, method="stack") == 0 == g_lattice((3, 2), x, P_INHOM)
    xs = (F(1, 2), F(2, 5))
    assert partition_G((4, 2, 1), (), xs, P_INHOM, method="stack") == 0
    assert g_lattice((4, 2, 1), xs, P_INHOM) == 0
    pc = ModelParams(q=1 / 3, a=2.0, c=5.0, y=(0.75, 1.25, 1.0))
    assert OperatorStack([(KIND_A, 0.5 + 0.1j)], pc).element((1,), (3, 2, 1)) == 0


# parts inside the three-column y-prefix and up to 10 past it, so that the
# last column follows a run of up to 8 empty tail columns
GAP_CONFIGS = [as_config(c) for c in ((), (1,), (3, 2), (6,), (10,), (5, 1), (10, 4), (9, 7, 2))]
GAP_ROWS = {
    "A": ((KIND_A, F(1, 2)), (KIND_A, F(2, 5))),
    "Bdot": ((KIND_B, F(1, 3)), (KIND_B, F(2, 7))),
    "mixed": ((KIND_A, F(1, 2)), (KIND_B, F(2, 7))),
}


@pytest.mark.parametrize("backend", ["fraction", "complex", "grid"])
@pytest.mark.parametrize("rows", GAP_ROWS.values(), ids=GAP_ROWS.keys())
def test_family_across_long_tail_gaps_matches_lone_elements(rows, backend):
    """Every <mu|.|nu> over configurations with parts far past the y-prefix,
    as one family, gives each pair's lone element and what the same stack
    gives with the y-tail written out to column 10, where no column lies
    past the prefix; so do the stack's row sums after the family.  Equal as
    Fractions; within 1e-14 relative on complex lanes, and on an open grid
    against its flattened lanes."""
    if backend != "fraction":
        rows = [(kind, complex(v) * (1 + 0.05j)) for kind, v in rows]
    ref_rows = rows
    if backend == "grid":
        rows = [(kind, (v + np.array([0, 0.01 * (r + 1)])).reshape((2, 1) if r == 0 else (1, 2)))
                for r, (kind, v) in enumerate(rows)]
        flat = [a.ravel() for a in np.broadcast_arrays(*(v for _, v in rows))]
        ref_rows = [(kind, v) for (kind, _), v in zip(rows, flat)]
    pairs = [(mu, nu) for mu in GAP_CONFIGS for nu in GAP_CONFIGS]
    stack = OperatorStack(rows, P_INHOM)
    got = stack.elements(pairs) + [stack.row_sum(mu) for mu in GAP_CONFIGS]
    lone = [OperatorStack(ref_rows, P_INHOM).element(mu, nu) for mu, nu in pairs]
    lone += [OperatorStack(ref_rows, P_INHOM).row_sum(mu) for mu in GAP_CONFIGS]
    written = OperatorStack(rows, replace(P_INHOM, y=P_INHOM.y + (P_INHOM.y[-1],) * 7))
    prefix = written.elements(pairs) + [written.row_sum(mu) for mu in GAP_CONFIGS]
    # a pair with a part 10 crosses up to 8 empty tail columns before it
    assert any(np.any(ref != 0) for (mu, nu), ref in zip(pairs, lone) if 10 in mu + nu)
    for case, g, *refs in zip(pairs + GAP_CONFIGS, got, lone, prefix):
        for ref in refs:
            if backend == "fraction":
                assert g == ref, case
            else:
                err = np.max(np.abs(np.ravel(g) - np.ravel(ref)))
                assert err <= 1e-14 * max(1.0, np.max(np.abs(ref))), case
    if backend == "fraction" and all(kind == KIND_A for kind, _ in rows):
        assert got[len(pairs):] == [1] * len(GAP_CONFIGS)
