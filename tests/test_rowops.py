"""Double-row operator tests against independent brute-force oracles."""

import itertools
import random
from fractions import Fraction as F

import pytest

from halfspace6v.errors import DegeneratePoint, GuardViolated, TruncationTooSmall
from halfspace6v.rowops import (
    KIND_A,
    KIND_B,
    OperatorStack,
    SparseState,
    apply_double_row,
    as_config,
    g_lattice,
    guard_aa,
    guard_cauchy,
    partition_F,
    partition_G,
    stochastic_row_sum,
    verify_operator_identity,
)
from halfspace6v.symfun import g_subset
from halfspace6v.weights import (
    DOTTED,
    ROTATED,
    STOCHASTIC,
    ModelParams,
    boundary_weight,
    bulk_weight,
    h_func,
)

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
    for mu in configs:
        out = apply_double_row(SparseState.unit(mu), kind, x, n, P_INHOM)
        for nu in configs:
            assert out.get(nu, F(0)) == brute_force_row(mu, nu, kind, x, n, P_INHOM), (mu, nu)


def test_bdot_left_eigenvector():
    z = F(2, 7)
    st = apply_double_row(SparseState.unit(()), KIND_B, z, 5, P)
    assert st == {(): h_func(z, P)}


def test_a_identity_at_one_on_bra():
    st = apply_double_row(SparseState.unit((3, 1)), KIND_A, F(1), 6, P)
    assert st == {(3, 1): F(1)}


def test_single_column_example():
    # q=1/3, a=2, c=5, y1=1, x=1/2, one column
    x = F(1, 2)
    st = apply_double_row(SparseState.unit(()), KIND_A, x, 1, P)
    h = h_func(x, P)
    assert st == {
        (): 1 - h,
        (1,): h * x * (1 - F(1, 3)) / (1 - F(1, 3) * x),
    }


def test_truncation_too_small():
    with pytest.raises(TruncationTooSmall):
        apply_double_row(SparseState.unit((5,)), KIND_A, F(1, 2), 3, P)


def test_partition_G_empty_alphabet():
    assert partition_G((2, 1), (2, 1), (), P) == 1
    assert partition_G((2,), (1,), (), P) == 0


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
    ("a_at_zero", {}),
    ("a_at_one", {}),
    ("a_inverse_pair", {"x": F(9, 10)}),
    ("aa_commute", {"x": (F(1, 2), F(2, 5))}),
    ("bb_commute", {"z": (F(1, 3), F(2, 7))}),
    ("ab_exchange", {"x": F(1, 2), "z": F(1, 3)}),
    ("stochastic_rows", {"x": (F(1, 2),)}),
]


@pytest.mark.parametrize("identity,kw", IDENTITY_CASES)
def test_operator_identities_exact(identity, kw):
    ok, resid = verify_operator_identity(identity, P, support=2, **kw)
    assert ok and resid == 0.0


def test_branching_stabilises():
    ok, resid = verify_operator_identity(
        "branching", P, x=(F(1, 2), F(2, 5)), support=1, tol=1e-6
    )
    assert ok and resid < 1e-6


def test_guard_violated():
    with pytest.raises(GuardViolated):
        verify_operator_identity("a_inverse_pair", P, x=F(2, 5), support=1)
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


def test_stack_pole_raises_degenerate_point():
    # x_1 = y_1/q is a pole of one row weight; G itself is finite there
    p = ModelParams(q=F(1, 4), a=F(3), c=F(-2), y=(F(4, 5),))
    xs = (F(16, 5), F(1, 2))
    assert partition_G((2, 1), (), xs, p, method="lattice") == F(-1232, 65)
    assert g_subset((2, 1), xs, p) == F(-1232, 65)
    with pytest.raises(DegeneratePoint):
        partition_G((2, 1), (), xs, p, method="stack")


def test_lattice_and_subset_pole_raise_degenerate_point():
    # x_1 y_1 q = 1 is a pole of the weights both routes multiply out
    p = ModelParams(q=F(2), a=F(1, 3), c=F(1, 4), y=(F(1),))
    xs = (F(1), F(1, 2))
    with pytest.raises(DegeneratePoint):
        g_lattice((1,), xs, p)
    with pytest.raises(DegeneratePoint):
        g_subset((1,), xs, p)
