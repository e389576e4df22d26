import random
from fractions import Fraction as F
from math import factorial

import pytest

from halfspace6v.errors import CapExceeded, DegeneratePoint
from halfspace6v.shuffle import (
    SymFun,
    constant,
    shuffle_exp_truncated,
    shuffle_power,
    shuffle_product,
)
from halfspace6v.triangular import TriangularSpec, z1_symfun, z2_symfun, z_enumerate
from halfspace6v.weights import ModelParams, h_func

P = ModelParams(q=F(1, 3), a=F(2), c=F(5))


def distinct_rationals(rng, n):
    out = []
    while len(out) < n:
        v = F(rng.randint(-30, 30), rng.randint(1, 20))
        if v in out or v in (0, 1, -1, P.a, P.c):
            continue
        if any(v * o == 1 or P.q * v * o == 1 for o in out):
            continue
        out.append(v)
    return tuple(out)


def test_identity_element():
    f = z1_symfun(P)
    args = (F(1, 2),)
    assert shuffle_product(f, constant(1))(args) == f(args)
    assert shuffle_product(constant(1), f)(args) == f(args)


def test_odd_odd_anticommute():
    f = z1_symfun(P)
    g = SymFun(1, lambda a: a[0] ** 2 + 1, name="g")
    pt = (F(1, 2), F(2, 7))
    assert shuffle_product(f, g)(pt) == -shuffle_product(g, f)(pt)


def test_sign_rule_even_case():
    f = z1_symfun(P)
    g = z2_symfun(P)
    pt = (F(1, 2), F(2, 7), F(3, 11))
    assert shuffle_product(f, g)(pt) == shuffle_product(g, f)(pt)


def test_z1_squared_vanishes():
    f = z1_symfun(P)
    assert shuffle_product(f, f)((F(1, 2), F(2, 5))) == 0


def test_associativity_at_random_points():
    rng = random.Random(4)
    f = z1_symfun(P)
    g = z2_symfun(P)
    h = SymFun(1, lambda a: 1 / (1 + a[0] ** 2), name="h")
    pt = distinct_rationals(rng, 4)
    lhs = shuffle_product(shuffle_product(f, g), h)(pt)
    rhs = shuffle_product(f, shuffle_product(g, h))(pt)
    assert lhs == rhs


def test_symmetry_of_product_values():
    rng = random.Random(8)
    f = z1_symfun(P)
    g = z2_symfun(P)
    pt = distinct_rationals(rng, 3)
    base = shuffle_product(f, g)(pt)
    assert shuffle_product(f, g)((pt[2], pt[0], pt[1])) == base


def test_power_trivia():
    f = z2_symfun(P)
    assert shuffle_power(f, 0)(()) == 1
    pt = (F(1, 2), F(2, 7))
    assert shuffle_power(f, 1)(pt) == f(pt)


def test_z2_power_reproduces_z4():
    rng = random.Random(21)
    pt = distinct_rationals(rng, 4)
    lhs = shuffle_power(z2_symfun(P), 2)(pt)
    z4 = z_enumerate(TriangularSpec(pt, P))
    assert lhs == 2 * z4  # Z_2^{*2} = 2! Z_4


def test_exp_parity_components():
    f = z2_symfun(P)
    comps = shuffle_exp_truncated(f, max_arity=3)
    assert comps[0](()) == 1
    assert comps[1]((F(1, 2),)) == 0
    pt = (F(1, 2), F(2, 7))
    assert comps[2](pt) == f(pt)
    assert comps[3]((F(1, 2), F(2, 7), F(3, 11))) == 0


def test_exp_of_arity_one_truncates():
    f = z1_symfun(P)
    comps = shuffle_exp_truncated(f, max_arity=3)
    assert comps[2]((F(1, 2), F(2, 7))) == 0
    assert comps[3]((F(1, 2), F(2, 7), F(3, 11))) == 0


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_exp_generates_triangular(m):
    # graded pieces of exp_*(Z_2 + Z_1) give Z_m
    rng = random.Random(50 + m)
    comps = shuffle_exp_truncated([z1_symfun(P), z2_symfun(P)], max_arity=m)
    pt = distinct_rationals(rng, m)
    assert comps[m](pt) == z_enumerate(TriangularSpec(pt, P))


def test_degenerate_point_raises():
    f = z1_symfun(P)
    g = z1_symfun(P)
    with pytest.raises(DegeneratePoint):
        shuffle_product(f, g)((F(1, 2), F(1, 2)))


def test_cap_exceeded():
    f = z2_symfun(P)
    with pytest.raises(CapExceeded):
        shuffle_power(f, 5)
