import random
from fractions import Fraction as F

import pytest

from halfspace6v.errors import CapExceeded, DegeneratePoint
from halfspace6v.triangular import (
    TriangularSpec,
    verify_z_properties,
    z_altform,
    z_altform_subset,
    z_enumerate,
    z_kuperberg,
    z_pfaffian,
    z_shuffle,
    z_subset_kuperberg,
)
from halfspace6v.weights import ModelParams, h_func
from test_weights import count_fraction_arithmetic

P = ModelParams(q=F(1, 3), a=F(2), c=F(5))


def sample_alphabet(rng, m, params):
    xs = []
    while len(xs) < m:
        v = F(rng.randint(-40, 40), rng.randint(1, 30))
        if v in (0, 1, -1) or v in xs or v in (params.a, params.c):
            continue
        if any(v * o == 1 or params.q * v * o == 1 for o in xs):
            continue
        if h_func(v, params) == 1:
            continue
        xs.append(v)
    return tuple(xs)


def test_small_closed_forms():
    assert z_enumerate(TriangularSpec((), P)) == 1
    x1, x2 = F(1, 2), F(2, 7)
    h1, h2 = h_func(x1, P), h_func(x2, P)
    assert z_enumerate(TriangularSpec((x1,), P)) == 1 - h1
    z2 = (1 - h1) * (1 - h2) - (h1 * h2 / (P.a * P.c)) * (1 - P.q) * x1 * x2 / (
        1 - P.q * x1 * x2
    )
    assert z_enumerate(TriangularSpec((x1, x2), P)) == z2


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_five_way_agreement(m):
    rng = random.Random(100 + m)
    for _ in range(2):
        xs = sample_alphabet(rng, m, P)
        spec = TriangularSpec(xs, P)
        ref = z_enumerate(spec)
        assert z_pfaffian(spec) == ref
        assert z_subset_kuperberg(spec) == ref
        assert z_shuffle(spec) == ref
        assert z_altform(spec) == ref
        assert z_altform_subset(spec) == ref


def test_five_routes_equal_enumeration_at_m7():
    """A bordered order-8 Pfaffian, 64 even subsets and an arity-7 shuffle,
    each exactly equal to the line-by-line sum."""
    xs = (F(1, 5), F(10, 21), F(-34, 3), F(7), F(6, 19), F(-11, 10), F(24, 7))
    spec = TriangularSpec(xs, P)
    ref = z_enumerate(spec)
    for route in (z_pfaffian, z_subset_kuperberg, z_shuffle, z_altform, z_altform_subset):
        assert route(spec) == ref, route.__name__


@pytest.mark.parametrize("route", [z_pfaffian, z_subset_kuperberg, z_shuffle, z_altform, z_altform_subset])
def test_routes_make_one_fraction_on_rational_input(monkeypatch, route):
    """On rational input the fraction-free routes keep integer numerators and
    denominators, and make one Fraction at the end: at m = 6 (32 Kuperberg
    subsets, 15 pairs, an arity-6 shuffle) the count of Fraction operations
    and constructions is a constant, not one per subset term or kernel
    entry."""
    spec = TriangularSpec((F(1, 5), F(10, 21), F(-34, 3), F(7), F(6, 19), F(-11, 10)), P)
    expected = z_enumerate(spec)
    with monkeypatch.context() as m:
        calls = count_fraction_arithmetic(m)
        got = route(spec)
    assert got == expected and type(got) is F
    assert len(calls) <= 2, calls


def test_altform_u_zero_is_one():
    rng = random.Random(9)
    xs = sample_alphabet(rng, 3, P)
    spec = TriangularSpec(xs, P, u=F(0))
    assert z_altform(spec) == 1
    assert z_altform_subset(spec) == 1


def test_altform_internal_routes_cross_check():
    rng = random.Random(12)
    xs = sample_alphabet(rng, 4, P)
    spec = TriangularSpec(xs, P, u=F(2, 3))
    assert z_altform(spec) == z_altform_subset(spec)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_kuperberg_specialization(m):
    pk = ModelParams(q=F(1, 4), a=F(1), c=F(-1))
    xs = tuple(F(k + 2, 2 * k + 5) for k in range(m))
    spec = TriangularSpec(xs, pk)
    zp = z_pfaffian(spec)
    if m % 2 == 0:
        assert zp == z_kuperberg(xs, pk.q)
        assert zp == z_enumerate(spec)
    else:
        assert zp == 0
        assert z_enumerate(spec) == 0


def test_c_infinite_factorization():
    pci = ModelParams(q=F(1, 4), a=F(3), c_infinite=True)
    for xs in (
        (F(1, 2), F(2, 5), F(3, 7)),
        (F(1, 2), F(2, 5), F(3, 7), F(-4, 9), F(5, 11), F(-6, 13), F(7, 4), F(-8, 5)),
    ):
        expect = F(1)
        for x in xs:
            expect *= x * (1 - pci.a * x) / (x - pci.a)
        assert z_subset_kuperberg(TriangularSpec(xs, pci)) == expect
        assert z_enumerate(TriangularSpec(xs, pci)) == expect


def test_degenerate_point_raises():
    xs = (F(1, 2), F(1, 2))
    with pytest.raises(DegeneratePoint):
        z_pfaffian(TriangularSpec(xs, P))


@pytest.mark.parametrize("xs", [(F(1), F(1, 3), F(2, 7)), (F(4), F(1, 3), F(2, 7))])
def test_pfaffian_odd_alphabet_through_1_and_1_over_q(xs):
    # the bordered Pfaffian is finite at x = 1 and x = 1/q = 4
    p = ModelParams(q=F(1, 4), a=F(3), c=F(-2))
    spec = TriangularSpec(xs, p)
    assert z_pfaffian(spec) == z_enumerate(spec) == z_subset_kuperberg(spec)


def test_enumeration_cap():
    xs = tuple(F(1, k + 2) for k in range(13))
    with pytest.raises(CapExceeded):
        z_enumerate(TriangularSpec(xs, P))


@pytest.mark.parametrize("m", [8, 9, 10, 11])
def test_enumeration_matches_pfaffian_large(m):
    p = ModelParams(q=F(1, 4), a=F(3), c=F(-2))
    xs = sample_alphabet(random.Random(80 + m), m, p)
    spec = TriangularSpec(xs, p)
    assert z_enumerate(spec) == z_pfaffian(spec)


def test_enumeration_pole_raises_degenerate_point():
    # q x_1 x_2 = 1 is a pole of the bulk weight where lines 1 and 2 cross
    p = ModelParams(q=F(1, 4), a=F(3), c=F(-2))
    with pytest.raises(DegeneratePoint):
        z_enumerate(TriangularSpec((F(8), F(1, 2), F(2, 7)), p))


def test_enumeration_pole_of_an_unused_crossing():
    # q x_1 x_4 = 1 is a pole of the crossing of lines 1 and 4 for mixed edge
    # states only, and no state of nonzero weight meets it there: Z is finite
    # (a crossing table that raised for any pole entry would fail here)
    xs = (F(-1), F(29, 23), F(-13, 3), F(-3))
    assert z_enumerate(TriangularSpec(xs, P)) == F(349967969, 7097279)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_z_property_suite(m):
    rng = random.Random(40 + m)
    xs = sample_alphabet(rng, m, P)
    report = verify_z_properties(TriangularSpec(xs, P), rng=rng)
    assert all(ok for ok, _ in report.values()), report
    assert set(report) == {
        "symmetry",
        "x_to_zero",
        "x_to_one",
        "x_to_reciprocal",
        "freeze_at_q_reciprocal",
        "degree_bound",
    }


def test_recursion_examples_direct():
    rng = random.Random(77)
    x1, x2 = sample_alphabet(rng, 2, P)
    # x2 = 1 drops the variable; x2 = 1/x1 drops both
    assert z_enumerate(TriangularSpec((x1, F(1)), P)) == z_enumerate(TriangularSpec((x1,), P))
    assert z_enumerate(TriangularSpec((x1, 1 / x1), P)) == 1
