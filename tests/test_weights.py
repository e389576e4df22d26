import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace6v.errors import DivisionByZero
from halfspace6v.scalars import COMPLEX, RATIONAL, rand_rational
from halfspace6v.weights import (
    DOTTED,
    LOCAL_RELATIONS,
    ROTATED,
    STOCHASTIC,
    ModelParams,
    boundary_weight,
    bulk_ints,
    bulk_table,
    bulk_weight,
    h_func,
    h_ints,
    h_over_ac,
    k_ints,
    k_table,
    params_from_json,
    random_relation_point,
    verify_local_relation,
)

P = ModelParams(q=F(1, 3), a=F(2), c=F(3), y=(F(1),))

ICE_TUPLES = [(i, j, k, l) for i in (0, 1) for j in (0, 1) for k in (0, 1) for l in (0, 1)]


def test_h_closed_values():
    assert h_func(F(0), P) == 1
    assert h_func(F(1), P) == 0
    assert h_func(F(-1), P) == 0
    # hand substitution: a=2, c=3, x=1/2 -> 6*(3/4)/((3/2)(5/2)) = 6/5
    assert h_func(F(1, 2), P) == F(6, 5)


def test_h_pole_raises():
    with pytest.raises(DivisionByZero):
        h_func(F(2), P)


def test_h_c_infinite():
    pci = ModelParams(q=F(1, 4), a=F(3), c_infinite=True)
    assert h_func(F(1, 2), pci) == F(3) * F(3, 4) / F(5, 2)


def test_bulk_examples():
    q, z = F(1, 3), F(2, 7)
    assert bulk_weight(0, 0, 0, 0, z, STOCHASTIC, q) == 1
    assert bulk_weight(1, 0, 1, 0, z, STOCHASTIC, q) == q * (1 - z) / (1 - q * z)
    # z = 1 factorization: delta_{i,l} delta_{j,k}
    for i, j, k, l in ICE_TUPLES:
        expect = 1 if (i == l and j == k) else 0
        assert bulk_weight(i, j, k, l, F(1), STOCHASTIC, q) == expect


def test_ice_rule_nullity():
    q, z = F(1, 3), F(2, 7)
    for variant in (STOCHASTIC, ROTATED):
        for i, j, k, l in ICE_TUPLES:
            if i + j != k + l:
                assert bulk_weight(i, j, k, l, z, variant, q) == 0


def test_sum_to_unity_exact():
    rng = random.Random(0)
    for _ in range(20):
        q = F(rng.randint(-20, 20), rng.randint(1, 20))
        z = F(rng.randint(-20, 20), rng.randint(1, 20))
        if 1 - q * z == 0:
            continue
        for i in (0, 1):
            for j in (0, 1):
                s = sum(
                    bulk_weight(i, j, k, l, z, STOCHASTIC, q)
                    for k in (0, 1)
                    for l in (0, 1)
                )
                assert s == 1


def test_boundary_rows_sum_to_unity():
    for x in (F(1, 2), F(-3, 7), F(5, 9)):
        for i in (0, 1):
            assert boundary_weight(i, 0, x, P) + boundary_weight(i, 1, x, P) == 1


def test_boundary_examples():
    # x = +-1 gives the identity matrix
    for x in (F(1), F(-1)):
        for i in (0, 1):
            for j in (0, 1):
                assert boundary_weight(i, j, x, P) == (1 if i == j else 0)
    assert boundary_weight(0, 1, F(1, 2), P) == F(6, 5)
    assert boundary_weight(1, 0, F(1, 2), P) == -F(1, 5)


def test_boundary_c_infinite_table():
    pci = ModelParams(q=F(1, 4), a=F(3), c_infinite=True)
    x = F(1, 2)
    assert boundary_weight(1, 0, x, pci) == 0
    assert boundary_weight(1, 1, x, pci) == 1
    assert boundary_weight(0, 0, x, pci) + boundary_weight(0, 1, x, pci) == 1


def test_dotted_ratio():
    q, z = F(1, 5), F(3, 11)
    ratio = (1 - q * z) / (1 - z)
    for key in ICE_TUPLES:
        s = bulk_weight(*key, z, STOCHASTIC, q)
        d = bulk_weight(*key, z, DOTTED, q)
        assert d == ratio * s


def _closed_form(i, j, k, l, z, variant, q):
    # the stochastic table written out; dotted = stochastic (1-qz)/(1-z);
    # rotated = stochastic at (j, i; l, k)
    if variant == ROTATED:
        i, j, k, l = j, i, l, k
    w = {
        (0, 0, 0, 0): 1,
        (1, 0, 1, 0): q * (1 - z) / (1 - q * z),
        (1, 0, 0, 1): (1 - q) / (1 - q * z),
        (1, 1, 1, 1): 1,
        (0, 1, 0, 1): (1 - z) / (1 - q * z),
        (0, 1, 1, 0): z * (1 - q) / (1 - q * z),
    }.get((i, j, k, l), 0)
    return w * (1 - q * z) / (1 - z) if variant == DOTTED else w


def test_bulk_weight_is_its_table_entry():
    rng = random.Random(18)
    for _ in range(40):
        q, z = rand_rational(rng), rand_rational(rng)
        if (1 - q * z) * (1 - z) == 0:
            continue
        for variant in (STOCHASTIC, DOTTED, ROTATED):
            table = bulk_table(z, variant, q)
            assert list(table) == [(0, 0), (0, 1), (1, 0), (1, 1)]
            for i, j, k, l in ICE_TUPLES:
                entry = [w for kk, ll, w in table[i, j] if (kk, ll) == (k, l)]
                assert len(entry) <= 1 and all(w != 0 for w in entry)
                w = bulk_weight(i, j, k, l, z, variant, q)
                assert w == (entry[0] if entry else 0)
                assert w == _closed_form(i, j, k, l, z, variant, q), (i, j, k, l, variant)


def test_bulk_weight_at_pole():
    # z = 1/q: only the stochastic (and rotated) empty and full vertices do
    # not divide by 1 - qz; z = 1 is a pole of every dotted input
    for q, z in ((F(1, 3), F(3)), (0.25, 4.0)):
        for variant in (STOCHASTIC, ROTATED):
            assert list(bulk_table(z, variant, q)) == [(0, 0), (1, 1)]
            assert bulk_weight(0, 0, 0, 0, z, variant, q) == 1
            assert bulk_weight(1, 1, 1, 1, z, variant, q) == 1
            for i, j, k, l in ICE_TUPLES:
                if i != j and i + j == k + l:
                    with pytest.raises(DivisionByZero):
                        bulk_weight(i, j, k, l, z, variant, q)
        assert bulk_table(1 + 0 * z, DOTTED, q) == {}
        for i, j, k, l in ICE_TUPLES:
            if i + j == k + l:
                with pytest.raises(DivisionByZero):
                    bulk_weight(i, j, k, l, 1 + 0 * z, DOTTED, q)
            else:
                assert bulk_weight(i, j, k, l, z, STOCHASTIC, q) == 0


def test_bulk_weights_reject_bad_input():
    with pytest.raises(ValueError):
        bulk_table(F(1, 2), "rotate", F(1, 3))
    # an edge state of 2 is not a pole of input (2, 0)
    for key in ((2, 0, 2, 0), (2, 0, 1, 1), (0, 0, 0, -1)):
        with pytest.raises(ValueError):
            bulk_weight(*key, F(1, 2), STOCHASTIC, F(1, 3))


def test_ybe_reference_point():
    ok, resid = verify_local_relation(
        "ybe", {"q": F(1, 3), "x": F(2), "y": F(5, 7), "z": F(3, 2)}
    )
    assert ok and resid == 0.0


def test_k_unitarity_reference_point():
    ok, resid = verify_local_relation(
        "k_unitarity", {"q": F(1, 2), "a": F(3), "c": F(-2), "x": F(4, 5)}
    )
    assert ok and resid == 0.0


def test_r_unitarity_trivial_at_equal_arguments():
    ok, resid = verify_local_relation("r_unitarity", {"q": F(1, 3), "x": F(2, 5), "y": F(2, 5)})
    assert ok and resid == 0.0


@pytest.mark.parametrize("relation", LOCAL_RELATIONS)
def test_relations_at_random_points(relation):
    rng = random.Random(99)
    for _ in range(20):
        pt = random_relation_point(relation, rng)
        ok, resid = verify_local_relation(relation, pt)
        assert ok and resid == 0.0, (relation, pt)


def test_params_json_roundtrip():
    obj = {"q": "1/3", "a": "2", "c": "5", "x": ["1/2"], "y": ["1"], "z": [], "c_infinite": False}
    p = params_from_json(obj)
    assert p.q == F(1, 3) and p.x == (F(1, 2),)
    assert p.y_at(1) == 1 and p.y_at(10) == 1  # constant tail


@pytest.mark.parametrize("backend", [RATIONAL, COMPLEX])
def test_params_json_null_c_with_c_infinite(backend):
    """A parameter file may spell the infinite boundary as "c": null."""
    obj = {"q": "1/4", "a": "3", "y": ["1"], "c_infinite": True}
    absent = params_from_json(obj, backend)
    null = params_from_json({**obj, "c": None}, backend)
    assert null == absent and null.c is None and null.c_infinite
    with pytest.raises(ValueError):
        params_from_json({**obj, "c": None, "c_infinite": False}, backend)


def test_relations_float_backend_tolerance():
    ok, resid = verify_local_relation("ybe", {"q": 0.3 + 0.1j, "x": 1.7, "y": 0.5 + 0.2j, "z": 2.3})
    assert ok and resid < 1e-10
    ok, resid = verify_local_relation(
        "reflection", {"q": 0.3, "x": 0.7, "y": 1.3, "a": 2.5, "c": -1.2}
    )
    assert ok and resid < 1e-10


def _paper_bulk(z, q, variant):
    """The six nonzero bulk weights {(i, j, k, l): w} of the variant, written
    out one by one."""
    if variant == DOTTED:
        d = 1 - z
        return {(0, 0, 0, 0): (1 - q * z) / d, (1, 0, 1, 0): q, (1, 0, 0, 1): (1 - q) / d,
                (0, 1, 0, 1): 1, (0, 1, 1, 0): z * (1 - q) / d, (1, 1, 1, 1): (1 - q * z) / d}
    d = 1 - q * z
    w = {(0, 0, 0, 0): 1, (1, 0, 1, 0): q * (1 - z) / d, (1, 0, 0, 1): (1 - q) / d,
         (0, 1, 0, 1): (1 - z) / d, (0, 1, 1, 0): z * (1 - q) / d, (1, 1, 1, 1): 1}
    return {(j, i, l, k): v for (i, j, k, l), v in w.items()} if variant == ROTATED else w


def _paper_k(x, a, c):
    """The four K weights ((1-h, h), (-h/(ac), 1+h/(ac))), c None for infinite c;
    x = +-1 is the identity before any pole."""
    if x in (1, -1):
        return ((1, 0), (0, 1))
    if c is None:
        h, hoa = a * (1 - x * x) / (a - x), 0
    else:
        hoa = (1 - x * x) / ((a - x) * (c - x))
        h = a * c * hoa
    return ((1 - h, h), (-hoa, 1 + hoa))


def _is_normal(entries, den):
    return den > 0 and math.gcd(den, *entries) == 1


RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(z=RATIONALS, q=RATIONALS, x=RATIONALS, a=RATIONALS, c=st.none() | RATIONALS)
def test_integer_tables_are_the_paper_weights(z, q, x, a, c):
    """bulk_ints, k_ints and h_ints on random rationals (c = None: infinite)
    are the paper's weights as integers over one positive den with gcd 1,
    and bulk_table, k_table, h_func and h_over_ac read them."""
    for variant in (STOCHASTIC, DOTTED, ROTATED):
        table, den = bulk_ints(z.numerator, z.denominator, variant, q.numerator, q.denominator)
        entries = [w for es in table.values() for *_, w in es]
        assert _is_normal(entries, den) and 0 not in entries
        if (1 - z if variant == DOTTED else 1 - q * z) == 0:
            continue  # see test_integer_tables_at_poles
        ref = {key: w for key, w in _paper_bulk(z, q, variant).items() if w != 0}
        got = {(i, j, k, l): F(w, den) for (i, j), es in table.items() for k, l, w in es}
        assert got == ref, variant
        view = bulk_table(z, variant, q)
        assert {(i, j, k, l): w for (i, j), es in view.items() for k, l, w in es} == ref
    params = ModelParams(q=q, a=a, c=c, c_infinite=c is None)
    try:
        ref = _paper_k(x, a, c)
    except ZeroDivisionError:
        for build in (h_ints, k_ints):
            with pytest.raises(DivisionByZero):
                build(x.numerator, x.denominator, params)
        return
    K, den = k_ints(x.numerator, x.denominator, params)
    assert _is_normal([k for row in K for k in row], den)
    assert [[F(k, den) for k in row] for row in K] == [list(row) for row in ref]
    assert [list(row) for row in k_table(x, params)] == [list(row) for row in ref]
    H, O, P = h_ints(x.numerator, x.denominator, params)
    assert _is_normal([H, O], P) and (F(H, P), F(O, P)) == (ref[0][1], -ref[1][0])
    assert h_func(x, params) == ref[0][1] and h_over_ac(x, params) == -ref[1][0]


def test_integer_tables_at_poles():
    q = F(1, 3)
    # 1 - qz = 0: only the weight-1 vertices; z = 1 is a pole of every dotted input
    for variant in (STOCHASTIC, ROTATED):
        assert bulk_ints(3, 1, variant, 1, 3) == ({(0, 0): [(0, 0, 1)], (1, 1): [(1, 1, 1)]}, 1)
        assert bulk_ints(-6, -2, variant, 2, 6) == bulk_ints(3, 1, variant, 1, 3)
    assert bulk_ints(1, 1, DOTTED, 1, 3) == ({}, 1) == bulk_ints(5, 5, DOTTED, 1, 3)
    with pytest.raises(DivisionByZero):
        bulk_table(F(1), DOTTED, q)[0, 1]
    # a - x = 0, at finite and infinite c
    for params in (ModelParams(q=q, a=F(3), c=F(-2)), ModelParams(q=q, a=F(3), c_infinite=True)):
        for build in (h_ints, k_ints):
            with pytest.raises(DivisionByZero):
                build(3, 1, params)
        with pytest.raises(DivisionByZero):
            h_func(F(3), params)
    # x = +-1 at a = 1, c = -1: K is the identity although a - x or c - x vanishes
    degenerate = ModelParams(q=q, a=F(1), c=F(-1))
    for x in (F(1), F(-1)):
        assert k_ints(x.numerator, x.denominator, degenerate) == (((1, 0), (0, 1)), 1)
        assert h_ints(x.numerator, x.denominator, degenerate) == (0, 0, 1)
        assert k_table(x, degenerate) == ((1, 0), (0, 1))


def test_mixed_input_takes_the_scalar_path():
    """A rational argument under a complex q (or a complex boundary) is
    evaluated by the pair builders on (v, 1) pairs, in complex arithmetic."""
    z, q = F(1, 3), 0.25 + 0.1j
    table = bulk_table(z, STOCHASTIC, q)
    assert table[1, 0] == [(1, 0, q * (1 - z) / (1 - q * z)), (0, 1, (1 - q) / (1 - q * z))]
    assert all(isinstance(w, complex) for k, l, w in table[0, 1])
    x, params = F(1, 2), ModelParams(q=q, a=3.0 + 0j, c=-2.0)
    h = 3.0 * -2.0 * (1 - x) * (1 + x) / ((3.0 - x) * (-2.0 - x))
    assert h_func(x, params) == h and isinstance(h_func(x, params), complex)
    assert k_table(x, params)[0] == (1 - h, h)


def test_array_input_reads_the_same_builders_lane_by_lane():
    """On an array of 64 complex lanes every view equals its per-node value
    in Python complex arithmetic within 1e-15 of max(1, |value|) (the K
    entries 1 - h and 1 + h/(ac) are differences of O(1) terms), and a lane
    at x = +-1 has h = 0."""
    nodes = 0.55 * np.exp(2j * np.pi * (np.arange(64) + 0.3) / 64)
    q, params = 0.25 + 0.05j, ModelParams(q=0.25 + 0.05j, a=3.0 + 0.5j, c=-2.0 + 0j)

    def close(lanes, scalar):
        for i, w in enumerate(np.broadcast_to(lanes, nodes.shape)):
            want = scalar(complex(nodes[i])) if callable(scalar) else scalar[i]
            assert abs(w - want) <= 1e-15 * max(1.0, abs(want)), i

    for variant in (STOCHASTIC, DOTTED, ROTATED):
        table = bulk_table(nodes, variant, q)
        assert set(table) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        for ij, es in table.items():
            per_node = [bulk_table(complex(x), variant, q)[ij] for x in nodes]
            for e, (k, l, w) in enumerate(es):
                assert all(node[e][:2] == (k, l) for node in per_node)
                close(w, [node[e][2] for node in per_node])
    K = k_table(nodes, params)
    for i in (0, 1):
        for j in (0, 1):
            close(K[i][j], lambda x: k_table(x, params)[i][j])
    close(h_func(nodes, params), lambda x: h_func(x, params))
    close(h_over_ac(nodes, params), lambda x: h_over_ac(x, params))
    edges = np.concatenate(([1.0 + 0j, -1.0 + 0j], nodes[2:]))
    assert h_func(edges, params)[:2].tolist() == [0, 0]
    assert h_over_ac(edges, params)[:2].tolist() == [0, 0]


def test_exact_table_builders_run_no_fraction_arithmetic(monkeypatch):
    """The integer builders take numerators and denominators only: with every
    Fraction operation and constructor disabled they still build each table."""
    for P_ in (P, ModelParams(q=F(1, 4), a=F(3), c_infinite=True)):
        expected = [bulk_ints(2, 7, v, 1, 3) for v in (STOCHASTIC, DOTTED, ROTATED)]
        expected += [k_ints(4, 5, P_), h_ints(-3, 7, P_)]
        with monkeypatch.context() as m:
            _disable_fraction_arithmetic(m)
            got = [bulk_ints(2, 7, v, 1, 3) for v in (STOCHASTIC, DOTTED, ROTATED)]
            got += [k_ints(4, 5, P_), h_ints(-3, 7, P_)]
        assert got == expected


FRACTION_OPERATIONS = (
    "__new__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__",
    "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__",
)


def _disable_fraction_arithmetic(monkeypatch):
    """Make every Fraction operation, and making a Fraction, fail."""

    def forbidden(*args, **kwargs):
        raise AssertionError("Fraction arithmetic")

    for name in FRACTION_OPERATIONS:
        monkeypatch.setattr(F, name, forbidden)


def count_fraction_arithmetic(monkeypatch) -> list:
    """Record every Fraction operation, and making a Fraction, from here on:
    the returned list gains one entry per call."""
    calls = []
    for name in FRACTION_OPERATIONS:
        def counting(*args, _name=name, _op=getattr(F, name), **kwargs):
            calls.append(_name)
            return _op(*args, **kwargs)

        monkeypatch.setattr(F, name, counting)
    return calls
